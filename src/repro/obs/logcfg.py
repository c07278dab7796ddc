"""Structured logging for the ``repro`` tree.

Every module logs through :func:`get_logger`, which returns a
:class:`StructuredLogger` — a thin wrapper over :mod:`logging` whose
methods accept keyword fields (``log.info("run finished", run_id=...,
seconds=1.2)``).  Fields merge with the ambient :func:`log_context`
(a :mod:`contextvars` stack the engine populates with run/session ids),
so a debug line deep in the query engine automatically carries the run
that triggered it.

Two formatters:

* ``text`` (default) — ``level: message [k=v ...]`` on stderr, which is
  what the CLI's users and tests expect (``error: ...`` lines keep
  their exact shape).
* ``json`` — one JSON object per line (``ts``/``level``/``logger``/
  ``msg`` plus the merged fields), for machine consumption.

:func:`configure_logging` is idempotent and replaceable: it tags its
handler and swaps any previous one, so repeated CLI invocations in one
process (the test suite calls ``main()`` dozens of times) never stack
duplicate handlers.
"""

from __future__ import annotations

import json
import logging
import sys
import time
from contextvars import ContextVar, Token
from typing import Optional, Tuple

ROOT_LOGGER = "repro"
_HANDLER_TAG = "_repro_structured_handler"

_CONTEXT: ContextVar[Tuple] = ContextVar("repro_log_context", default=())


class log_context:
    """Bind fields to every log line emitted inside the block::

        with log_context(run_id=run_id, session=name):
            ...
    """

    __slots__ = ("_fields", "_token")

    def __init__(self, **fields):
        self._fields = tuple(fields.items())
        self._token: Optional[Token] = None

    def __enter__(self):
        self._token = _CONTEXT.set(_CONTEXT.get() + self._fields)
        return self

    def __exit__(self, *exc_info):
        if self._token is not None:
            _CONTEXT.reset(self._token)
        return False


def context_fields() -> dict:
    """The ambient field dict (later bindings win)."""
    return dict(_CONTEXT.get())


class StructuredLogger:
    """``logging.Logger`` facade taking keyword fields per call."""

    __slots__ = ("_logger",)

    def __init__(self, logger: logging.Logger):
        self._logger = logger

    def _log(self, level, msg, fields, exc_info=False):
        if not self._logger.isEnabledFor(level):
            return
        merged = dict(_CONTEXT.get())
        merged.update(fields)
        self._logger.log(
            level, msg, extra={"fields": merged}, exc_info=exc_info
        )

    def debug(self, msg, **fields):
        self._log(logging.DEBUG, msg, fields)

    def info(self, msg, **fields):
        self._log(logging.INFO, msg, fields)

    def warning(self, msg, **fields):
        self._log(logging.WARNING, msg, fields)

    def error(self, msg, **fields):
        self._log(logging.ERROR, msg, fields)

def get_logger(name: str) -> StructuredLogger:
    """The structured logger for a module (``get_logger(__name__)``)."""
    if not name.startswith(ROOT_LOGGER):
        name = f"{ROOT_LOGGER}.{name}"
    return StructuredLogger(logging.getLogger(name))


class JsonFormatter(logging.Formatter):
    """One JSON object per line."""

    def format(self, record: logging.LogRecord) -> str:
        payload = {
            "ts": round(record.created, 6),
            "level": record.levelname.lower(),
            "logger": record.name,
            "msg": record.getMessage(),
        }
        fields = getattr(record, "fields", None)
        if fields:
            payload.update(fields)
        if record.exc_info:
            payload["exc"] = self.formatException(record.exc_info)
        return json.dumps(payload, sort_keys=True, default=str)


class TextFormatter(logging.Formatter):
    """``level: message [k=v ...]`` — the CLI's human-facing shape."""

    def format(self, record: logging.LogRecord) -> str:
        line = f"{record.levelname.lower()}: {record.getMessage()}"
        fields = getattr(record, "fields", None)
        if fields:
            suffix = " ".join(f"{k}={v}" for k, v in fields.items())
            line = f"{line} [{suffix}]"
        if record.exc_info:
            line = f"{line}\n{self.formatException(record.exc_info)}"
        return line


class _CurrentStderr:
    """File-like proxy that resolves ``sys.stderr`` at *write* time.

    The default handler must follow stderr redirections that happen
    after configuration (pytest's capture fixtures swap ``sys.stderr``
    per test; the CLI is re-entered many times per process), so binding
    the stream once at configure time would strand log lines on a dead
    buffer."""

    def write(self, data):
        return sys.stderr.write(data)

    def flush(self):
        stream = sys.stderr
        if hasattr(stream, "flush"):
            stream.flush()


def configure_logging(level="warning", stream=None, fmt="text") -> logging.Logger:
    """(Re)configure the ``repro`` logger tree.

    Installs exactly one tagged handler on the root ``repro`` logger —
    calling again replaces it (new level/stream/format), so the CLI can
    be re-entered freely.  ``fmt`` is ``"text"`` or ``"json"``;
    ``stream`` defaults to whatever ``sys.stderr`` is at emit time.
    """
    if isinstance(level, str):
        resolved = logging.getLevelName(level.upper())
        if not isinstance(resolved, int):
            raise ValueError(f"unknown log level {level!r}")
        level = resolved
    logger = logging.getLogger(ROOT_LOGGER)
    logger.setLevel(level)
    logger.propagate = False
    for handler in list(logger.handlers):
        if getattr(handler, _HANDLER_TAG, False):
            logger.removeHandler(handler)
    handler = logging.StreamHandler(
        stream if stream is not None else _CurrentStderr()
    )
    handler.setFormatter(JsonFormatter() if fmt == "json" else TextFormatter())
    setattr(handler, _HANDLER_TAG, True)
    logger.addHandler(handler)
    return logger


def _ensure_default_handler() -> None:
    """Attach the default text handler if nothing configured it yet, so
    library warnings surface even outside the CLI — without clobbering
    an explicit :func:`configure_logging` call."""
    logger = logging.getLogger(ROOT_LOGGER)
    if not logger.handlers:
        configure_logging("warning")


# Stamp a wall-clock helper modules can share for log payloads.
now = time.time
