"""Structured logging: formatters, ambient context, idempotent config."""

import io
import json
import logging

import pytest

from repro.obs.logcfg import (
    ROOT_LOGGER,
    configure_logging,
    context_fields,
    get_logger,
    log_context,
)


@pytest.fixture(autouse=True)
def _restore_logging():
    yield
    # Leave the suite's default behind, whatever a test configured.
    configure_logging("warning")


def _capture(level="debug", fmt="text") -> io.StringIO:
    stream = io.StringIO()
    configure_logging(level, stream=stream, fmt=fmt)
    return stream


class TestConfigure:
    def test_idempotent_no_duplicate_handlers(self):
        configure_logging("info")
        configure_logging("debug")
        configure_logging("warning")
        logger = logging.getLogger(ROOT_LOGGER)
        assert len(logger.handlers) == 1
        assert logger.propagate is False

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            configure_logging("loud")

    def test_level_threshold_applies(self):
        stream = _capture(level="warning")
        log = get_logger("threshold")
        log.debug("hidden")
        log.warning("shown")
        out = stream.getvalue()
        assert "hidden" not in out
        assert "warning: shown" in out


class TestTextFormat:
    def test_level_message_shape(self):
        stream = _capture()
        get_logger("shape").error("something broke")
        assert stream.getvalue().startswith("error: something broke")

    def test_fields_rendered_as_suffix(self):
        stream = _capture()
        get_logger("shape").info("served", run_id=3, tier="memory")
        assert "info: served [run_id=3 tier=memory]" in stream.getvalue()


class TestJsonFormat:
    def test_one_object_per_line(self):
        stream = _capture(fmt="json")
        log = get_logger("jsonfmt")
        log.info("first", a=1)
        log.warning("second")
        lines = stream.getvalue().strip().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["msg"] == "first"
        assert first["level"] == "info"
        assert first["a"] == 1
        assert first["logger"] == "repro.jsonfmt"
        assert "ts" in first

    def test_exception_payload(self):
        stream = _capture(fmt="json")
        try:
            raise RuntimeError("kaboom")
        except RuntimeError:
            logging.getLogger("repro.jsonfmt").exception("failed")
        payload = json.loads(stream.getvalue().strip())
        assert "kaboom" in payload["exc"]

    def test_non_serializable_fields_stringified(self):
        stream = _capture(fmt="json")
        get_logger("jsonfmt").info("odd", obj=object())
        payload = json.loads(stream.getvalue().strip())
        assert "object object" in payload["obj"]


class TestContext:
    def test_ambient_fields_merge(self):
        stream = _capture(fmt="json")
        log = get_logger("ctx")
        with log_context(run_id=9, searcher="metam"):
            log.info("inside")
        log.info("outside")
        inside, outside = (
            json.loads(line) for line in stream.getvalue().strip().splitlines()
        )
        assert inside["run_id"] == 9 and inside["searcher"] == "metam"
        assert "run_id" not in outside

    def test_explicit_fields_win_over_ambient(self):
        with log_context(tier="memory"):
            stream = _capture(fmt="json")
            get_logger("ctx").info("hit", tier="store")
        assert json.loads(stream.getvalue().strip())["tier"] == "store"

    def test_nested_contexts_stack_and_unwind(self):
        with log_context(a=1):
            with log_context(b=2):
                assert context_fields() == {"a": 1, "b": 2}
            assert context_fields() == {"a": 1}
        assert context_fields() == {}


class TestLoggerNames:
    def test_names_are_rooted(self):
        assert get_logger("x")._logger.name == "repro.x"
        assert get_logger("repro.api.engine")._logger.name == "repro.api.engine"
