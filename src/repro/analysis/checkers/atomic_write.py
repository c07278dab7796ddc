"""Atomic-write discipline for durable catalog files.

The store's crash-safety story rests on two write shapes: *atomic
replace* (write a temp file, ``os.replace`` over the target — what
``LocalFSBackend.write_bytes`` does) and *atomic append* (``O_APPEND``
single-write — ``LocalFSBackend.append_bytes``).  Durable files —
manifests and their delta logs, snapshots, lease files and the lease
sequence counter — must only ever be produced by one of those shapes;
a plain ``open(path, "w")`` can tear on crash and leave a reader with
half a manifest.

This checker flags direct writes to paths whose expression mentions a
durable-file name.  The temp-file side of the replace idiom never
matches (temp names derive from ``mkstemp``/``.tmp`` suffixes), and
``os.open`` with ``O_APPEND`` in its flags is the sanctioned append
shape.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from repro.analysis.core import (
    Checker,
    FileContext,
    Finding,
    register,
    terminal_name,
)

#: Substrings identifying durable catalog files.  Matching is on the
#: *source text* of the path argument, so both literals
#: (``"manifest.json"``) and helper calls (``self._manifest_path()``)
#: are caught.
DURABLE_MARKERS = (
    "manifest",
    "snapshot",
    ".seq",
    "lease",
)

_WRITE_METHODS = {"write_text", "write_bytes"}


@register
class AtomicWriteChecker(Checker):
    name = "atomic-write"
    description = (
        "direct (non-atomic) writes to durable files "
        "(manifest/snapshot/lease paths) — use "
        "the write-then-rename or O_APPEND helpers"
    )

    def check_file(self, ctx: FileContext) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            message = self._violation(ctx, node)
            if message is not None:
                findings.append(ctx.finding(self.name, node, message))
        return findings

    def _violation(
        self, ctx: FileContext, node: ast.Call
    ) -> Optional[str]:
        func = node.func
        # open(path, "w"/"a") on a durable path.
        if isinstance(func, ast.Name) and func.id == "open":
            if not node.args:
                return None
            mode = self._mode(node)
            if mode is None or not any(c in mode for c in "wa+x"):
                return None
            marker = self._durable_marker(ctx, node.args[0])
            if marker is not None:
                return (
                    f"non-atomic open(..., {mode!r}) on durable "
                    f"{marker!r} path; write a temp file and "
                    "os.replace() it (or use the backend helpers)"
                )
            return None
        attr = terminal_name(func)
        # os.open(path, flags) without O_APPEND on a durable path.
        if (
            isinstance(func, ast.Attribute)
            and attr == "open"
            and isinstance(func.value, ast.Name)
            and func.value.id == "os"
        ):
            if len(node.args) < 2:
                return None
            flags_src = ctx.segment(node.args[1])
            if "O_APPEND" in flags_src or "O_RDONLY" in flags_src:
                return None
            marker = self._durable_marker(ctx, node.args[0])
            if marker is not None:
                return (
                    f"os.open() without O_APPEND on durable {marker!r} "
                    "path; durable files take atomic replace or atomic "
                    "append only"
                )
            return None
        # Path(...).write_text / write_bytes on a durable path.
        if attr in _WRITE_METHODS and isinstance(func, ast.Attribute):
            marker = self._durable_marker(ctx, func.value)
            if marker is not None:
                return (
                    f".{attr}() on durable {marker!r} path is not "
                    "atomic; write a temp file and os.replace() it"
                )
        return None

    @staticmethod
    def _mode(node: ast.Call) -> Optional[str]:
        if len(node.args) >= 2:
            mode = node.args[1]
        else:
            mode = next(
                (
                    kw.value
                    for kw in node.keywords
                    if kw.arg == "mode"
                ),
                None,
            )
        if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
            return mode.value
        if mode is None:
            return "r"  # default mode: read-only, never flagged
        return None  # dynamic mode expression: give it the benefit

    @staticmethod
    def _durable_marker(ctx: FileContext, node: ast.AST) -> Optional[str]:
        text = ctx.segment(node).lower()
        if not text or ".tmp" in text or "mkstemp" in text:
            return None
        for marker in DURABLE_MARKERS:
            if marker in text:
                return marker
        return None
