"""Metrics-hygiene checker.

Three drift modes the telemetry layer (PR 6) cannot catch at runtime
without being exercised on exactly the right path:

* **Conflicting family registration** — ``registry.counter/gauge/
  histogram("name", ...)`` is get-or-create, so two registrations of
  one family name with different kinds or label schemas only explode
  when both run in one process.  This checker compares every literal
  registration across the whole source tree.
* **Unbounded label values** — an f-string / ``str(...)`` /
  string-concatenation label value injects request-scoped data into a
  label, blowing up time-series cardinality (the registry clamps to
  ``_other_`` at runtime, silently losing the signal).  ``**kwargs``
  label expansion hides the schema entirely.
* **print() drift** — the ruff ``T20`` ban covers committed code, but
  reprolint re-checks so the invariant also holds when ruff is not
  installed (and in files ruff is configured to skip).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Tuple

from tools.reprolint.core import (
    Checker,
    FileContext,
    Finding,
    terminal_name,
)

_FAMILY_KINDS = {"counter", "gauge", "histogram"}

#: Modules where print() is the UI, mirroring ruff's per-file-ignores.
_PRINT_ALLOWED_MODULES = {"repro.cli"}


def _registrations(
    ctx: FileContext,
) -> List[Tuple[str, str, Optional[Tuple[str, ...]], ast.Call]]:
    """``(family name, kind, labels or None-if-dynamic, node)`` for
    every literal metric-family registration in the file."""
    out = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        kind = terminal_name(node.func)
        if kind not in _FAMILY_KINDS or not isinstance(
            node.func, ast.Attribute
        ):
            continue
        if not node.args:
            continue
        first = node.args[0]
        if not (
            isinstance(first, ast.Constant) and isinstance(first.value, str)
        ):
            continue
        labels: Optional[Tuple[str, ...]] = ()
        label_node = None
        if len(node.args) >= 3:
            label_node = node.args[2]
        for kw in node.keywords:
            if kw.arg == "labels":
                label_node = kw.value
        if label_node is not None:
            labels = _literal_str_tuple(label_node)
        out.append((first.value, kind, labels, node))
    return out


def _literal_str_tuple(node: ast.AST) -> Optional[Tuple[str, ...]]:
    if isinstance(node, (ast.Tuple, ast.List)):
        values = []
        for element in node.elts:
            if isinstance(element, ast.Constant) and isinstance(
                element.value, str
            ):
                values.append(element.value)
            else:
                return None
        return tuple(values)
    return None


class MetricsHygieneChecker(Checker):
    name = "metrics-hygiene"
    description = (
        "conflicting metric-family registrations, unbounded label "
        "values, and print() drift outside the CLI"
    )

    def check_file(self, ctx: FileContext) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            # print() drift (only inside the repro package; fixture and
            # script trees keep their own rules via ruff).
            if (
                isinstance(node.func, ast.Name)
                and node.func.id == "print"
                and ctx.module.startswith("repro")
                and ctx.module not in _PRINT_ALLOWED_MODULES
            ):
                findings.append(
                    ctx.finding(
                        self.name,
                        node,
                        "print() in library code; use the structured "
                        "logger (repro.obs.logcfg) instead",
                    )
                )
            # Unbounded label values.
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "labels"
            ):
                for kw in node.keywords:
                    if kw.arg is None:
                        findings.append(
                            ctx.finding(
                                self.name,
                                node,
                                ".labels(**...) hides the label "
                                "schema; pass each label explicitly",
                            )
                        )
                        continue
                    reason = _unbounded_reason(kw.value)
                    if reason is not None:
                        findings.append(
                            ctx.finding(
                                self.name,
                                node,
                                f"label {kw.arg!r} gets {reason} — an "
                                "unbounded value; label values must "
                                "come from a small fixed set",
                            )
                        )
        return findings

    def finish(self, files: List[FileContext]) -> List[Finding]:
        seen: Dict[
            str, Tuple[str, Optional[Tuple[str, ...]], str, int]
        ] = {}
        findings: List[Finding] = []
        for ctx in sorted(files, key=lambda c: c.rel):
            for name, kind, labels, node in _registrations(ctx):
                previous = seen.get(name)
                if previous is None:
                    seen[name] = (kind, labels, ctx.rel, node.lineno)
                    continue
                prev_kind, prev_labels, prev_rel, prev_line = previous
                if kind != prev_kind:
                    findings.append(
                        ctx.finding(
                            self.name,
                            node,
                            f"metric family {name!r} registered as "
                            f"{kind} here but as {prev_kind} at "
                            f"{prev_rel}:{prev_line}",
                        )
                    )
                elif (
                    labels is not None
                    and prev_labels is not None
                    and labels != prev_labels
                ):
                    findings.append(
                        ctx.finding(
                            self.name,
                            node,
                            f"metric family {name!r} registered with "
                            f"labels {labels!r} here but "
                            f"{prev_labels!r} at {prev_rel}:{prev_line}",
                        )
                    )
        return findings


def _unbounded_reason(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.JoinedStr):
        return "an f-string"
    if isinstance(node, ast.BinOp):
        return "a string-concatenation expression"
    if isinstance(node, ast.Call):
        name = terminal_name(node.func)
        if name in {"str", "repr", "format"}:
            return f"a {name}() conversion"
    return None
