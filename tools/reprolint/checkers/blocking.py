"""Blocking-under-lock checker.

Flags blocking work — file I/O, subprocesses, sleeps, sockets, and the
project's own I/O seams (``backend.*`` VFS methods, ``leases.*``
lease-file operations) — performed while an **in-process mutex** is
held.  Every thread contending on that mutex stalls for the duration
of the I/O, which is exactly the latency cliff the engine's
short-critical-section design avoids.

Cross-process critical-section locks (``_dir_lock(...)``,
``root_lock()``) and single-flight slots (``single_flight(key)``, held
while a cache owner builds its value) exist to serialize I/O or a
build, and are never flagged.  Holding an in-process lock across blocking
work needs an inline ``# reprolint: disable=blocking-under-lock`` with
a justification, or a fix that moves the work outside the critical
section.
"""

from __future__ import annotations

import ast
from typing import List

from tools.reprolint.checkers._locks import blocking_reason, classify_with_item
from tools.reprolint.core import Checker, FileContext, Finding, stmt_bodies


class BlockingUnderLockChecker(Checker):
    name = "blocking-under-lock"
    description = (
        "file/subprocess/sleep/network or store-VFS calls while an "
        "in-process mutex is held"
    )

    def check_file(self, ctx: FileContext) -> List[Finding]:
        findings: List[Finding] = []

        def visit_stmts(stmts: List[ast.stmt], held: List[str]) -> None:
            for stmt in stmts:
                if isinstance(
                    stmt,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                ):
                    # A nested def's body runs later, not under the
                    # locks currently held at its definition site.
                    visit_stmts(stmt.body, [])
                    continue
                if isinstance(stmt, (ast.With, ast.AsyncWith)):
                    acquired = []
                    for item in stmt.items:
                        check_calls(item.context_expr, held, stmt)
                        ref = classify_with_item(item)
                        if ref is not None and ref.in_process:
                            acquired.append(ref.name)
                    held.extend(acquired)
                    visit_stmts(stmt.body, held)
                    if acquired:
                        del held[-len(acquired):]
                    continue
                check_calls(stmt, held, stmt)
                for body in stmt_bodies(stmt):
                    visit_stmts(body, held)

        def check_calls(
            node: ast.AST, held: List[str], stmt: ast.stmt
        ) -> None:
            if not held:
                return
            for call in (
                n
                for n in _walk_shallow(node)
                if isinstance(n, ast.Call)
            ):
                reason = blocking_reason(call)
                if reason is None:
                    continue
                findings.append(
                    ctx.finding(
                        self.name,
                        call,
                        f"blocking call {reason} while holding "
                        f"in-process lock {held[-1]!r}; move the work "
                        "outside the critical section",
                    )
                )

        def _walk_shallow(node: ast.AST):
            """ast.walk that does not descend into nested defs or
            with-bodies (those are visited with their own held-stack)."""
            stack = [node]
            while stack:
                current = stack.pop()
                yield current
                for child in ast.iter_child_nodes(current):
                    if isinstance(
                        child,
                        (
                            ast.FunctionDef,
                            ast.AsyncFunctionDef,
                            ast.ClassDef,
                            ast.With,
                            ast.AsyncWith,
                        ),
                    ):
                        continue
                    if isinstance(child, ast.stmt):
                        continue
                    stack.append(child)

        visit_stmts(ctx.tree.body, [])
        return findings
