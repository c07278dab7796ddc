"""Lock-discipline checker: lock-order inversions and bare ``acquire``.

Builds an inter-procedural lock-acquisition graph from ``with``
statements over the repo's known lock objects (see
:mod:`tools.reprolint.checkers._locks`).  Nodes are ``(owner, lock)``
pairs — the class (or module) whose attribute the lock is — and an edge
``A → B`` means "somewhere, B is acquired while A is held", either
directly (nested ``with``) or transitively through a call to a method
of the same class / function of the same module.  Two locks reachable
from each other can deadlock under the right interleaving; every edge
that closes such a cycle is reported with the witness edge for the
opposite direction.

Separately, per file, it flags bare ``<lock>.acquire()`` calls that are
not paired with a ``finally: <lock>.release()`` — an exception between
acquire and release leaks the lock forever.  Guard-object internals
(``__enter__``/``__exit__``/``acquire``/``release`` methods, classes
named like locks) are exempt: implementing a lock requires touching the
primitive.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from tools.reprolint.checkers._locks import classify_with_item, is_lock_expr
from tools.reprolint.core import (
    Checker,
    FileContext,
    Finding,
    stmt_bodies,
    terminal_name,
)

_GUARD_CLASS_MARKERS = ("Lock", "Mutex", "Guard", "Gate", "Semaphore")
_GUARD_METHODS = {
    "__enter__",
    "__exit__",
    "acquire",
    "release",
    "_acquire",
    "_release",
    "locked",
}


@dataclass
class _FuncScan:
    """Lock-relevant facts about one function."""

    key: Tuple[str, str, str]  # (module, class or "", func name)
    rel: str = ""  # repo-relative path of the defining file
    acquired: Set[str] = field(default_factory=set)
    #: (held lock, acquired lock, line) for nested with-statements.
    edges: List[Tuple[str, str, int]] = field(default_factory=list)
    #: Callee names invoked as ``self.m()`` / ``m()``.
    calls: Set[str] = field(default_factory=set)
    #: (callee, held locks, line) for calls made while holding a lock.
    calls_held: List[Tuple[str, Tuple[str, ...], int]] = field(
        default_factory=list
    )


def _scan_function(
    module: str, class_name: str, func: ast.AST
) -> _FuncScan:
    scan = _FuncScan(key=(module, class_name, func.name))

    def visit_expr(node: ast.AST, held: List[str]) -> None:
        for call in (
            n for n in ast.walk(node) if isinstance(n, ast.Call)
        ):
            callee = None
            if isinstance(call.func, ast.Name):
                callee = call.func.id
            elif isinstance(call.func, ast.Attribute) and isinstance(
                call.func.value, ast.Name
            ):
                if call.func.value.id in {"self", "cls"}:
                    callee = call.func.attr
            if callee is None:
                continue
            scan.calls.add(callee)
            if held:
                scan.calls_held.append(
                    (callee, tuple(held), call.lineno)
                )

    def visit_stmts(stmts: List[ast.stmt], held: List[str]) -> None:
        for stmt in stmts:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                # Nested definitions run on their own schedule; they
                # are scanned as separate functions by the caller.
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                acquired_here = []
                for item in stmt.items:
                    ref = classify_with_item(item)
                    visit_expr(item.context_expr, held)
                    if ref is None:
                        continue
                    scan.acquired.add(ref.name)
                    for holder in held:
                        if holder != ref.name:
                            scan.edges.append(
                                (holder, ref.name, stmt.lineno)
                            )
                    acquired_here.append(ref.name)
                held.extend(acquired_here)
                visit_stmts(stmt.body, held)
                if acquired_here:
                    del held[-len(acquired_here):]
                continue
            for expr in _stmt_exprs(stmt):
                visit_expr(expr, held)
            for body in stmt_bodies(stmt):
                visit_stmts(body, held)

    visit_stmts(func.body, [])
    return scan


def _stmt_exprs(stmt: ast.stmt) -> List[ast.AST]:
    """Expression children of ``stmt`` itself (not its nested bodies)."""
    out = []
    for fname, value in ast.iter_fields(stmt):
        if fname in {
            "body",
            "orelse",
            "finalbody",
            "handlers",
            "cases",
            "items",
        }:
            continue
        if isinstance(value, ast.expr):
            out.append(value)
        elif isinstance(value, list):
            out.extend(v for v in value if isinstance(v, ast.expr))
    return out


def _iter_functions(tree: ast.AST):
    """Yield ``(class_name, func_node)`` for every function in a
    module, including methods and (named) nested functions."""

    def walk(nodes, class_name):
        for node in nodes:
            if isinstance(node, ast.ClassDef):
                yield from walk(node.body, node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield class_name, node
                # Nested defs (done-callbacks and friends) keep the
                # enclosing class so self-calls still resolve.
                yield from walk(node.body, class_name)

    yield from walk(tree.body, "")


class LockDisciplineChecker(Checker):
    name = "lock-discipline"
    description = (
        "lock-order inversions in the inter-procedural acquisition "
        "graph, and bare .acquire() without try/finally release"
    )

    # ------------------------------------------------------------------
    # Per-file: bare .acquire() without a paired release
    # ------------------------------------------------------------------
    def check_file(self, ctx: FileContext) -> List[Finding]:
        findings: List[Finding] = []

        def visit(
            stmts: List[ast.stmt],
            class_name: str,
            func_name: str,
            protected: Set[str],
        ) -> None:
            for index, stmt in enumerate(stmts):
                if isinstance(stmt, ast.ClassDef):
                    visit(stmt.body, stmt.name, func_name, set())
                    continue
                if isinstance(
                    stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    visit(stmt.body, class_name, stmt.name, set())
                    continue
                next_releases: Set[str] = set()
                if index + 1 < len(stmts):
                    next_releases = _released_in_finally(stmts[index + 1])
                for call in (
                    n
                    for n in ast.walk(stmt)
                    if isinstance(n, ast.Call)
                    and isinstance(n.func, ast.Attribute)
                    and n.func.attr == "acquire"
                    and is_lock_expr(n.func.value)
                ):
                    lock = terminal_name(call.func.value) or "<lock>"
                    if _is_guard_internals(class_name, func_name):
                        continue
                    if lock in protected or lock in next_releases:
                        continue
                    findings.append(
                        ctx.finding(
                            self.name,
                            call,
                            f"bare {lock}.acquire() without a paired "
                            "finally-release; use 'with "
                            f"{lock}:' (an exception here leaks the "
                            "lock)",
                        )
                    )
                if isinstance(stmt, ast.Try):
                    inner = protected | _released_in_finally(stmt)
                    visit(stmt.body, class_name, func_name, inner)
                    for handler in stmt.handlers:
                        visit(
                            handler.body, class_name, func_name, protected
                        )
                    visit(stmt.orelse, class_name, func_name, protected)
                    visit(stmt.finalbody, class_name, func_name, protected)
                else:
                    for body in stmt_bodies(stmt):
                        visit(body, class_name, func_name, protected)

        visit(ctx.tree.body, "", "", set())
        return findings

    # ------------------------------------------------------------------
    # Project-level: the acquisition graph and its cycles
    # ------------------------------------------------------------------
    def finish(self, files: List[FileContext]) -> List[Finding]:
        scans: Dict[Tuple[str, str, str], _FuncScan] = {}
        for ctx in files:
            for class_name, func in _iter_functions(ctx.tree):
                scan = _scan_function(ctx.module, class_name, func)
                # Re-defined names (overloads across branches) merge.
                existing = scans.get(scan.key)
                if existing is None:
                    scans[scan.key] = scan
                    scan.rel = ctx.rel
                else:
                    existing.acquired |= scan.acquired
                    existing.edges += scan.edges
                    existing.calls |= scan.calls
                    existing.calls_held += scan.calls_held

        def resolve(
            module: str, class_name: str, callee: str
        ) -> Optional[_FuncScan]:
            if class_name:
                hit = scans.get((module, class_name, callee))
                if hit is not None:
                    return hit
            return scans.get((module, "", callee))

        # Fixpoint: locks acquired anywhere beneath each function.
        closure: Dict[Tuple[str, str, str], Set[str]] = {
            key: set(scan.acquired) for key, scan in scans.items()
        }
        changed = True
        while changed:
            changed = False
            for key, scan in scans.items():
                module, class_name, _ = key
                for callee in scan.calls:
                    target = resolve(module, class_name, callee)
                    if target is None:
                        continue
                    before = len(closure[key])
                    closure[key] |= closure[target.key]
                    if len(closure[key]) != before:
                        changed = True

        # Edge set over (owner, lock) nodes with provenance.
        edges: Dict[Tuple[str, str], List[Tuple[str, int, str]]] = {}

        def owner_of(key: Tuple[str, str, str]) -> str:
            module, class_name, _ = key
            return f"{module}.{class_name}" if class_name else module

        for key, scan in scans.items():
            owner = owner_of(key)
            rel = getattr(scan, "rel", "")
            for held, acquired, line in scan.edges:
                edges.setdefault(
                    (f"{owner}:{held}", f"{owner}:{acquired}"), []
                ).append((rel, line, "nested with"))
            module, class_name, _ = key
            for callee, held_locks, line in scan.calls_held:
                target = resolve(module, class_name, callee)
                if target is None:
                    continue
                for acquired in closure[target.key]:
                    for held in held_locks:
                        if held == acquired:
                            continue
                        edges.setdefault(
                            (f"{owner}:{held}", f"{owner}:{acquired}"),
                            [],
                        ).append((rel, line, f"via call to {callee}()"))

        adjacency: Dict[str, Set[str]] = {}
        for (src, dst) in edges:
            adjacency.setdefault(src, set()).add(dst)

        def reaches(start: str, goal: str) -> bool:
            seen = set()
            stack = [start]
            while stack:
                node = stack.pop()
                if node == goal:
                    return True
                if node in seen:
                    continue
                seen.add(node)
                stack.extend(adjacency.get(node, ()))
            return False

        findings: List[Finding] = []
        reported: Set[FrozenSet[str]] = set()
        for (src, dst), sites in sorted(edges.items()):
            if src == dst or frozenset((src, dst)) in reported:
                continue
            if not reaches(dst, src):
                continue
            reported.add(frozenset((src, dst)))
            witness = self._witness(edges, adjacency, dst, src)
            rel, line, how = sites[0]
            findings.append(
                Finding(
                    check=self.name,
                    path=rel,
                    line=line,
                    col=0,
                    message=(
                        f"lock-order inversion: {dst.split(':')[1]!r} "
                        f"acquired while holding "
                        f"{src.split(':')[1]!r} ({how}), but the "
                        f"opposite order exists at {witness}"
                    ),
                )
            )
        return findings

    @staticmethod
    def _witness(edges, adjacency, start: str, goal: str) -> str:
        """A concrete site on some ``start → … → goal`` path."""
        direct = edges.get((start, goal))
        if direct:
            rel, line, how = direct[0]
            return f"{rel}:{line} ({how})"
        for middle in sorted(adjacency.get(start, ())):
            hop = edges.get((start, middle))
            if hop:
                rel, line, how = hop[0]
                return f"{rel}:{line} ({how}, transitively)"
        return "<unknown>"


def _released_in_finally(stmt: ast.stmt) -> Set[str]:
    """Lock names released in ``stmt``'s ``finally`` block (empty when
    ``stmt`` is not a try/finally)."""
    if not isinstance(stmt, ast.Try):
        return set()
    released: Set[str] = set()
    for node in stmt.finalbody:
        for call in (
            n
            for n in ast.walk(node)
            if isinstance(n, ast.Call)
            and isinstance(n.func, ast.Attribute)
            and n.func.attr == "release"
        ):
            name = terminal_name(call.func.value)
            if name is not None:
                released.add(name)
    return released


def _is_guard_internals(class_name: str, func_name: str) -> bool:
    if func_name in _GUARD_METHODS:
        return True
    return any(marker in class_name for marker in _GUARD_CLASS_MARKERS)
