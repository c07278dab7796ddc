"""Join-path enumeration: breadth-first over the index's joinable columns."""

from __future__ import annotations

from repro.dataframe.table import Table
from repro.discovery.index import DiscoveryIndex
from repro.discovery.join_path import JoinPath, JoinStep


def enumerate_join_paths(
    base: Table,
    index: DiscoveryIndex,
    max_hops: int = 2,
    max_fanout: int = 50,
) -> list:
    """All join paths from ``base`` up to ``max_hops`` hops, best-first
    per hop.

    Hop 1 joins a base column with a repository column; hop ``h+1`` joins a
    column of the hop-``h`` table with a further table.  ``max_fanout``
    bounds the candidates explored per (table, column) to keep enumeration
    linear in practice.
    """
    if max_hops < 1:
        raise ValueError(f"max_hops must be >= 1, got {max_hops}")
    tables = index.tables
    paths = []
    frontier = []

    for column in base.column_names:
        for ref, _score in index.joinable(base, column, exclude_table=base.name)[
            :max_fanout
        ]:
            path = JoinPath((JoinStep(column, ref.table, ref.column),))
            paths.append(path)
            frontier.append(path)

    for _hop in range(1, max_hops):
        next_frontier = []
        for path in frontier:
            current = tables[path.final_table]
            visited = {base.name} | {s.right_table for s in path.steps}
            for column in current.column_names:
                if column == path.steps[-1].right_column:
                    continue
                for ref, _score in index.joinable(
                    current, column, exclude_table=current.name
                )[:max_fanout]:
                    if ref.table in visited:
                        continue
                    extended = JoinPath(
                        path.steps + (JoinStep(column, ref.table, ref.column),)
                    )
                    paths.append(extended)
                    next_frontier.append(extended)
        frontier = next_frontier
    return paths
