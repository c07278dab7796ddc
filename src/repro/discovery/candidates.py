"""Candidate generation, materialization, and profiling.

``GENERATE-CANDIDATES`` (Algorithm 1, line 1) plus ``EVALUATE-PROFILE``
(line 2): enumerate join paths, expand each into per-column augmentations,
materialize them against ``Din``, and attach profile vectors.  The
resulting list of :class:`Candidate` objects is the shared input of METAM
and of all baselines — every searcher sees the same candidate set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dataframe.table import Table
from repro.discovery.index import DiscoveryIndex
from repro.discovery.join_graph import enumerate_join_paths
from repro.discovery.join_path import Augmentation
from repro.profiles.base import ProfileContext
from repro.profiles.registry import ProfileRegistry


@dataclass
class Candidate:
    """A materialized augmentation with its profile vector."""

    aug: object
    values: list = field(repr=False)
    overlap: float = 0.0
    profile_vector: np.ndarray = None

    @property
    def aug_id(self) -> str:
        return self.aug.aug_id


def generate_candidates(
    base: Table,
    index: DiscoveryIndex,
    max_hops: int = 1,
    max_fanout: int = 50,
    max_candidates=None,
) -> list:
    """Enumerate augmentations: one per (join path, projected column)."""
    augmentations = []
    tables = index.tables
    for path in enumerate_join_paths(base, index, max_hops=max_hops, max_fanout=max_fanout):
        final = tables[path.final_table]
        key_column = path.steps[-1].right_column
        for column in final.column_names:
            if column == key_column:
                continue
            augmentations.append(Augmentation(path, column))
            if max_candidates is not None and len(augmentations) >= max_candidates:
                return augmentations
    return augmentations


def materialize_candidates(
    base: Table,
    augmentations,
    corpus: dict,
    min_overlap: float = 0.0,
) -> list:
    """Materialize each augmentation against ``Din``; drop empty columns.

    ``min_overlap`` filters augmentations that match too few rows to ever
    matter (0 keeps everything that matches at least one row).
    """
    candidates = []
    for aug in augmentations:
        values = aug.materialize(base, corpus)
        overlap = aug.overlap_fraction(base, corpus)
        if not overlap or overlap < min_overlap:
            continue
        candidates.append(Candidate(aug=aug, values=values, overlap=overlap))
    return candidates


def profile_candidates(
    candidates,
    base: Table,
    corpus: dict,
    registry: ProfileRegistry,
    sample_size: int = 100,
    seed: int = 0,
    cache=None,
) -> list:
    """Attach a profile vector to every candidate (in place; returns list).

    ``cache`` (a :class:`repro.catalog.ProfileCache`) short-circuits
    computation for candidates profiled in a previous run: vectors derive
    deterministically from the base table plus the join-path tables, so a
    fingerprint-keyed hit is exact, not approximate.  Newly computed
    vectors are written back and flushed at the end.
    """
    # One pass shares base/sample state: every context below has the
    # same base, sample_size, and seed, so sampled base arrays are
    # computed once, not once per candidate.
    shared_cache = {}
    try:
        for candidate in candidates:
            if cache is not None:
                cached = cache.get(candidate)
                if cached is not None:
                    candidate.profile_vector = cached
                    continue
            context = ProfileContext(
                base=base,
                column_name=candidate.aug_id,
                column_values=candidate.values,
                candidate_table=corpus[candidate.aug.final_table],
                overlap_fraction=candidate.overlap,
                sample_size=sample_size,
                seed=seed,
                shared_cache=shared_cache,
            )
            candidate.profile_vector = registry.compute_vector(context)
            if cache is not None:
                cache.put(candidate, candidate.profile_vector)
    finally:
        # Persist whatever was computed even if a late candidate failed —
        # the finished vectors are valid and save the next run the work.
        if cache is not None:
            cache.flush()
    return candidates
