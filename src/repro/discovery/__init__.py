"""Data discovery substrate (Aurum substitute, §II-C).

Builds an approximate join-path index over a repository of noisy tables:
MinHash signatures + LSH banding find joinable column pairs, a join graph
enumerates (multi-hop) join paths, and candidate generation materializes
one :class:`Augmentation` per projected column (Definition 4).  Union
search ([15] substitute) provides row-addition candidates for Fig. 4b.
"""

from repro.discovery.minhash import MinHasher
from repro.discovery.lsh import LshIndex
from repro.discovery.index import DiscoveryIndex, ColumnRef
from repro.discovery.join_path import JoinStep, JoinPath, Augmentation, UnionAugmentation
from repro.discovery.join_graph import enumerate_join_paths
from repro.discovery.candidates import (
    Candidate,
    generate_candidates,
    materialize_candidates,
    profile_candidates,
)
from repro.discovery.unions import find_union_candidates

__all__ = [
    "MinHasher",
    "LshIndex",
    "DiscoveryIndex",
    "ColumnRef",
    "JoinStep",
    "JoinPath",
    "Augmentation",
    "UnionAugmentation",
    "enumerate_join_paths",
    "Candidate",
    "generate_candidates",
    "materialize_candidates",
    "profile_candidates",
    "find_union_candidates",
]
