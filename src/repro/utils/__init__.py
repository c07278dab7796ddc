"""Shared utilities: deterministic RNG handling, statistics, text helpers."""

from repro.utils.lru import LruDict
from repro.utils.rng import ensure_rng, spawn_rng
from repro.utils.stats import (
    pearson,
    spearman,
    mutual_information,
    fisher_z_pvalue,
    partial_correlation,
)
from repro.utils.text import tokenize, normalize_token
from repro.utils.validation import (
    check_fraction,
    check_positive,
    check_non_negative,
    check_in_choices,
)

__all__ = [
    "LruDict",
    "ensure_rng",
    "spawn_rng",
    "pearson",
    "spearman",
    "mutual_information",
    "fisher_z_pvalue",
    "partial_correlation",
    "tokenize",
    "normalize_token",
    "check_fraction",
    "check_positive",
    "check_non_negative",
    "check_in_choices",
]
