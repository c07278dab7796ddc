"""The profile arithmetic before it was batched: the oracle for
``tests/profiles/test_profile_diff.py``.

``_clean_pair``, ``pearson``, ``mutual_information``,
``_equal_frequency_bins`` and ``TokenEmbedder`` are the earlier
``repro.utils.stats`` / ``repro.profiles.embedding`` code, verbatim:
per-token ``np.random.default_rng`` seeding, ``np.unique`` plus
``np.quantile`` bins, an ``np.add.at`` joint histogram and the
``np.std``/``np.mean`` Pearson (which still keeps ±inf rows; the
differential drops them before calling it).  ``ReferenceRegistry``
computes the paper's five default profiles with them, including the old
per-candidate column listing, whole-column coercion and clipping.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from repro.dataframe.table import Table
from repro.dataframe.types import ColumnType, to_float_array
from repro.profiles.base import Profile, ProfileContext
from repro.profiles.embedding import EmbeddingSimilarityProfile
from repro.profiles.metadata import MetadataProfile
from repro.profiles.overlap import OverlapProfile
from repro.profiles.registry import ProfileRegistry
from repro.utils.text import tokenize


def _clean_pair(x, y):
    """Drop rows where either value is NaN; return float arrays."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    mask = ~(np.isnan(x) | np.isnan(y))
    return x[mask], y[mask]


def pearson(x, y) -> float:
    """Pearson correlation in [-1, 1]; 0.0 for degenerate inputs."""
    x, y = _clean_pair(x, y)
    if x.size < 2:
        return 0.0
    sx = x.std()
    sy = y.std()
    if sx == 0.0 or sy == 0.0:
        return 0.0
    r = float(np.mean((x - x.mean()) * (y - y.mean())) / (sx * sy))
    return max(-1.0, min(1.0, r))


def mutual_information(x, y, bins: int = 8, x_bins_cache: dict = None) -> float:
    """Histogram mutual information estimate (nats), >= 0.

    Continuous inputs are discretized into equal-frequency bins, which is
    robust to skewed open-data distributions.  Returns 0 for degenerate
    inputs.  A caller scoring many ``y`` against one ``x`` can pass a
    dict as ``x_bins_cache``: x's bins depend only on which rows survive
    the NaN filter, so calls dropping the same rows share them.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    mask = ~(np.isnan(x) | np.isnan(y))
    x, y = x[mask], y[mask]
    if x.size < 4:
        return 0.0
    if x_bins_cache is None:
        xb = _equal_frequency_bins(x, bins)
    else:
        key = (bins, mask.tobytes())
        xb = x_bins_cache.get(key)
        if xb is None:
            xb = x_bins_cache[key] = _equal_frequency_bins(x, bins)
    yb = _equal_frequency_bins(y, bins)
    joint = np.zeros((xb.max() + 1, yb.max() + 1), dtype=float)
    np.add.at(joint, (xb, yb), 1.0)
    joint /= joint.sum()
    px = joint.sum(axis=1, keepdims=True)
    py = joint.sum(axis=0, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(joint > 0, joint / (px * py), 1.0)
        mi = float(np.sum(np.where(joint > 0, joint * np.log(ratio), 0.0)))
    return max(0.0, mi)


def _equal_frequency_bins(values: np.ndarray, bins: int) -> np.ndarray:
    """Assign each value to an equal-frequency bin index."""
    if np.unique(values).size <= bins:
        # Already discrete enough: map each distinct value to its own bin.
        _, inverse = np.unique(values, return_inverse=True)
        return inverse
    quantiles = np.quantile(values, np.linspace(0, 1, bins + 1)[1:-1])
    return np.searchsorted(quantiles, values, side="right")


class TokenEmbedder:
    """Deterministic token embeddings with an embedding cache."""

    def __init__(self, dim: int = 32):
        if dim < 2:
            raise ValueError(f"dim must be >= 2, got {dim}")
        self.dim = dim
        self._cache = {}

    def embed_token(self, token: str) -> np.ndarray:
        """Unit-norm Gaussian vector derived from a stable token hash."""
        if token not in self._cache:
            digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
            seed = int.from_bytes(digest, "big")
            rng = np.random.default_rng(seed)
            vec = rng.standard_normal(self.dim)
            self._cache[token] = vec / np.linalg.norm(vec)
        return self._cache[token]

    def embed_tokens(self, tokens) -> np.ndarray:
        """Average of token embeddings; zero vector for no tokens."""
        tokens = list(tokens)
        if not tokens:
            return np.zeros(self.dim)
        return np.mean([self.embed_token(t) for t in tokens], axis=0)

    def embed_table(self, table: Table, max_cells: int = 50) -> np.ndarray:
        """Embed a table from its name, column names, and a slice of cells.

        Mirrors the paper's construction: the dataset embedding is the
        average of the embeddings of tokens present in the table.  The
        vector is kept (read-only) with the table, so a table that ends
        many join paths — or is the base of many — is embedded once.
        """

        def build():
            tokens = tokenize(table.name) + [
                t for c in table.column_names for t in tokenize(c)
            ]
            budget = max_cells
            for column in table.column_names:
                if budget <= 0:
                    break
                for cell in table.column(column)[: min(budget, 10)]:
                    tokens.extend(tokenize(cell))
                    budget -= 1
            vector = self.embed_tokens(tokens)
            vector.flags.writeable = False
            return vector

        return table.derived(("embedding", type(self), self.dim, max_cells), build)


# ----------------------------------------------------------------------
# The default profile set on the functions above
# ----------------------------------------------------------------------
def sampled_column(context: ProfileContext) -> np.ndarray:
    """The whole column coerced, then sampled (old ``sampled_column``)."""
    return to_float_array(context.column_values)[context.sample_indices()]


def comparable_base_columns(context: ProfileContext) -> list:
    """Listed afresh on every call (old ``comparable_base_columns``)."""
    columns = []
    for column in context.base.column_names:
        kind = context.base.column_type(column)
        if kind == ColumnType.NUMERIC or kind == ColumnType.CATEGORICAL:
            columns.append(column)
    return columns


class ReferenceCorrelation(Profile):
    name = "correlation"

    def compute(self, context: ProfileContext) -> float:
        aug = sampled_column(context)
        if np.all(np.isnan(aug)):
            return 0.0
        best = 0.0
        for column in comparable_base_columns(context):
            r = abs(pearson(context.sampled_base_encoded(column), aug))
            best = max(best, r)
        return self._clip(best)


class ReferenceMutualInformation(Profile):
    name = "mutual_information"

    def __init__(self, bins: int = 8):
        self.bins = bins

    def compute(self, context: ProfileContext) -> float:
        aug = sampled_column(context)
        if np.all(np.isnan(aug)):
            return 0.0
        max_mi = math.log(self.bins)
        best = 0.0
        for column in comparable_base_columns(context):
            mi = mutual_information(
                context.sampled_base_encoded(column),
                aug,
                bins=self.bins,
                x_bins_cache=context.shared(
                    ("mi_bins", column, context.sample_size, context.seed), dict
                ),
            )
            best = max(best, mi / max_mi)
        return self._clip(best)


class ReferenceRegistry(ProfileRegistry):
    """``default_registry()`` computed the old way."""

    def __init__(self):
        super().__init__(
            [
                ReferenceCorrelation(),
                ReferenceMutualInformation(),
                EmbeddingSimilarityProfile(TokenEmbedder()),
                MetadataProfile(),
                OverlapProfile(),
            ]
        )

    def compute_vector(self, context: ProfileContext) -> np.ndarray:
        """Profile vector for one augmentation; every entry in [0, 1]."""
        if not self._profiles:
            raise RuntimeError("registry has no profiles")
        values = np.array([p.compute(context) for p in self._profiles], dtype=float)
        return np.clip(np.nan_to_num(values, nan=0.0), 0.0, 1.0)
