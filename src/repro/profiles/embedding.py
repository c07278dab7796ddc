"""Semantic-embedding profile via deterministic feature-hash embeddings.

Substitution note (DESIGN.md §4): the paper embeds table tokens with BERT
and compares datasets by cosine similarity.  Offline we replace BERT with a
per-token pseudo-embedding: a fixed-dimension Gaussian vector seeded by a
stable hash of the token.  Tables sharing vocabulary land close together in
this space — the property the profile actually relies on.

A token's vector is exactly ``np.random.default_rng(seed).standard_normal
(dim)`` divided by its norm, with ``seed`` the token's 8-byte blake2b digest
read big-endian.  The vectors are built in batch (one call seeds all of a
call's fresh tokens, see :func:`repro.utils.rng.standard_normal_rows`), and
``tests/profiles/test_profile_diff.py`` pins them bit for bit against
per-token ``default_rng`` seeding.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.dataframe.table import Table
from repro.profiles.base import Profile, ProfileContext
from repro.utils.rng import standard_normal_rows
from repro.utils.text import tokenize


class TokenEmbedder:
    """Deterministic token embeddings with an embedding cache."""

    def __init__(self, dim: int = 32):
        if dim < 2:
            raise ValueError(f"dim must be >= 2, got {dim}")
        self.dim = dim
        self._cache = {}

    def _embed_fresh(self, tokens) -> None:
        """Embed, in one batch, every token of ``tokens`` not cached yet.

        The norms are the stacked ``matmul`` of each row with itself: one
        dot product per row, rounded like ``np.linalg.norm``'s ``x.dot(x)``.
        Cached vectors are read-only rows of the batch.
        """
        cache = self._cache
        fresh = [t for t in dict.fromkeys(tokens) if t not in cache]
        if not fresh:
            return
        digests = b"".join(
            hashlib.blake2b(t.encode("utf-8"), digest_size=8).digest() for t in fresh
        )
        vectors = standard_normal_rows(np.frombuffer(digests, dtype=">u8"), self.dim)
        vectors /= np.sqrt(np.matmul(vectors[:, None, :], vectors[:, :, None]))[:, 0]
        vectors.flags.writeable = False
        cache.update(zip(fresh, vectors, strict=True))

    def embed_token(self, token: str) -> np.ndarray:
        """Unit-norm Gaussian vector derived from a stable token hash
        (read-only: every later embedding of this token shares it)."""
        if token not in self._cache:
            self._embed_fresh((token,))
        return self._cache[token]

    def embed_tokens(self, tokens) -> np.ndarray:
        """Average of token embeddings; zero vector for no tokens."""
        tokens = list(tokens)
        if not tokens:
            return np.zeros(self.dim)
        self._embed_fresh(tokens)
        cache = self._cache
        return np.mean([cache[t] for t in tokens], axis=0)

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


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity; 0.0 when either vector is zero."""
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


class EmbeddingSimilarityProfile(Profile):
    """Cosine similarity between embeddings of ``Din`` and the candidate
    table, shifted from [-1, 1] into [0, 1]."""

    name = "semantic_embedding"

    def __init__(self, embedder: TokenEmbedder = None):
        self.embedder = embedder or TokenEmbedder()

    def compute(self, context: ProfileContext) -> float:
        base_vec = self.embedder.embed_table(context.base)
        cand_vec = self.embedder.embed_table(context.candidate_table)
        return self._clip((cosine_similarity(base_vec, cand_vec) + 1.0) / 2.0)
