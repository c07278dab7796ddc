"""Metadata/attributes profile: syntactic similarity of schema and source."""

from __future__ import annotations

from repro.profiles.base import Profile, ProfileContext
from repro.utils.text import tokenize


def _jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 0.0
    union = a | b
    return len(a & b) / len(union)


def _attribute_tokens(table) -> frozenset:
    """Tokens of the table's column names, kept with the table."""
    return table.derived(
        "attribute_tokens",
        lambda: frozenset(t for c in table.column_names for t in tokenize(c)),
    )


class MetadataProfile(Profile):
    """Similarity of attribute-name token sets plus a same-source bonus.

    Captures the *syntactic* signal Ver/S4-style systems rank with (§II-C):
    two tables from the same portal with overlapping column vocabularies are
    likely related.  Score = 0.75·Jaccard(attribute tokens) + 0.25·[same
    source].
    """

    name = "metadata"

    def compute(self, context: ProfileContext) -> float:
        score = 0.75 * _jaccard(
            _attribute_tokens(context.base),
            _attribute_tokens(context.candidate_table),
        )
        if context.base.source and context.base.source == context.candidate_table.source:
            score += 0.25
        return self._clip(score)
