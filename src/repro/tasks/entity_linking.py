"""Entity-linking task (§VI-A.4) against a synthetic knowledge base.

Substitution note (DESIGN.md §4): the paper links city names to Wikidata;
offline we use a :class:`KnowledgeBase` with deliberately ambiguous names
("Birmingham" exists in several states).  Augmenting a state column gives
the linker the disambiguating context — the exact mechanism of the paper.
"""

from __future__ import annotations

from repro.dataframe.table import Table
from repro.dataframe.types import is_missing
from repro.tasks.base import Task, checked_columns


class KnowledgeBase:
    """Maps entity mentions to candidate entities with context attributes.

    Each entity is ``(entity_id, context)`` where ``context`` is a set of
    normalized strings (e.g., the state a city belongs to).  A mention with
    a unique candidate links directly; an ambiguous mention needs a row
    cell matching exactly one candidate's context.
    """

    def __init__(self):
        self._entities = {}

    def add_entity(self, mention: str, entity_id: str, context) -> "KnowledgeBase":
        normalized = mention.strip().lower()
        self._entities.setdefault(normalized, []).append(
            (entity_id, {str(c).strip().lower() for c in context})
        )
        return self

    def candidates(self, mention: str) -> list:
        return list(self._entities.get(str(mention).strip().lower(), []))

    def __len__(self) -> int:
        return len(self._entities)


class EntityLinkingTask(Task):
    """Link ``mention_column`` cells to knowledge-base entities; utility is
    linking accuracy against ``truth_column``.

    The linker uses every other cell of a row as potential context: an
    ambiguous mention resolves when exactly one candidate's context
    intersects the row's cell values.
    """

    name = "entity_linking"

    def __init__(
        self,
        mention_column: str,
        truth_column: str,
        knowledge_base: KnowledgeBase,
        exclude_columns=(),
    ):
        self.mention_column = mention_column
        self.truth_column = truth_column
        self.kb = knowledge_base
        self.exclude_columns = set(
            checked_columns("exclude_columns", exclude_columns)
        ) | {truth_column}

    def _link_row(self, mention, context_cells) -> str:
        candidates = self.kb.candidates(mention)
        if not candidates:
            return None
        if len(candidates) == 1:
            return candidates[0][0]
        context = {
            str(v).strip().lower() for v in context_cells if not is_missing(v)
        }
        matching = [eid for eid, ctx in candidates if ctx & context]
        if len(matching) == 1:
            return matching[0]
        return None  # still ambiguous

    def utility(self, table: Table) -> float:
        for column in (self.mention_column, self.truth_column):
            if column not in table:
                raise KeyError(f"column {column!r} not in table")
        context_columns = [
            c
            for c in table.column_names
            if c != self.mention_column and c not in self.exclude_columns
        ]
        mentions = table.column(self.mention_column)
        truth = table.column(self.truth_column)
        correct = 0
        for i, mention in enumerate(mentions):
            if is_missing(mention):
                continue
            cells = [table.column(c)[i] for c in context_columns]
            if self._link_row(mention, cells) == truth[i]:
                correct += 1
        if not mentions:
            return 0.0
        return self._clip(correct / len(mentions))
