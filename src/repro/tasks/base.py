"""Task protocol: a black box with a normalized utility score."""

from __future__ import annotations

from repro.dataframe.table import Table
from repro.ml.model_selection import group_train_test_split, train_test_split
from repro.obs.logcfg import get_logger

_log = get_logger(__name__)


def split_features(
    table: Table,
    x,
    y,
    group_column=None,
    test_fraction: float = 0.3,
    seed=None,
):
    """Row split for task evaluation, group-aware when requested.

    When ``group_column`` names a column of ``table`` (e.g. the join key),
    the split keeps whole groups together so per-key columns cannot leak
    label information into the test set.
    """
    if group_column is not None:
        if group_column in table:
            return group_train_test_split(
                x,
                y,
                table.column(group_column),
                test_fraction=test_fraction,
                seed=seed,
            )
        # A requested group column that is absent silently weakens the
        # leakage guarantee — surface the fallback instead of hiding it.
        _log.debug(
            "group column absent; falling back to row split",
            group_column=group_column,
        )
    return train_test_split(x, y, test_fraction=test_fraction, seed=seed)


def canonical_column(column_name: str) -> str:
    """Canonical name of a possibly-augmented column.

    Augmentation columns are named ``"<join path>#<output column>"``; the
    canonical name is the output column, which scenario generators keep
    globally unique so ground-truth membership checks are unambiguous.
    """
    return column_name.split("#")[-1]


def checked_columns(argument: str, value) -> tuple:
    """``value`` — a collection of column names — as a tuple, in order.

    A bare string is refused rather than iterated: ``"zipcode"`` would
    otherwise become the seven one-letter columns ``z``, ``i``, ``p``…
    and silently exclude nothing.  ``argument`` names the constructor
    argument in the ``ValueError``.
    """
    if isinstance(value, (str, bytes)):
        raise ValueError(
            f"{argument} must be a collection of column names, not a "
            f"{type(value).__name__}; write [{value!r}] for one column"
        )
    try:
        names = tuple(value)
    except TypeError:
        raise ValueError(
            f"{argument} must be a collection of column names, got "
            f"{type(value).__name__}"
        ) from None
    for name in names:
        if not isinstance(name, str):
            raise ValueError(
                f"{argument} must hold column names (str), got {name!r}"
            )
    return names


_PLAIN = (str, int, float, bool, type(None))


def content_key(task):
    """A hashable key that two tasks share only if they compute the same
    utility, or ``None`` when the task has no such key.

    Only a library task class used as-is qualifies (``type(task)`` is
    defined under ``repro.tasks.``; a subclass lives in its user's
    module), and only while every instance attribute is plain —
    ``str``/``int``/``float``/``bool``/``None``, or a tuple, list, set or
    frozenset of those.  Values enter the key by ``repr``, which keeps
    ``1``, ``1.0``, ``True``, ``"1"`` and ``-0.0`` apart where ``==``
    would merge them; sets enter sorted.  The key is read fresh on every
    call, so a task mutated between requests gets a new one.
    """
    cls = type(task)
    if not cls.__module__.startswith("repro.tasks."):
        return None
    items = []
    for name, value in sorted(vars(task).items()):
        if isinstance(value, _PLAIN):
            encoded = repr(value)
        elif isinstance(value, (tuple, list, set, frozenset)):
            if not all(isinstance(item, _PLAIN) for item in value):
                return None
            reprs = [repr(item) for item in value]
            if isinstance(value, (set, frozenset)):
                reprs.sort()
            encoded = (type(value).__name__, tuple(reprs))
        else:
            return None
        items.append((name, encoded))
    return (f"{cls.__module__}.{cls.__qualname__}", tuple(items))


class Task:
    """A downstream task with a utility function in [0, 1] (Definition 5).

    Implementations must be deterministic given the same input table —
    METAM's query cache and trace reproducibility rely on it, and so does
    the serving engine's utility memo, which reuses ``u(Din)`` and the
    utility of every augmented table (``Din`` plus a set of candidates
    from one prepared set) across requests for tasks with a
    :func:`content_key`.  The paper's guidance applies: the utility need
    not be monotonic; METAM's monotonicity-certification wrapper handles
    regressions.
    """

    name = "task"

    def utility(self, table: Table) -> float:
        """Normalized task quality when run on ``table``."""
        raise NotImplementedError

    #: Utility resolution.  Model-backed tasks report scores at two
    #: decimals; sub-resolution fluctuations are holdout noise, and
    #: quantizing prevents the monotone wrapper from ratcheting on it.
    quantum = 0.0

    def _clip(self, value: float) -> float:
        value = float(min(1.0, max(0.0, value)))
        if self.quantum > 0.0:
            value = round(round(value / self.quantum) * self.quantum, 10)
        return value

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
