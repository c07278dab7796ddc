"""Differential suite: the columnar table fingerprint against the
``repr()`` digest it replaced (``reference_fingerprint``).

The property is one-directional: any two tables the reference tells
apart, the columnar digest tells apart too.  The converse may fail only
where splitting is harmless — NaN payloads, a ``str`` subclass versus
``str`` — since a finer digest only costs a re-sign, never a stale hit.
"""

import itertools
import json
import os
import subprocess
import sys
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.catalog import table_fingerprint
from repro.dataframe.table import Table
from tests.catalog import reference_fingerprint

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


class Label(str):
    """A ``str`` subclass: same ``repr()`` as the plain string."""


#: Cells that look alike to some digest or other.
EXPLICIT = {
    "int 1": 1,
    "float 1.0": 1.0,
    "str '1'": "1",
    "True": True,
    "None": None,
    "nan": float("nan"),
    "-0.0": -0.0,
    "0.0": 0.0,
    "np.float64(1.0)": np.float64(1.0),
    "str subclass '1'": Label("1"),
    "NUL": "\x00",
    "empty str": "",
    "lone surrogate": "\ud800",
    "2**70": 2**70,
    "float 2**70": float(2**70),
    "Decimal 1": Decimal("1"),
}

#: Cells drawn small and overlapping, so equal reference digests (and
#: near misses) are common.
CELLS = st.one_of(
    st.sampled_from(list(EXPLICIT.values())),
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    st.text(alphabet="ab \x00é\ud800中", max_size=3),
    st.integers(min_value=-3, max_value=3),
    st.none(),
)
FLOATS = st.one_of(st.none(), st.sampled_from([0.0, -0.0, 1.0, 1.5, float("inf")]))
STRS = st.text(alphabet="ab\x00é\ud800", max_size=3)


@st.composite
def tables(draw, cells=CELLS):
    n_rows = draw(st.integers(min_value=0, max_value=4))
    names = draw(st.lists(st.sampled_from(["a", "b", "a\x00", "é"]), unique=True, max_size=3))
    columns = {
        name: draw(st.lists(cells, min_size=n_rows, max_size=n_rows)) for name in names
    }
    return Table(draw(st.sampled_from(["t", "u"])), columns, source=draw(st.sampled_from(["", "s"])))


def reference_or_none(table):
    """The reference digest, or ``None`` where it cannot digest at all
    (a lone surrogate in a name is not UTF-8 encodable)."""
    try:
        return reference_fingerprint.table_fingerprint(table)
    except UnicodeEncodeError:
        return None


def check_pair(a, b):
    old_a, old_b = reference_or_none(a), reference_or_none(b)
    if old_a is not None and old_b is not None and old_a != old_b:
        assert table_fingerprint(a) != table_fingerprint(b)


class TestDifferential:
    @settings(max_examples=400, deadline=None)
    @given(a=tables(), b=tables())
    def test_what_the_reference_tells_apart_stays_apart(self, a, b):
        check_pair(a, b)

    @settings(max_examples=300, deadline=None)
    @given(a=tables(FLOATS), b=tables(FLOATS))
    def test_float_columns(self, a, b):
        check_pair(a, b)

    @settings(max_examples=300, deadline=None)
    @given(a=tables(STRS), b=tables(STRS))
    def test_str_columns(self, a, b):
        check_pair(a, b)

    @settings(max_examples=300, deadline=None)
    @given(table=tables(), data=st.data())
    def test_one_cell_changed(self, table, data):
        """Near misses: the same table with one cell redrawn."""
        columns = [c for c in table.column_names if table.column(c)]
        assume(columns)
        column = data.draw(st.sampled_from(columns))
        cells = {c: list(table.column(c)) for c in table.column_names}
        cells[column][data.draw(st.integers(0, table.num_rows - 1))] = data.draw(CELLS)
        check_pair(table, Table(table.name, cells, source=table.source))

    @settings(max_examples=200, deadline=None)
    @given(table=tables())
    def test_deterministic_on_fresh_objects(self, table):
        copy = Table(
            table.name,
            {c: list(table.column(c)) for c in table.column_names},
            source=table.source,
        )
        assert table_fingerprint(copy) == table_fingerprint(table)

    def test_splitting_columns_between_cells_is_not_a_collision(self):
        # Same concatenated text, different cell boundaries.
        check_pair(Table("t", {"a": ["ab", "c"]}), Table("t", {"a": ["a", "bc"]}))
        assert table_fingerprint(Table("t", {"a": ["ab", "c"]})) != table_fingerprint(
            Table("t", {"a": ["a", "bc"]})
        )


class TestExplicitCells:
    @pytest.mark.parametrize("companion", [None, 2.5, "x", 7], ids=repr)
    def test_every_pair_the_reference_splits_stays_split(self, companion):
        """Through the companion cell, each cell lands in the float, str
        and repr encodings in turn."""
        for (_, a), (_, b) in itertools.combinations(EXPLICIT.items(), 2):
            check_pair(Table("t", {"c": [a, companion]}), Table("t", {"c": [b, companion]}))

    def test_one_cell_columns_all_digest_apart(self):
        """Finer than the reference: a ``str`` subclass no longer digests
        like the plain string."""
        digests = {}
        for label, cell in EXPLICIT.items():
            digest = table_fingerprint(Table("t", {"c": [cell]}))
            assert digest not in digests, (label, digests.get(digest))
            digests[digest] = label

    def test_nan_payloads_may_split(self):
        quiet = float("nan")
        payload = np.frombuffer(np.uint64(0x7FF8000000000001).tobytes(), "<f8")[0].item()
        assert repr(quiet) == repr(payload)
        # Harmless either way; the digest is at least deterministic.
        assert table_fingerprint(Table("t", {"c": [payload]})) == table_fingerprint(
            Table("t", {"c": [payload]})
        )

    def test_none_differs_from_nan_and_zero(self):
        digests = {
            table_fingerprint(Table("t", {"c": [cell, 1.0]}))
            for cell in (None, float("nan"), 0.0, -0.0)
        }
        assert len(digests) == 4

    def test_pinned_digest(self):
        """Store addresses derive from this digest: a change here moves
        every object and needs a layout-version bump."""
        table = Table(
            "pinned",
            {"f": [1.5, None, -0.0], "s": ["a", "é", "\ud800"], "r": [1, True, None]},
            source="src",
        )
        assert table_fingerprint(table) == PINNED


PINNED = "11e34567cd46060f18c7853ca96a1269"

#: Run in a subprocess under two hash seeds: the digest must not depend
#: on set or dict iteration order.
_SCRIPT = """
import json, sys
import numpy as np
from decimal import Decimal
from repro.catalog import table_fingerprint
from repro.dataframe.table import Table
cells = [1, 1.0, "1", True, None, float("nan"), -0.0, np.float64(1.0), "\\x00",
         "\\ud800", 2**70, Decimal("1")]
tables = [Table("t", {"c": [cell, companion]}) for cell in cells
          for companion in (None, 2.5, "x", 7)]
tables.append(Table("mixed", {"a": cells, "b": [str(c) for c in cells],
                              "f": [float(i) for i in range(len(cells))]}))
json.dump([table_fingerprint(t) for t in tables], sys.stdout)
"""


def test_digests_identical_across_hash_seeds():
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
        done = subprocess.run(
            [sys.executable, "-c", _SCRIPT], env=env, capture_output=True, text=True, check=True
        )
        outputs.append(json.loads(done.stdout))
    assert outputs[0] == outputs[1]
    assert len(set(outputs[0])) == len(outputs[0])
