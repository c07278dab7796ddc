"""Column-oriented tabular substrate (pandas substitute).

Implements the paper's notion of *noisy structured data* (Definition 1):
tables may have missing header values, missing cell values (``None``) and
duplicate tuples.  The :class:`~repro.dataframe.table.Table` is the data
object every other subsystem (profiles, discovery, tasks, METAM) consumes.
"""

from repro.dataframe.table import Table
from repro.dataframe.types import ColumnType, infer_column_type, to_float_array
from repro.dataframe.noise import drop_headers, inject_missing_values, duplicate_rows

__all__ = [
    "Table",
    "ColumnType",
    "infer_column_type",
    "to_float_array",
    "drop_headers",
    "inject_missing_values",
    "duplicate_rows",
]
