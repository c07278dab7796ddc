"""Prescriptive-analytics tasks: causal discovery, what-if, how-to.

Fisher-z partial-correlation CI tests replace causal-learn; the
synthetic corpus plants a known DAG so ground truth is checkable.
"""

from repro.tasks.causal.citest import fisher_z_independence
from repro.tasks.causal.discovery import dependent_columns
from repro.tasks.causal.whatif import WhatIfTask
from repro.tasks.causal.howto import HowToTask

__all__ = [
    "fisher_z_independence",
    "dependent_columns",
    "WhatIfTask",
    "HowToTask",
]
