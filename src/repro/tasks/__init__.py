"""Downstream tasks (§II-B): black boxes mapping a table to a utility.

Every task implements :class:`~repro.tasks.base.Task` — ``utility(table)``
returns a normalized score in [0, 1] (Definition 5).  METAM never looks
inside a task; it only queries it.
"""

from repro.tasks.base import Task, canonical_column
from repro.tasks.classification import ClassificationTask
from repro.tasks.regression import RegressionTask
from repro.tasks.automl_task import AutoMLTask
from repro.tasks.entity_linking import EntityLinkingTask, KnowledgeBase
from repro.tasks.clustering_task import ClusteringTask
from repro.tasks.fairness import FairClassificationTask
from repro.tasks.causal import WhatIfTask, HowToTask

__all__ = [
    "Task",
    "canonical_column",
    "ClassificationTask",
    "RegressionTask",
    "AutoMLTask",
    "EntityLinkingTask",
    "KnowledgeBase",
    "ClusteringTask",
    "FairClassificationTask",
    "WhatIfTask",
    "HowToTask",
]
