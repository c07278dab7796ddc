"""The public surface is what ``__all__`` says it is — and nothing that
was deleted is still importable."""

import importlib
import pkgutil

import pytest

import repro

MODULES_WITH_ALL = sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if not info.name.endswith("__main__")
    and hasattr(importlib.import_module(info.name), "__all__")
) + ["repro"]


@pytest.mark.parametrize("package", MODULES_WITH_ALL)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_legacy_pipeline_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(".pipeline", package="repro")


# Names no entry point reached (REACHABILITY.md lists what stayed and
# why), deleted with the scipy and networkx dependencies.
DELETED_MODULES = ["repro.tasks.causal.graph", "repro.dataframe.io"]

DELETED_NAMES = [
    ("repro.tasks", "CausalGraph"),
    ("repro.tasks.causal", "CausalGraph"),
    ("repro.tasks", "pc_skeleton"),
    ("repro.tasks.causal", "pc_skeleton"),
    ("repro.discovery", "build_join_graph"),
    ("repro.discovery", "jaccard"),
    ("repro.dataframe", "read_csv"),
    ("repro.dataframe", "write_csv"),
    ("repro.dataframe", "left_join"),
    ("repro.dataframe", "inner_join"),
    ("repro.dataframe", "union_tables"),
    ("repro.dataframe", "concat_columns"),
    ("repro.dataframe", "shuffle_column"),
    ("repro.dataframe.ops", "join_overlap"),
    ("repro.core", "load_results"),
    ("repro.utils", "entropy_discrete"),
    ("repro.kernels", "count_non_missing"),
    ("repro.ml", "StandardScaler"),
    ("repro.ml", "kfold_indices"),
    ("repro.ml", "cross_val_score"),
    ("repro.ml", "confusion_matrix"),
    ("repro.ml", "r2_score"),
    ("repro.ml", "root_mean_squared_error"),
]

DELETED_METHODS = [
    ("repro.discovery.minhash", "MinHasher", "estimate_jaccard"),
    ("repro.catalog.store", "CatalogStore", "read_object_meta"),
    ("repro.catalog.codec", "BinaryCodec", "decode_meta"),
    ("repro.catalog.catalog", "Catalog", "__contains__"),
    ("repro.catalog.catalog", "Catalog", "tables"),
    ("repro.data.scenarios", "Scenario", "n_candidates_hint"),
    ("repro.core.querying", "QueryEngine", "candidate_ids"),
    ("repro.core.querying", "QueryEngine", "remaining_budget"),
    ("repro.profiles.base", "ProfileContext", "sampled_base_numeric"),
    ("repro.profiles.registry", "ProfileRegistry", "remove"),
    ("repro.ml.kmeans", "KMeans", "max_cluster_radius"),
    ("repro.ml.kmeans", "KMeans", "predict"),
    ("repro.ml.preprocessing", "LabelEncoder", "inverse_transform"),
    ("repro.dataframe.table", "Table", "rename_column"),
    ("repro.dataframe.table", "Table", "sample_rows"),
    ("repro.dataframe.table", "Table", "missing_fraction"),
    ("repro.dataframe.table", "Table", "numeric_columns"),
    ("repro.dataframe.table", "Table", "empty"),
    ("repro.dataframe.table", "Table", "from_rows"),
    ("repro.dataframe.table", "Table", "iter_rows"),
    ("repro.dataframe.table", "Table", "project"),
    ("repro.dataframe.table", "Table", "row"),
    ("repro.dataframe.table", "Table", "head"),
    ("repro.dataframe.table", "Table", "__len__"),
    ("repro.api.engine", "DiscoveryEngine", "__enter__"),
    ("repro.api.request", "DiscoveryRequest", "to_wire"),
    ("repro.api.request", "DiscoveryRequest", "from_wire"),
    ("repro.api.run", "DiscoveryRun", "summary"),
    ("repro.api.run", "DiscoveryRun", "save"),
    ("repro.api.run", "DiscoveryRun", "from_record"),
    ("repro.api.events", "RunEvent", "to_record"),
    ("repro.api.registries", "Registry", "__len__"),
    ("repro.api.registries", "Registry", "__iter__"),
    ("repro.obs.metrics", "Histogram", "count"),
    ("repro.obs.metrics", "MetricFamily", "value"),
    ("repro.obs.metrics", "MetricsRegistry", "names"),
    ("repro.obs.tracing", "Span", "duration"),
    ("repro.obs.logcfg", "StructuredLogger", "exception"),
    ("repro.server.quota", "TokenBucket", "tokens"),
    ("repro.server.quota", "TenantQuotas", "__len__"),
    ("repro.tasks.entity_linking", "KnowledgeBase", "__len__"),
]


@pytest.mark.parametrize("module", DELETED_MODULES)
def test_deleted_module_is_gone(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)


@pytest.mark.parametrize("module, name", DELETED_NAMES)
def test_deleted_name_is_gone(module, name):
    with pytest.raises(ImportError):
        exec(f"from {module} import {name}", {})


@pytest.mark.parametrize("module, owner, name", DELETED_METHODS)
def test_deleted_method_is_gone(module, owner, name):
    cls = getattr(importlib.import_module(module), owner)
    assert not hasattr(cls, name)
