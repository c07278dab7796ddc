"""Options census: the parameter names of the constructors and kernels
that once carried knobs no caller set.

``hash_version`` (a second, seeded tabulation hash family),
``metrics=False`` (a no-op registry), ``tracing``/``Tracer(enabled=)``,
``DiscoveryEngine(searchers=, tasks=, scenarios=, profile_registry=)``
``CatalogStore(profile_budget_bytes=)`` (write-time profile eviction)
and ``CatalogStore(lease_ttl=, clock_skew=)`` (the lifetime of write
claims, which ``save()`` checking what it references under the root
lock replaced) were deleted because nothing outside the tests ever set
them.
A parameter added to, or dropped from, one of these signatures fails here,
so an option comes back only on purpose, with this census updated.
"""

import inspect

import pytest

from repro import kernels
from repro.api import DiscoveryEngine
from repro.catalog import Catalog, CatalogStore
from repro.discovery import MinHasher
from repro.discovery.index import DiscoveryIndex
from repro.obs import MetricsRegistry, Tracer

CENSUS = {
    "DiscoveryEngine": (
        DiscoveryEngine,
        [
            "corpus",
            "catalog",
            "max_prepared_sets",
            "max_workers",
            "result_cache_bytes",
            "metrics",
        ],
    ),
    "DiscoveryIndex": (
        DiscoveryIndex,
        ["num_perm", "bands", "min_containment", "max_distinct", "seed"],
    ),
    "Catalog": (
        Catalog,
        ["store", "num_perm", "bands", "min_containment", "max_distinct", "seed"],
    ),
    "CatalogStore": (CatalogStore, ["root", "backend"]),
    "MinHasher": (MinHasher, ["num_perm", "seed"]),
    "MetricsRegistry": (MetricsRegistry, ["max_series_per_metric"]),
    "Tracer": (Tracer, []),
    # The second positional parameter stays for callers that name the
    # family (``hash_strings(values, 1)``); 1 is its only value.
    "kernels.hash_strings": (kernels.hash_strings, ["values", "hash_version"]),
}


@pytest.mark.parametrize("name", CENSUS)
def test_parameter_names_are_pinned(name):
    target, expected = CENSUS[name]
    assert list(inspect.signature(target).parameters) == expected


@pytest.mark.parametrize(
    ("target", "option"),
    [
        (DiscoveryEngine, "tracing"),
        (DiscoveryEngine, "searchers"),
        (DiscoveryEngine, "tasks"),
        (DiscoveryEngine, "scenarios"),
        (DiscoveryEngine, "profile_registry"),
        (DiscoveryIndex, "hash_version"),
        (Catalog, "hash_version"),
        (CatalogStore, "profile_budget_bytes"),
        (CatalogStore, "lease_ttl"),
        (CatalogStore, "clock_skew"),
        (MinHasher, "hash_version"),
        (Tracer, "enabled"),
    ],
    ids=lambda value: getattr(value, "__name__", value),
)
def test_deleted_option_is_refused(target, option):
    with pytest.raises(TypeError):
        target(**{option: 1})
