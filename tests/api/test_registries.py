"""Tests for the pluggable searcher/task/scenario registries."""

import pytest

from repro.api import (
    DiscoveryEngine,
    DiscoveryRequest,
    Registry,
    RegistryError,
    default_searchers,
    default_tasks,
)
from repro.core.result import SearchResult
from repro.data import SCENARIOS, clustering_scenario


class TestRegistry:
    def test_register_and_create(self):
        registry = Registry("widget")
        registry.register("a", lambda x: x + 1)
        assert registry.create("a", 2) == 3
        assert "a" in registry
        assert registry.names() == ["a"]

    def test_decorator_registration(self):
        registry = Registry("widget")

        @registry.register("b")
        def build():
            return "built"

        assert registry.create("b") == "built"
        assert build() == "built"  # decorator returns the factory

    def test_duplicate_rejected_without_overwrite(self):
        registry = Registry("widget")
        registry.register("a", lambda: 1)
        with pytest.raises(RegistryError, match="already registered"):
            registry.register("a", lambda: 2)
        registry.register("a", lambda: 2, overwrite=True)
        assert registry.create("a") == 2

    def test_unknown_name_lists_choices(self):
        registry = Registry("widget")
        registry.register("alpha", lambda: 1)
        with pytest.raises(RegistryError, match=r"unknown widget 'beta'.*alpha"):
            registry.get("beta")


class TestDefaults:
    def test_builtin_searchers_present(self):
        names = set(default_searchers().names())
        assert {
            "metam", "eq", "nc", "nceq",
            "mw", "overlap", "uniform", "iarda", "join_everything",
        } <= names

    def test_builtin_tasks_present(self):
        names = set(default_tasks().names())
        assert {"classification", "regression", "clustering", "fairness"} <= names

    def test_builtin_scenarios_present(self):
        assert {"housing", "clustering", "sat-whatif", "fairness"} <= set(SCENARIOS)

    def test_cli_scenarios_mirror_registry(self):
        from repro import cli

        assert cli.SCENARIOS is SCENARIOS


class TestPluggability:
    def test_custom_searcher_plugs_in_without_touching_core(self):
        scenario = clustering_scenario(seed=0)
        engine = DiscoveryEngine(corpus=scenario.corpus)

        class FirstCandidateSearcher:
            """Degenerate strategy: query the first candidate, done."""

            def __init__(self, candidates, base, corpus, task, budget):
                from repro.core.querying import QueryEngine

                self.candidates = list(candidates)
                self.engine = QueryEngine(
                    task, base, corpus, self.candidates, budget=budget
                )

            def run(self):
                aug_id = self.candidates[0].aug_id
                utility = self.engine.utility({aug_id})
                return SearchResult(
                    searcher="first",
                    selected=[aug_id],
                    utility=utility,
                    base_utility=self.engine.base_utility(),
                    queries=self.engine.queries,
                    trace=list(self.engine.trace),
                )

        @engine.searchers.register("first")
        def build(candidates, base, corpus, task, *, theta, query_budget,
                  seed, config=None, **options):
            return FirstCandidateSearcher(
                candidates, base, corpus, task, budget=query_budget
            )

        run = engine.discover(
            DiscoveryRequest(
                base=scenario.base,
                task=scenario.task,
                searcher="first",
                query_budget=10,
            )
        )
        assert run.completed
        assert run.result.searcher == "first"
        assert run.result.queries == 2
        # The plug-in searcher's queries stream events like built-ins.
        assert len(run.events_of("query-issued")) == 2

    def test_custom_task_plugs_in_by_name(self):
        scenario = clustering_scenario(seed=0)
        engine = DiscoveryEngine(corpus=scenario.corpus)

        @engine.tasks.register("column_count")
        class ColumnCountTask:
            name = "column_count"

            def __init__(self, cap=50):
                self.cap = cap

            def utility(self, table):
                return min(1.0, table.num_columns / self.cap)

        run = engine.discover(
            DiscoveryRequest(
                base=scenario.base,
                task="column_count",
                task_options={"cap": 10},
                searcher="uniform",
                theta=0.95,
                query_budget=12,
            )
        )
        assert run.completed
        assert run.result.utility >= run.result.base_utility
