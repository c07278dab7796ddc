"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import SCENARIOS, build_parser, main


class TestParser:
    def test_list_scenarios_parses(self):
        args = build_parser().parse_args(["list-scenarios"])
        assert args.command == "list-scenarios"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "clustering"])
        assert args.budget == 150
        assert args.theta == 1.0

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "penguins"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestErrorPaths:
    def test_unknown_scenario_exit_code_and_stderr(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "penguins"])
        assert excinfo.value.code == 2  # argparse usage error
        err = capsys.readouterr().err
        assert "invalid choice: 'penguins'" in err

    def test_unknown_baseline_exit_code_and_stderr(self, capsys):
        code = main(
            ["run", "clustering", "--budget", "20", "--theta", "0.6",
             "--baselines", "greedy"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "greedy" in captured.err
        assert "error" not in captured.out

    def test_missing_catalog_dir_exit_code_and_stderr(self, tmp_path, capsys):
        code = main(["corpus-stats", "--catalog", str(tmp_path / "absent")])
        assert code == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "no catalog manifest" in captured.err
        assert captured.out == ""

    def test_batch_tables_is_refused(self, capsys):
        # The catalog-backed report is one pass over every stored entry:
        # there is no batch size to choose.
        with pytest.raises(SystemExit) as excinfo:
            main(["corpus-stats", "--tables", "5", "--batch-tables", "64"])
        assert excinfo.value.code == 2
        assert "--batch-tables" in capsys.readouterr().err


class TestCommands:
    def test_list_scenarios_output(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out

    def test_run_clustering_fast(self, capsys, tmp_path):
        save = str(tmp_path / "out.json")
        code = main(
            [
                "run",
                "clustering",
                "--budget",
                "25",
                "--theta",
                "0.6",
                "--baselines",
                "uniform",
                "--save",
                save,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "metam" in out and "uniform" in out
        payload = json.loads(open(save).read())
        assert "metam" in payload

    def test_run_no_baselines_no_chart(self, capsys):
        code = main(
            ["run", "clustering", "--budget", "20", "--theta", "0.6",
             "--baselines", "none", "--no-chart"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "metam" in out
        assert "queries" in out

    def test_run_goes_through_engine(self, capsys, monkeypatch):
        # 'repro run' must serve its searchers through DiscoveryEngine,
        # not the legacy free functions.
        from repro.api import DiscoveryEngine

        calls = []
        original = DiscoveryEngine.discover

        def spy(self, request, progress=None, cancel=None):
            calls.append(request.searcher)
            return original(self, request, progress=progress, cancel=cancel)

        monkeypatch.setattr(DiscoveryEngine, "discover", spy)
        code = main(
            ["run", "clustering", "--budget", "20", "--theta", "0.6",
             "--baselines", "uniform", "--no-chart"]
        )
        assert code == 0
        assert calls == ["metam", "uniform"]
        out = capsys.readouterr().out
        assert "metam" in out and "uniform" in out

    def test_corpus_stats(self, capsys):
        code = main(["corpus-stats", "--tables", "12"])
        assert code == 0
        out = capsys.readouterr().out
        assert "#Tables" in out
        assert "12" in out


#: ``repro run`` stdout and ``--save`` file of :data:`GOLDEN_RUN_ARGS`,
#: taken from the comparison runner the service path replaced.  The
#: runs cross the service's worker threads, so neither may depend on the
#: hash seed or on thread interleaving.
GOLDEN_RUN_ARGS = [
    "run", "clustering", "--budget", "20", "--theta", "0.6",
    "--baselines", "uniform", "--no-chart",
]
GOLDEN_RUN_STDOUT = """\
Scenario: satiety_clustering (120 rows, 8 repo tables)

searcher           2       5      10      20
metam          0.650   0.650   0.650   0.650
uniform        0.459   0.469   0.658   0.658

metam: utility 0.448 → 0.650 with 1 augmentation(s) in 6 queries
uniform: utility 0.448 → 0.658 with 4 augmentation(s) in 7 queries
"""
GOLDEN_SAVE_SHA256 = (
    "7f91aa15be2d0ba9d77322090b20b1bfdcf2f67c6e02ba2edc79bebd2e697f85"
)


class TestServicePath:
    """``repro run`` is a client of an in-process ``DiscoveryService``."""

    def test_stdout_and_save_match_golden(self, capsys, tmp_path):
        import hashlib

        save = tmp_path / "out.json"
        assert main(GOLDEN_RUN_ARGS) == 0
        assert capsys.readouterr().out == GOLDEN_RUN_STDOUT
        assert main(GOLDEN_RUN_ARGS + ["--save", str(save)]) == 0
        out = capsys.readouterr().out
        assert out == GOLDEN_RUN_STDOUT + f"\nResults written to {save}\n"
        assert hashlib.sha256(save.read_bytes()).hexdigest() == GOLDEN_SAVE_SHA256

    def test_worker_count_does_not_change_results(self):
        """One worker is a speed choice, not a correctness one: runs
        that share a prepared candidate set concurrently produce the
        same records as runs served one at a time."""
        from repro.api import CancellationToken
        from repro.cli import _await_record, _payload, _scenario_service

        scenario = SCENARIOS["clustering"](seed=0)
        payloads = [
            _payload(scenario, name, 0, theta=0.6, query_budget=20)
            for name in ("metam", "uniform", "mw", "nc")
        ]

        def results(workers):
            service = _scenario_service("clustering", scenario, workers=workers)
            try:
                session = service.create_session("cli")["session_id"]
                run_ids = [
                    service.submit(session, payload)["run_id"]
                    for payload in payloads
                ]
                return [
                    _await_record(service, run_id, CancellationToken())["result"]
                    for run_id in run_ids
                ]
            finally:
                service.shutdown()

        assert results(3) == results(1)

    def test_ablations_are_labelled_by_their_registry_name(self, capsys, tmp_path):
        """METAM's ablations used to print and save as ``metam``."""
        save = tmp_path / "out.json"
        args = ["run", "clustering", "--budget", "10", "--theta", "0.6",
                "--baselines", "eq,nc", "--no-chart", "--save", str(save)]
        assert main(args) == 0
        summaries = [
            line.split(":")[0]
            for line in capsys.readouterr().out.splitlines()
            if ": utility " in line
        ]
        assert summaries == ["metam", "eq", "nc"]
        saved = json.loads(save.read_text())
        assert {name: r["searcher"] for name, r in saved.items()} == {
            "metam": "metam", "eq": "eq", "nc": "nc"
        }

    @pytest.mark.parametrize("flag", ["--async", "--no-result-cache"])
    def test_removed_run_flags_are_usage_errors(self, capsys, flag):
        with pytest.raises(SystemExit) as excinfo:
            main(GOLDEN_RUN_ARGS + [flag])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize(
        "baseline, message",
        [("metam", "don't list it as a baseline"), ("iarda", "target column")],
    )
    def test_cli_only_baseline_rules_exit_2(self, capsys, baseline, message):
        code = main(["run", "clustering", "--baselines", f"uniform,{baseline}"])
        assert code == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    def test_unknown_baseline_fails_like_http(self, capsys):
        """The CLI's error is the service's: the same message an HTTP
        client gets in its 400 body."""
        from repro.cli import _scenario_service
        from repro.server import serve
        from tests.server.test_http import Client, open_session, submit

        assert main(GOLDEN_RUN_ARGS[:-3] + ["--baselines", "greedy"]) == 2
        err = capsys.readouterr().err
        scenario = SCENARIOS["clustering"](seed=0)
        service = _scenario_service("clustering", scenario, workers=1)
        server = serve(service)
        try:
            client = Client(server)
            payload = {
                "base": scenario.base.name,
                "task": "scenario-task",
                "searcher": "greedy",
            }
            status, body, _ = submit(client, open_session(client), payload)
        finally:
            server.shutdown()
            server.server_close()
            service.shutdown(timeout=10)
        assert status == 400
        assert err == f"error: {body['error']['message']}\n"

    def test_failed_run_exits_with_its_wire_error(self, capsys, monkeypatch):
        from repro.api import DiscoveryEngine

        def explode(self, request, progress=None, cancel=None):
            raise RuntimeError(f"{request.searcher} exploded")

        monkeypatch.setattr(DiscoveryEngine, "discover", explode)
        assert main(GOLDEN_RUN_ARGS) == 1  # internal
        captured = capsys.readouterr()
        assert "error: RuntimeError: metam exploded" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_sigint_cancels_every_run_and_exits_130(self, capsys, monkeypatch):
        """Ctrl-C while METAM prepares: the main thread cancels METAM and
        the queued baseline, and the command exits 130."""
        import os
        import signal
        import time

        from repro.api import DiscoveryEngine

        original = DiscoveryEngine.discover
        served = []

        def interrupt(self, request, progress=None, cancel=None):
            served.append(request.searcher)
            os.kill(os.getpid(), signal.SIGINT)
            deadline = time.monotonic() + 30
            while not cancel.cancelled and time.monotonic() < deadline:
                time.sleep(0.01)
            return original(self, request, progress=progress, cancel=cancel)

        monkeypatch.setattr(DiscoveryEngine, "discover", interrupt)
        assert main(GOLDEN_RUN_ARGS) == 130
        captured = capsys.readouterr()
        assert "error: run cancelled before completion" in captured.err
        assert "error" not in captured.out
        assert served == ["metam"]  # the baseline never left the queue
        assert signal.getsignal(signal.SIGINT) is signal.default_int_handler

    def test_sigint_cancels_cooperatively(self):
        import os
        import signal

        from repro.api import CancellationToken
        from repro.cli import _cancel_on_sigint

        token = CancellationToken()
        restore = _cancel_on_sigint(token)
        try:
            os.kill(os.getpid(), signal.SIGINT)
            # The handler fires the token instead of raising
            # KeyboardInterrupt into the middle of a search.
            assert token.cancelled
            # A second Ctrl-C escalates: cancellation is cooperative
            # and a long preparation won't observe it, so the user must
            # always have a hard way out.
            with pytest.raises(KeyboardInterrupt):
                os.kill(os.getpid(), signal.SIGINT)
                token.cancelled  # bytecode boundary so the signal lands
        finally:
            restore()

    @pytest.mark.parametrize("flag", ["--save", "--metrics-out", "--trace-out"])
    def test_bad_output_path_fails_before_any_run(
        self, capsys, tmp_path, monkeypatch, flag
    ):
        import repro.cli

        def no_service(*args, **kwargs):
            pytest.fail("a run started before the output path was checked")

        monkeypatch.setattr(repro.cli, "_scenario_service", no_service)
        for path in (tmp_path / "missing" / "out.json", tmp_path):
            assert main(GOLDEN_RUN_ARGS + [flag, str(path)]) == 2
            captured = capsys.readouterr()
            assert f"error: {flag} {path}: not a file in an existing directory" in captured.err
            assert captured.out == ""

    def test_metrics_and_trace_files(self, capsys, tmp_path):
        metrics_json = tmp_path / "metrics.json"
        traces = tmp_path / "traces.json"
        assert main(
            GOLDEN_RUN_ARGS
            + ["--metrics-out", str(metrics_json), "--trace-out", str(traces)]
        ) == 0
        out = capsys.readouterr().out
        assert f"Metrics written to {metrics_json}" in out
        assert f"Traces written to {traces}" in out
        snapshot = json.loads(metrics_json.read_text())
        completed = [
            series["value"]
            for series in snapshot["repro_engine_runs_total"]["series"]
            if series["labels"] == {"status": "completed"}
        ]
        assert completed == [2.0]  # metam + uniform
        assert snapshot["repro_server_runs_total"]["series"]
        trees = json.loads(traces.read_text())
        assert isinstance(trees, list) and len(trees) == 2
        assert [tree["name"] for tree in trees] == ["discover", "discover"]

        metrics_text = tmp_path / "metrics.prom"
        assert main(GOLDEN_RUN_ARGS + ["--metrics-out", str(metrics_text)]) == 0
        exposition = metrics_text.read_text()
        assert "# TYPE repro_engine_runs_total counter" in exposition
        assert 'repro_server_runs_total{tenant="cli",status="completed"}' in exposition


class TestCatalogCommands:
    def test_build_update_stats_cycle(self, capsys, tmp_path):
        path = str(tmp_path / "cat")
        assert main(["catalog", "build", path, "--tables", "8"]) == 0
        out = capsys.readouterr().out
        assert "+8 added" in out

        # Same corpus again: everything unchanged, nothing signed.
        assert main(["catalog", "update", path, "--tables", "8"]) == 0
        out = capsys.readouterr().out
        assert "=8 unchanged" in out
        assert "0 columns signed" in out

        # Larger corpus: only the new tables are signed.
        assert main(["catalog", "update", path, "--tables", "10", "--gc"]) == 0
        out = capsys.readouterr().out
        assert "+2 added" in out and "=8 unchanged" in out

        assert main(["catalog", "stats", path]) == 0
        out = capsys.readouterr().out
        assert "tables          10" in out

    def test_build_refuses_api_built_catalog(self, capsys, tmp_path):
        from repro.catalog import Catalog, CatalogStore
        from repro.dataframe.table import Table

        path = str(tmp_path / "api-cat")
        catalog = Catalog(CatalogStore(path), seed=0)
        catalog.refresh({"real": Table("real", {"key": ["a", "b"]})})
        catalog.save()
        # Built outside the CLI (no recorded corpus params): build must
        # refuse instead of replacing the real tables with synthetic ones.
        assert main(["catalog", "build", path]) == 1
        assert "outside the CLI" in capsys.readouterr().err
        manifest = CatalogStore(path).read_manifest()
        assert "real" in manifest["tables"]

    def test_rebuild_with_different_corpus_refused(self, capsys, tmp_path):
        path = str(tmp_path / "cat")
        assert main(["catalog", "build", path, "--tables", "6", "--seed", "7"]) == 0
        capsys.readouterr()
        # Same corpus definition: idempotent rebuild is allowed.
        assert main(["catalog", "build", path, "--tables", "6", "--seed", "7"]) == 0
        capsys.readouterr()
        # Different corpus definition: refuse instead of replacing tables.
        assert main(["catalog", "build", path, "--tables", "6", "--seed", "9"]) == 1
        assert "use 'catalog update'" in capsys.readouterr().err

    def test_update_refuses_without_recorded_corpus_params(self, capsys, tmp_path):
        import os

        path = str(tmp_path / "cat")
        assert main(["catalog", "build", path, "--tables", "6", "--seed", "7"]) == 0
        os.remove(os.path.join(path, "cli_corpus.json"))
        capsys.readouterr()
        # No recorded params and no flags: refuse rather than regenerate a
        # different corpus and churn the catalog.
        assert main(["catalog", "update", path]) == 1
        assert "no recorded corpus parameters" in capsys.readouterr().err
        # Explicit flags still work.
        assert main(
            ["catalog", "update", path, "--tables", "6", "--seed", "7",
             "--style", "open_data"]
        ) == 0
        assert "=6 unchanged" in capsys.readouterr().out

    def test_update_defaults_to_build_corpus_params(self, capsys, tmp_path):
        path = str(tmp_path / "cat")
        assert main(["catalog", "build", path, "--tables", "6", "--seed", "7"]) == 0
        capsys.readouterr()
        # Bare update must reuse tables=6/seed=7, not regenerate with the
        # build defaults and re-sign everything.
        assert main(["catalog", "update", path]) == 0
        out = capsys.readouterr().out
        assert "=6 unchanged" in out
        assert "0 columns signed" in out

    def test_stats_missing_catalog(self, capsys, tmp_path):
        assert main(["catalog", "stats", str(tmp_path / "none")]) == 1

    @pytest.mark.parametrize(
        "flags",
        [
            ["--num-perm", "60"],
            ["--min-containment", "nan"],
            ["--min-containment", "1.5"],
            ["--bands", "0"],
            ["--bands", "-4"],
        ],
    )
    def test_invalid_index_params_report_cleanly(self, capsys, tmp_path, flags):
        code = main(["catalog", "build", str(tmp_path / "c"), *flags])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    def test_corrupt_manifest_reports_cleanly(self, capsys, tmp_path):
        path = tmp_path / "cat"
        path.mkdir()
        (path / "manifest.json").write_text("garbage")
        for command in ("stats", "update", "build"):
            assert main(["catalog", command, str(path)]) == 1
            assert "error: corrupt catalog manifest" in capsys.readouterr().err

    def test_catalog_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["catalog"])


class TestGcBudget:
    @pytest.mark.parametrize("value", ["-1", "nan", "1.5"])
    def test_a_budget_that_is_not_a_byte_count_is_a_usage_error(
        self, capsys, tmp_path, value
    ):
        path = str(tmp_path / "cat")
        with pytest.raises(SystemExit) as excinfo:
            main(["catalog", "gc", path, "--profile-budget", value])
        assert excinfo.value.code == 2
        assert "expected an integer >= 0" in capsys.readouterr().err

    def test_result_budget_flag_is_gone(self, capsys, tmp_path):
        path = str(tmp_path / "cat")
        assert main(["catalog", "build", path, "--tables", "4"]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(["catalog", "gc", path, "--result-budget", "1"])
        assert excinfo.value.code == 2
        assert "--result-budget" in capsys.readouterr().err
        main(["catalog", "stats", path])
        out = capsys.readouterr().out
        assert "profile bytes" in out
        assert "run records" not in out and "result bytes" not in out


class TestTableCount:
    """``--tables`` is a corpus size: a non-positive count is a usage
    error before the catalog directory (or its recorded corpus
    parameters) is touched — it used to shrink a catalog to nothing."""

    @pytest.mark.parametrize("value", ["-1", "0", "1.5", "many"])
    def test_update_refuses_before_touching_the_catalog(
        self, capsys, tmp_path, value
    ):
        path = tmp_path / "cat"
        assert main(["catalog", "build", str(path), "--tables", "5"]) == 0
        capsys.readouterr()
        before = {p: p.read_bytes() for p in path.rglob("*") if p.is_file()}
        with pytest.raises(SystemExit) as excinfo:
            main(["catalog", "update", str(path), "--tables", value, "--gc"])
        assert excinfo.value.code == 2
        assert "expected an integer >= 1" in capsys.readouterr().err
        assert {p: p.read_bytes() for p in path.rglob("*") if p.is_file()} == before
        # A bare update still sees the recorded 5 tables, all unchanged.
        assert main(["catalog", "update", str(path), "--gc"]) == 0
        assert "=5 unchanged" in capsys.readouterr().out

    @pytest.mark.parametrize("command", [["catalog", "build"], ["corpus-stats"]])
    def test_build_and_corpus_stats_refuse(self, capsys, tmp_path, command):
        path = tmp_path / "cat"
        args = [str(path)] if command[0] == "catalog" else []
        with pytest.raises(SystemExit) as excinfo:
            main(command + args + ["--tables", "-3"])
        assert excinfo.value.code == 2
        assert "expected an integer >= 1" in capsys.readouterr().err
        assert not path.exists()


class TestRemovedRefreshSurface:
    """Freshness is ``catalog update`` on the operator's schedule: the
    in-process refresh loop and its flags are gone."""

    def test_staleness_budget_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "clustering", "--budget", "5", "--staleness-budget", "5"])
        assert excinfo.value.code == 2
        assert "--staleness-budget" in capsys.readouterr().err

    def test_catalog_watch_is_gone(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["catalog", "watch", str(tmp_path / "cat")])
        assert excinfo.value.code == 2
        assert "watch" in capsys.readouterr().err

    def test_refresher_is_not_exported(self):
        import repro
        import repro.catalog

        for module in (repro, repro.catalog):
            assert not hasattr(module, "CatalogRefresher")
            assert not hasattr(module, "CatalogSnapshot")
        with pytest.raises(ModuleNotFoundError):
            import repro.catalog.refresh  # noqa: F401


class TestStats:
    def test_stats_json_covers_store_and_result_cache(self, capsys):
        """``repro stats`` serves from a plain store-backed engine: its
        warm-start refresh + save write objects under shard locks, and
        the second identical request replays from the result cache."""
        assert main(["stats", "--budget", "5", "--json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)

        def value(family, **labels):
            for series in snapshot[family]["series"]:
                if series["labels"] == labels:
                    return series
            raise AssertionError(f"{family}{labels} missing")

        assert value("repro_store_writes_total", section="objects")["value"] > 0
        assert snapshot["repro_store_lock_wait_seconds"]["series"]
        hits = value("repro_engine_result_cache_events_total", event="hit")
        assert hits["value"] == 1
        assert not any("refresher" in family for family in snapshot)
