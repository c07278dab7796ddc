"""Baseline semantics: ratchet-down, drift both ways, line-move
stability, and the CLI surface of ``repro lint``."""

import json

import pytest

from repro.analysis import (
    default_baseline_path,
    lint_paths,
    load_baseline,
    render_json,
    write_baseline,
)
from repro.cli import main as cli_main

OFFENDER = (
    "import time\n"
    "class Store:\n"
    "    def save(self):\n"
    "        with self._lock:\n"
    "            time.sleep(1)\n"
)


def write_tree(root, files):
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")


class TestBaseline:
    def test_baselined_finding_does_not_fail(self, tmp_path):
        write_tree(tmp_path, {"mod.py": OFFENDER})
        first = lint_paths([tmp_path], root=tmp_path)
        assert len(first.active) == 1
        baseline = tmp_path / "reprolint-baseline.json"
        write_baseline(baseline, first.findings, first.sources)
        second = lint_paths(
            [tmp_path],
            root=tmp_path,
            baseline_entries=load_baseline(baseline),
        )
        assert second.active == []
        assert len(second.baselined) == 1
        assert second.ok()

    def test_new_finding_still_fails_with_baseline(self, tmp_path):
        write_tree(tmp_path, {"mod.py": OFFENDER})
        first = lint_paths([tmp_path], root=tmp_path)
        baseline = tmp_path / "reprolint-baseline.json"
        write_baseline(baseline, first.findings, first.sources)
        write_tree(
            tmp_path,
            {
                "mod.py": OFFENDER
                + "    def other(self):\n"
                "        with self._lock:\n"
                "            time.sleep(2)\n"
            },
        )
        result = lint_paths(
            [tmp_path],
            root=tmp_path,
            baseline_entries=load_baseline(baseline),
        )
        assert len(result.baselined) == 1
        assert len(result.active) == 1
        assert not result.ok()

    def test_baseline_survives_line_moves(self, tmp_path):
        write_tree(tmp_path, {"mod.py": OFFENDER})
        first = lint_paths([tmp_path], root=tmp_path)
        baseline = tmp_path / "reprolint-baseline.json"
        write_baseline(baseline, first.findings, first.sources)
        # Unrelated lines above shift the finding down; the baseline
        # entry (content-hashed, not line-numbered) must still match.
        write_tree(tmp_path, {"mod.py": "# header\n# comment\n" + OFFENDER})
        result = lint_paths(
            [tmp_path],
            root=tmp_path,
            baseline_entries=load_baseline(baseline),
        )
        assert result.active == []
        assert len(result.baselined) == 1

    def test_fixed_finding_turns_entry_stale(self, tmp_path):
        write_tree(tmp_path, {"mod.py": OFFENDER})
        first = lint_paths([tmp_path], root=tmp_path)
        baseline = tmp_path / "reprolint-baseline.json"
        write_baseline(baseline, first.findings, first.sources)
        write_tree(tmp_path, {"mod.py": "x = 1\n"})
        result = lint_paths(
            [tmp_path],
            root=tmp_path,
            baseline_entries=load_baseline(baseline),
        )
        assert result.active == []
        assert len(result.stale_baseline) == 1
        assert result.ok()  # plain run passes...
        assert not result.ok(check_stale=True)  # ...CI mode fails

    def test_malformed_baseline_raises(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text("{\"version\": 99}")
        with pytest.raises(ValueError):
            load_baseline(path)
        good = {"check": "blocking-under-lock", "path": "m.py", "hash": "ab", "index": 0}
        for entries in (
            [{"check": "blocking-under-lock"}, {"path": 3}],
            [{**good, "index": "0"}],
            [{**good, "index": True}],
            [{**good, "hash": None}],
            [["blocking-under-lock", "m.py", "ab", 0]],
        ):
            path.write_text(json.dumps({"version": 1, "entries": entries}))
            with pytest.raises(ValueError, match="malformed entry"):
                load_baseline(path)
        path.write_text(json.dumps({"version": 1, "entries": [good]}))
        assert load_baseline(path) == [good]

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") == []

    def test_default_baseline_path(self, tmp_path):
        assert (
            default_baseline_path(tmp_path)
            == tmp_path / "reprolint-baseline.json"
        )


class TestCli:
    def run_cli(self, tmp_path, monkeypatch, *argv):
        monkeypatch.chdir(tmp_path)
        return cli_main(["lint", *argv])

    def test_clean_tree_exits_zero(self, tmp_path, monkeypatch, capsys):
        write_tree(tmp_path, {"src/mod.py": "x = 1\n"})
        assert self.run_cli(tmp_path, monkeypatch) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_finding_exits_nonzero(self, tmp_path, monkeypatch, capsys):
        write_tree(tmp_path, {"src/mod.py": OFFENDER})
        assert self.run_cli(tmp_path, monkeypatch) == 1
        out = capsys.readouterr().out
        assert "blocking-under-lock" in out

    def test_json_report(self, tmp_path, monkeypatch, capsys):
        write_tree(tmp_path, {"src/mod.py": OFFENDER})
        code = self.run_cli(tmp_path, monkeypatch, "--json")
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["active"] == 1
        assert payload["findings"][0]["check"] == "blocking-under-lock"

    def test_json_out_artifact(self, tmp_path, monkeypatch, capsys):
        write_tree(tmp_path, {"src/mod.py": OFFENDER})
        out_file = tmp_path / "report.json"
        self.run_cli(tmp_path, monkeypatch, "--json-out", str(out_file))
        capsys.readouterr()
        payload = json.loads(out_file.read_text())
        assert payload["summary"]["active"] == 1

    def test_update_then_check_baseline_cycle(
        self, tmp_path, monkeypatch, capsys
    ):
        write_tree(tmp_path, {"src/mod.py": OFFENDER})
        assert self.run_cli(tmp_path, monkeypatch, "--update-baseline") == 0
        assert (tmp_path / "reprolint-baseline.json").exists()
        # Baselined: clean run.
        assert self.run_cli(tmp_path, monkeypatch, "--check-baseline") == 0
        # Fix the debt without updating the baseline: stale entry fails
        # CI mode but not the plain run.
        write_tree(tmp_path, {"src/mod.py": "x = 1\n"})
        assert self.run_cli(tmp_path, monkeypatch) == 0
        assert self.run_cli(tmp_path, monkeypatch, "--check-baseline") == 1
        out = capsys.readouterr().out
        assert "stale baseline entry" in out
        # --update-baseline ratchets the file back down.
        assert self.run_cli(tmp_path, monkeypatch, "--update-baseline") == 0
        payload = json.loads(
            (tmp_path / "reprolint-baseline.json").read_text()
        )
        assert payload["entries"] == []

    def test_malformed_entry_is_usage_error(self, tmp_path, monkeypatch, capsys):
        write_tree(tmp_path, {"src/mod.py": OFFENDER})
        (tmp_path / "reprolint-baseline.json").write_text(
            json.dumps(
                {
                    "version": 1,
                    "entries": [{"check": "blocking-under-lock"}, {"path": 3}],
                }
            )
        )
        assert self.run_cli(tmp_path, monkeypatch, "src", "--check-baseline") == 2
        assert "malformed entry" in capsys.readouterr().err

    def test_list_checks(self, tmp_path, monkeypatch, capsys):
        assert self.run_cli(tmp_path, monkeypatch, "--list-checks") == 0
        out = capsys.readouterr().out
        for name in (
            "lock-discipline",
            "blocking-under-lock",
            "catalog-vfs",
            "metrics-hygiene",
        ):
            assert name in out
        assert "atomic-write" not in out

    def test_select_unknown_check_is_usage_error(
        self, tmp_path, monkeypatch, capsys
    ):
        write_tree(tmp_path, {"src/mod.py": "x = 1\n"})
        assert (
            self.run_cli(tmp_path, monkeypatch, "--select", "bogus") == 2
        )

    def test_missing_path_is_usage_error(self, tmp_path, monkeypatch):
        assert self.run_cli(tmp_path, monkeypatch, "nope/") == 2


class TestReportShape:
    def test_render_json_is_stable(self, tmp_path):
        write_tree(tmp_path, {"src/repro/x.py": "print('hi')\n"})
        result = lint_paths([tmp_path], root=tmp_path)
        payload = render_json(result)
        assert payload["version"] == 1
        assert payload["files_checked"] == 1
        assert payload["summary"] == {"active": 1, "baselined": 0}
        (finding,) = payload["findings"]
        assert finding["path"] == "src/repro/x.py"
        assert finding["check"] == "metrics-hygiene"


class TestScopedRuns:
    """A run narrowed by ``--select`` or by path sees only the baseline
    entries whose check ran and whose file was linted."""

    FILES = {
        "src/mod.py": OFFENDER,
        "src/repro/catalog/clean.py": "x = 1\n",
    }

    def seeded(self, tmp_path, monkeypatch):
        write_tree(tmp_path, self.FILES)
        monkeypatch.chdir(tmp_path)
        assert cli_main(["lint", "--update-baseline"]) == 0
        baseline = tmp_path / "reprolint-baseline.json"
        (entry,) = json.loads(baseline.read_text())["entries"]
        assert entry["check"] == "blocking-under-lock"
        return baseline

    @pytest.mark.parametrize(
        "argv",
        [
            ["src", "--select", "metrics-hygiene"],
            ["src/repro/catalog"],
            ["src/repro/catalog", "--select", "blocking-under-lock"],
        ],
    )
    def test_out_of_scope_entry_is_not_stale(
        self, tmp_path, monkeypatch, capsys, argv
    ):
        self.seeded(tmp_path, monkeypatch)
        assert cli_main(["lint", *argv, "--check-baseline"]) == 0
        assert "stale" not in capsys.readouterr().out

    def test_in_scope_entry_still_matches_and_goes_stale(
        self, tmp_path, monkeypatch, capsys
    ):
        self.seeded(tmp_path, monkeypatch)
        argv = ["lint", "src", "--select", "blocking-under-lock", "--check-baseline"]
        assert cli_main(argv) == 0
        write_tree(tmp_path, {"src/mod.py": "x = 1\n"})
        assert cli_main(argv) == 1
        assert "stale baseline entry: src/mod.py" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["--select", "metrics-hygiene"],
            ["src/repro/catalog"],
            ["src", "src/repro/catalog"],
        ],
    )
    def test_update_baseline_refuses_a_scoped_run(
        self, tmp_path, monkeypatch, capsys, argv
    ):
        baseline = self.seeded(tmp_path, monkeypatch)
        before = baseline.read_bytes()
        assert cli_main(["lint", *argv, "--update-baseline"]) == 2
        assert "needs a full run" in capsys.readouterr().err
        assert baseline.read_bytes() == before
        assert cli_main(["lint", "--check-baseline"]) == 0

    def test_full_selection_is_a_full_run(self, tmp_path, monkeypatch):
        baseline = self.seeded(tmp_path, monkeypatch)
        every = "blocking-under-lock,catalog-vfs,lock-discipline,metrics-hygiene"
        assert cli_main(["lint", "src", "--select", every, "--update-baseline"]) == 0
        assert len(json.loads(baseline.read_text())["entries"]) == 1

    def test_library_scope(self, tmp_path):
        write_tree(tmp_path, self.FILES)
        first = lint_paths([tmp_path / "src"], root=tmp_path)
        baseline = tmp_path / "reprolint-baseline.json"
        write_baseline(baseline, first.findings, first.sources)
        entries = load_baseline(baseline)
        for paths, checks in (
            ([tmp_path / "src"], ["metrics-hygiene"]),
            ([tmp_path / "src" / "repro"], None),
        ):
            result = lint_paths(
                paths, root=tmp_path, checks=checks, baseline_entries=entries
            )
            assert result.stale_baseline == [] and result.ok(check_stale=True)
