"""The command line of ``python -m tools.reprolint``: exit codes, the
JSON report, file collection, and the boundary between the tool and
the ``repro`` package."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main as repro_main
from tools.reprolint import lint_paths, render_json
from tools.reprolint.__main__ import main as lint_main

REPO_ROOT = Path(__file__).resolve().parents[2]

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


class TestCli:
    def run_cli(self, tmp_path, monkeypatch, *argv):
        monkeypatch.chdir(tmp_path)
        return lint_main(list(argv))

    def test_clean_tree_exits_zero(self, tmp_path, monkeypatch, capsys):
        write_tree(tmp_path, {"src/mod.py": "x = 1\n"})
        assert self.run_cli(tmp_path, monkeypatch) == 0
        assert "0 finding(s) in 1 file(s)" in capsys.readouterr().out

    def test_finding_exits_nonzero(self, tmp_path, monkeypatch, capsys):
        write_tree(tmp_path, {"src/mod.py": OFFENDER})
        assert self.run_cli(tmp_path, monkeypatch) == 1
        out = capsys.readouterr().out
        assert "blocking-under-lock" in out

    def test_inline_suppression_is_the_one_exemption(
        self, tmp_path, monkeypatch, capsys
    ):
        suppressed = OFFENDER.replace(
            "time.sleep(1)", "time.sleep(1)  # reprolint: disable=blocking-under-lock"
        )
        write_tree(tmp_path, {"src/mod.py": suppressed})
        assert self.run_cli(tmp_path, monkeypatch) == 0
        assert "0 finding(s) in 1 file(s) (1 suppressed inline)" in capsys.readouterr().out

    def test_json_flag_is_gone(self, tmp_path, monkeypatch, capsys):
        # --json-out is the one JSON output.
        write_tree(tmp_path, {"src/mod.py": OFFENDER})
        with pytest.raises(SystemExit) as exit_info:
            self.run_cli(tmp_path, monkeypatch, "--json")
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --json" in capsys.readouterr().err

    def test_json_out_artifact(self, tmp_path, monkeypatch, capsys):
        write_tree(tmp_path, {"src/mod.py": OFFENDER})
        out_file = tmp_path / "report.json"
        assert self.run_cli(tmp_path, monkeypatch, "--json-out", str(out_file)) == 1
        assert "1 finding(s)" in capsys.readouterr().out
        payload = json.loads(out_file.read_text())
        assert payload["summary"]["active"] == 1
        assert payload["findings"][0]["check"] == "blocking-under-lock"

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
        assert self.run_cli(tmp_path, monkeypatch, "--select", "bogus") == 2
        assert "error: unknown check 'bogus'" in capsys.readouterr().err

    def test_missing_path_is_usage_error(self, tmp_path, monkeypatch, capsys):
        assert self.run_cli(tmp_path, monkeypatch, "nope/") == 2
        assert "error: no such path: nope" in capsys.readouterr().err

    def test_runs_as_a_module_over_src(self, tmp_path):
        report = tmp_path / "report.json"
        done = subprocess.run(
            [sys.executable, "-m", "tools.reprolint", "src", "--json-out", str(report)],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        payload = json.loads(report.read_text())
        assert payload["findings"] == []
        assert payload["files_checked"] > 100


class TestFileCollection:
    def test_skip_dir_above_the_searched_path_is_not_skipped(
        self, tmp_path, monkeypatch, capsys
    ):
        # A checkout that lives under node_modules/ (or .git/, ...) is
        # still linted: only directories below the searched path count.
        checkout = tmp_path / "node_modules" / "r"
        write_tree(checkout, {"src/mod.py": OFFENDER})
        monkeypatch.chdir(checkout)
        assert lint_main([]) == 1
        assert "1 finding(s) in 1 file(s)" in capsys.readouterr().out

    def test_skip_dirs_below_the_searched_path_are_skipped(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/mod.py": "x = 1\n",
                "src/__pycache__/mod.py": OFFENDER,
                "src/node_modules/dep.py": OFFENDER,
            },
        )
        result = lint_paths([tmp_path / "src"], root=tmp_path)
        assert (result.files_checked, result.findings) == (1, [])

    @pytest.mark.parametrize("target", ["README.md", "empty"])
    def test_zero_python_files_is_usage_error(
        self, tmp_path, monkeypatch, capsys, target
    ):
        (tmp_path / "README.md").write_text("# readme\n", encoding="utf-8")
        (tmp_path / "empty").mkdir()
        monkeypatch.chdir(tmp_path)
        assert lint_main([target]) == 2
        captured = capsys.readouterr()
        assert f"error: no Python files to lint in {target}" in captured.err
        assert "finding(s)" not in captured.out


class TestReportShape:
    def test_render_json_is_stable(self, tmp_path):
        write_tree(tmp_path, {"src/repro/x.py": "print('hi')\n"})
        result = lint_paths([tmp_path], root=tmp_path)
        payload = render_json(result)
        assert payload["version"] == 2
        assert sorted(payload) == [
            "files_checked", "findings", "summary", "suppressed", "version"
        ]
        assert payload["files_checked"] == 1
        assert payload["summary"] == {"active": 1}
        (finding,) = payload["findings"]
        assert sorted(finding) == ["check", "col", "line", "message", "path"]
        assert finding["path"] == "src/repro/x.py"
        assert finding["check"] == "metrics-hygiene"


class TestProductBoundary:
    """reprolint is a repository tool, not part of the product."""

    def test_repro_never_imports_tools(self):
        offenders = []
        for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module or ""]
                else:
                    continue
                offenders += [
                    f"{path.relative_to(REPO_ROOT)}:{node.lineno} {name}"
                    for name in names
                    if name == "tools" or name.startswith("tools.")
                ]
        assert offenders == []

    def test_repro_lint_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            repro_main(["lint"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'lint'" in capsys.readouterr().err
