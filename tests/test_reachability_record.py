"""REACHABILITY.md agrees with the tree and with the tool's keep list.

Regenerating the record runs every entry point (minutes); these checks
only parse, so a kept function deleted or renamed without rerunning
``python -m tools.reachability`` is caught here.
"""

import re

from tools import reachability

ROW = re.compile(r"^\| `([^`]+)` \| (\d+) \| (.+) \|$")


def unreached_rows():
    text = reachability.RECORD.read_text(encoding="utf-8")
    rows = text.split("## Functions no entry point enters", 1)[1]
    return {m[1]: m[3] for m in map(ROW.match, rows.splitlines()) if m}


def test_every_unreached_function_has_its_keep_reason():
    rows = unreached_rows()
    assert rows == {name: reachability.KEEP[name] for name in rows}
    assert set(rows) == set(reachability.KEEP)


def test_every_kept_function_exists():
    spans = reachability.functions()
    assert sorted(set(reachability.KEEP) - set(spans)) == []


def test_every_reason_names_a_category():
    for name, reason in reachability.KEEP.items():
        assert re.match(r"^\([a-e]\) \S", reason), (name, reason)


def test_qualified_names_follow_co_qualname(tmp_path, monkeypatch):
    package = tmp_path / "repro"
    package.mkdir()
    (package / "m.py").write_text(
        "def f():\n"
        "    def g():\n"
        "        pass\n"
        "class C:\n"
        "    @property\n"
        "    def p(self):\n"
        "        return 1\n"
        "    @p.setter\n"
        "    def p(self, value):\n"
        "        pass\n",
        encoding="utf-8",
    )
    monkeypatch.setattr(reachability, "SRC", tmp_path)
    monkeypatch.setattr(reachability, "PACKAGE", package)
    assert reachability.functions() == {
        "repro/m.py::f": (1, 3),
        "repro/m.py::f.<locals>.g": (2, 3),
        "repro/m.py::C.p": (5, 10),
    }
