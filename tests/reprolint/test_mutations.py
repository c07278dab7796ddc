"""Mutation suite: every reprolint rule still fires on today's code.

Each case copies real modules from ``src/`` to the same ``src/repro/...``
path under ``tmp_path``, inserts one realistic violation above an anchor
line, and lints only those files.  The anchor must occur exactly once,
so drift in the code fails loudly here instead of silently testing
nothing.  Three runs per case:

* the unmutated copy lints clean;
* the mutated copy yields exactly one finding, of the case's rule,
  citing the inserted line (a lock-order inversion is reported once per
  lock pair, at its first edge in sorted order; the other edge is named
  as the witness in the message);
* ``# reprolint: disable=<rule>`` on the reported line takes it back to
  zero findings and one suppression.
"""

import shutil
from pathlib import Path
from typing import NamedTuple, Tuple

import pytest

from tools.reprolint import checker_catalogue, lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]

ENGINE = "src/repro/api/engine.py"
SERVICE = "src/repro/server/service.py"
STORE = "src/repro/catalog/store.py"
INDEX = "src/repro/discovery/index.py"


class Mutation(NamedTuple):
    rule: str
    module: str  # the file mutated
    anchor: str  # occurs once in ``module``; ``insert`` goes above its line
    insert: Tuple[str, ...]  # at the anchor's indentation; the first is flagged
    extra: Tuple[str, ...] = ()  # unmutated modules linted alongside


CASES = {
    # -- lock-discipline: inversions --------------------------------------
    # A prepare owns its single-flight slot while it takes _catalog_lock,
    # so claiming a slot under _catalog_lock can deadlock against it.
    "engine-single-flight-inside-catalog-lock": Mutation(
        "lock-discipline",
        ENGINE,
        'out["catalog"] = self.catalog.stats()',
        (
            "with self._prepared.single_flight(None):",
            "    pass",
        ),
    ),
    # -- lock-discipline: bare acquire ------------------------------------
    "service-bare-acquire": Mutation(
        "lock-discipline",
        SERVICE,
        "timeout = self.config.drain_timeout if timeout is None else timeout",
        ("self._lock.acquire()",),
    ),
    # -- blocking-under-lock ----------------------------------------------
    "engine-open-under-lock": Mutation(
        "blocking-under-lock",
        ENGINE,
        "corpus, epoch = self.corpus, self._corpus_epoch",
        ('open(self._gauge_log, "a").write("refresh\\n")',),
    ),
    # The allowlist that exempted the engine's catalog lock is gone.
    "engine-sleep-under-catalog-lock": Mutation(
        "blocking-under-lock",
        ENGINE,
        "return self.catalog.corpus_stats()",
        ("time.sleep(0.1)",),
    ),
    "engine-tempfile-under-lock": Mutation(
        "blocking-under-lock",
        ENGINE,
        "self._corpus_epoch += 1",
        ("tempfile.mkstemp()",),
    ),
    "service-sleep-under-lock": Mutation(
        "blocking-under-lock",
        SERVICE,
        "self._draining = True",
        ("time.sleep(self.config.overload_retry_after)",),
    ),
    "service-shutil-under-lock": Mutation(
        "blocking-under-lock",
        SERVICE,
        "self._draining = True",
        ("shutil.rmtree(self._spool_dir, ignore_errors=True)",),
    ),
    "index-os-under-lock": Mutation(
        "blocking-under-lock",
        INDEX,
        "# insert_many validates before mutating any bucket.",
        ("os.makedirs(self._spill_dir, exist_ok=True)",),
    ),
    # The store's backend is I/O like any other, under any mutex.
    "engine-store-write-stream-under-lock": Mutation(
        "blocking-under-lock",
        ENGINE,
        "corpus, epoch = self.corpus, self._corpus_epoch",
        (
            "with self.catalog.store.backend.write_stream(path) as handle:",
            '    handle.write(b"")',
        ),
    ),
    # -- catalog-vfs --------------------------------------------------------
    "store-raw-os-replace": Mutation(
        "catalog-vfs",
        STORE,
        "self._write_json(self.manifest_path, payload)",
        ('os.replace(self.manifest_path, self.manifest_path + ".bak")',),
    ),
    "store-open-manifest-for-write": Mutation(
        "catalog-vfs",
        STORE,
        "self._write_json(self.manifest_path, payload)",
        ('open(self.manifest_path, "w").write(json.dumps(payload))',),
    ),
    "store-path-write-bytes": Mutation(
        "catalog-vfs",
        STORE,
        "self._write_json(self.manifest_path, payload)",
        ('Path(self.manifest_path).write_bytes(b"x")',),
    ),
    "store-path-write-text": Mutation(
        "catalog-vfs",
        STORE,
        "self._write_json(self.manifest_path, payload)",
        ("Path(self.manifest_path).write_text(json.dumps(payload))",),
    ),
    "store-pathlib-method-on-snapshot": Mutation(
        "catalog-vfs",
        STORE,
        "rows = list(rows)",
        ('self.snapshot_file.write_text("")',),
    ),
    "store-tempfile": Mutation(
        "catalog-vfs",
        STORE,
        "rows = list(rows)",
        ("fd, tmp = tempfile.mkstemp(dir=self.root)",),
    ),
    "store-io-open": Mutation(
        "catalog-vfs",
        STORE,
        "rows = list(rows)",
        ('io.open(self.snapshot_path, "wb").close()',),
    ),
    "store-os-open-without-append": Mutation(
        "catalog-vfs",
        STORE,
        "self._write_json(self.manifest_path, payload)",
        ("os.open(self.manifest_path, os.O_WRONLY | os.O_CREAT)",),
    ),
    # -- metrics-hygiene ---------------------------------------------------
    "service-engine-family-as-gauge": Mutation(
        "metrics-hygiene",
        SERVICE,
        "self._m_sessions = registry.gauge(",
        (
            "self._m_engine_runs = registry.gauge(",
            '    "repro_engine_runs_total", "Runs", labels=("status",)',
            ")",
        ),
        extra=(ENGINE,),
    ),
    "service-engine-family-other-labels": Mutation(
        "metrics-hygiene",
        SERVICE,
        "self._m_sessions = registry.gauge(",
        (
            "self._m_engine_runs = registry.counter(",
            '    "repro_engine_runs_total", "Runs", labels=("tenant", "status")',
            ")",
        ),
        extra=(ENGINE,),
    ),
    "service-fstring-label": Mutation(
        "metrics-hygiene",
        SERVICE,
        'self._m_requests.labels(tenant=tenant, outcome="accepted").inc()',
        ('self._m_requests.labels(tenant=f"t-{tenant}", outcome="seen").inc()',),
    ),
    "service-str-label": Mutation(
        "metrics-hygiene",
        SERVICE,
        'self._m_requests.labels(tenant=tenant, outcome="accepted").inc()',
        ('self._m_requests.labels(tenant=str(session), outcome="seen").inc()',),
    ),
    "service-concatenated-label": Mutation(
        "metrics-hygiene",
        SERVICE,
        'self._m_requests.labels(tenant=tenant, outcome="accepted").inc()',
        ('self._m_requests.labels(tenant=tenant, outcome="x-" + tenant).inc()',),
    ),
    "service-kwargs-labels": Mutation(
        "metrics-hygiene",
        SERVICE,
        'self._m_requests.labels(tenant=tenant, outcome="accepted").inc()',
        ('self._m_requests.labels(**{"tenant": tenant, "outcome": "seen"}).inc()',),
    ),
    "engine-print": Mutation(
        "metrics-hygiene",
        ENGINE,
        "normalized = normalize_corpus(corpus)",
        ('print("attaching corpus")',),
    ),
}


def _copy(tmp_path, rels):
    for rel in rels:
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(REPO_ROOT / rel, target)


def _lint(tmp_path, rels):
    return lint_paths([tmp_path / rel for rel in rels], root=tmp_path)


def _mutate(source, case):
    """``source`` with ``case.insert`` above the anchor's line, and the
    1-based number of the first inserted line."""
    assert source.count(case.anchor) == 1, f"anchor drifted: {case.anchor!r}"
    lines = source.split("\n")
    (index,) = [i for i, line in enumerate(lines) if case.anchor in line]
    anchored = lines[index]
    indent = anchored[: len(anchored) - len(anchored.lstrip())]
    lines[index:index] = [indent + line for line in case.insert]
    return lines, index + 1


@pytest.mark.parametrize("name", sorted(CASES))
def test_rule_fires_on_mutated_module(tmp_path, name):
    case = CASES[name]
    rels = (case.module, *case.extra)
    _copy(tmp_path, rels)
    clean = _lint(tmp_path, rels)
    assert clean.findings == [] and clean.files_checked == len(rels)

    target = tmp_path / case.module
    lines, inserted = _mutate(target.read_text(encoding="utf-8"), case)
    target.write_text("\n".join(lines), encoding="utf-8")
    findings = _lint(tmp_path, rels).findings
    assert [(f.check, f.path) for f in findings] == [(case.rule, case.module)], [
        f.as_dict() for f in findings
    ]
    (finding,) = findings
    assert (
        finding.line == inserted
        or f"{case.module}:{inserted} " in finding.message
    ), (inserted, finding.as_dict())

    lines[finding.line - 1] += f"  # reprolint: disable={case.rule}"
    target.write_text("\n".join(lines), encoding="utf-8")
    suppressed = _lint(tmp_path, rels)
    assert suppressed.findings == []
    assert suppressed.suppressed == 1


def test_every_rule_has_a_mutation_case():
    assert {case.rule for case in CASES.values()} == {
        name for name, _ in checker_catalogue()
    }
