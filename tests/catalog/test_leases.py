"""Lease-manager semantics: fencing tokens, expiry, renewal, skew.

These are the primitives the gc-race fix rests on (see
``test_gc_race.py`` for the end-to-end schedules).
"""

import glob
import json
import os

import pytest

from repro import DiscoveryEngine
from repro.catalog import Catalog, CatalogStore, LocalFSBackend
from repro.catalog.leases import DEFAULT_LEASE_TTL, LeaseManager
from repro.dataframe.table import Table
from tests.harness.entries import make_entry


class Clock:
    def __init__(self, now=1000.0):
        self.now = float(now)

    def __call__(self):
        return self.now


@pytest.fixture
def clock():
    return Clock()


@pytest.fixture
def manager(tmp_path, clock):
    root = str(tmp_path / "store")
    return LeaseManager(LocalFSBackend(root), root, ttl=10.0, clock=clock)


class TestAcquireReleaseExpire:
    def test_acquire_makes_lease_active(self, manager):
        lease = manager.acquire()
        assert lease.token in manager.active_tokens()
        assert lease.kind == "writer"
        assert lease.expires == lease.acquired + 10.0

    def test_release_deactivates(self, manager):
        lease = manager.acquire()
        manager.release(lease)
        assert manager.active_tokens() == set()

    def test_double_release_is_harmless(self, manager):
        lease = manager.acquire()
        manager.release(lease)
        manager.release(lease)

    def test_expires_after_ttl(self, manager, clock):
        lease = manager.acquire()
        clock.now += 9.9
        assert lease.token in manager.active_tokens()
        clock.now += 0.2
        assert lease.token not in manager.active_tokens()

    def test_expired_lease_file_is_reaped(self, manager, clock, tmp_path):
        lease = manager.acquire()
        lease_dir = os.path.join(str(tmp_path / "store"), "leases")
        assert os.path.exists(
            os.path.join(lease_dir, f"{lease.owner}.json")
        )
        clock.now += 11
        manager.active()  # observes expiry, reaps the file
        assert not os.path.exists(
            os.path.join(lease_dir, f"{lease.owner}.json")
        )

    def test_corrupt_lease_file_is_ignored(self, manager, tmp_path):
        manager.acquire()
        lease_dir = os.path.join(str(tmp_path / "store"), "leases")
        with open(os.path.join(lease_dir, "junk.json"), "w") as handle:
            handle.write("{ not a lease")
        assert len(manager.active()) == 1


class TestRenewal:
    def test_renew_extends_expiry_keeps_token(self, manager, clock):
        lease = manager.acquire()
        clock.now += 8
        renewed = manager.renew(lease)
        assert renewed.token == lease.token
        assert renewed.owner == lease.owner
        clock.now += 8  # 16s after acquire, 8s after renewal
        assert renewed.token in manager.active_tokens()


class TestFencingTokens:
    def test_tokens_strictly_increase(self, manager):
        tokens = [manager.acquire().token for _ in range(5)]
        assert tokens == sorted(tokens)
        assert len(set(tokens)) == 5

    def test_tokens_never_repeat_across_managers(self, tmp_path, clock):
        """The counter is store state, not process state: a restarted
        writer can never mint a token an earlier incarnation used."""
        root = str(tmp_path / "store")
        first = LeaseManager(LocalFSBackend(root), root, ttl=10, clock=clock)
        a = first.acquire()
        first.release(a)
        second = LeaseManager(LocalFSBackend(root), root, ttl=10, clock=clock)
        b = second.acquire()
        assert b.token > a.token

    def test_active_tokens_excludes_own(self, manager):
        mine = manager.acquire()
        other = manager.acquire()
        assert manager.active_tokens(exclude=(mine,)) == {other.token}
        assert manager.active_tokens(exclude=(mine, None)) == {other.token}


class TestClockSkew:
    def test_negative_age_reads_as_fresh(self, manager, clock):
        """A reader whose clock lags the writer's sees a lease acquired
        'in the future' — the clamped age keeps it fresh for a full TTL
        from the reader's now, never instantly expired."""
        lease = manager.acquire()
        clock.now -= 100  # our clock falls behind the acquisition stamp
        assert lease.token in manager.active_tokens()
        clock.now += 100 + 9.9  # ttl not yet elapsed past the stamp
        assert lease.token in manager.active_tokens()

    def test_skew_allowance_widens_expiry(self, tmp_path, clock):
        root = str(tmp_path / "store")
        manager = LeaseManager(
            LocalFSBackend(root), root, ttl=10.0, clock_skew=5.0, clock=clock
        )
        lease = manager.acquire()
        clock.now += 12  # past ttl, inside ttl + skew
        assert lease.token in manager.active_tokens()
        clock.now += 4  # past ttl + skew
        assert lease.token not in manager.active_tokens()


class TestStoreIntegration:
    def test_write_stamps_writer_lease(self, tmp_path):
        store = CatalogStore(str(tmp_path / "cat"))
        store.write_object("fp1", {"name": "t"}, {"c": make_entry({"v"})})
        lease = store.writer_lease()
        active = store.leases.active()
        assert any(entry.token == lease.token for entry in active)
        store.release_writer_lease()
        assert store.leases.active_tokens() == set()

    def test_writer_lease_is_cached_and_renewed(self, tmp_path, monkeypatch):
        from repro.catalog import store as store_module

        store = CatalogStore(str(tmp_path / "cat"))
        first = store.writer_lease()
        assert store.writer_lease() is first  # cached, not re-acquired
        real_now = store_module._now
        monkeypatch.setattr(
            store_module,
            "_now",
            lambda: real_now() + DEFAULT_LEASE_TTL * 0.75,
        )
        renewed = store.writer_lease()
        assert renewed.token == first.token
        assert renewed.acquired > first.acquired

    def test_writer_lease_io_runs_outside_guard(self, tmp_path, monkeypatch):
        # Regression (reprolint blocking-under-lock): acquire/renew do
        # lease-file I/O through the backend, so they must never run
        # while the in-process ``_writer_lease_guard`` is held — a slow
        # disk would stall every thread calling writer_lease().
        from repro.catalog import store as store_module

        store = CatalogStore(str(tmp_path / "cat"))
        real_acquire = store.leases.acquire
        real_renew = store.leases.renew

        def checked_acquire(*args, **kwargs):
            assert not store._writer_lease_guard.locked()
            return real_acquire(*args, **kwargs)

        def checked_renew(*args, **kwargs):
            assert not store._writer_lease_guard.locked()
            return real_renew(*args, **kwargs)

        monkeypatch.setattr(store.leases, "acquire", checked_acquire)
        monkeypatch.setattr(store.leases, "renew", checked_renew)
        first = store.writer_lease()
        real_now = store_module._now
        monkeypatch.setattr(
            store_module,
            "_now",
            lambda: real_now() + DEFAULT_LEASE_TTL * 0.75,
        )
        renewed = store.writer_lease()
        assert renewed.token == first.token

    def test_writer_lease_cold_race_releases_surplus(self, tmp_path):
        # Two threads racing the first writer_lease() may both acquire;
        # the loser's lease must be released (not leaked until TTL) and
        # both callers must observe the same published lease.
        import threading

        store = CatalogStore(str(tmp_path / "cat"))
        barrier = threading.Barrier(2)
        real_acquire = store.leases.acquire

        def racing_acquire(*args, **kwargs):
            barrier.wait(timeout=5)
            return real_acquire(*args, **kwargs)

        store.leases.acquire = racing_acquire
        results = []
        threads = [
            threading.Thread(
                target=lambda: results.append(store.writer_lease())
            )
            for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert len(results) == 2
        assert results[0].token == results[1].token
        active = store.leases.active()
        assert len(active) == 1
        assert active[0].token == results[0].token

    def test_stats_counts_active_leases(self, tmp_path):
        store = CatalogStore(str(tmp_path / "cat"))
        assert store.stats()["leases"] == 0
        store.write_object("fp1", {"name": "t"}, {"c": make_entry({"v"})})
        assert store.stats()["leases"] == 1
        store.release_writer_lease()
        assert store.stats()["leases"] == 0


class TestClaims:
    def test_claims_survive_renewal_and_die_with_release(self, manager, clock):
        lease = manager.renew(manager.acquire(), claims={"obj-b", "obj-a"})
        assert manager.active_holds() == ({lease.token}, {"obj-a", "obj-b"})
        clock.now += 8
        renewed = manager.renew(lease)  # a routine TTL/2 renewal
        assert renewed.claims == {"obj-a", "obj-b"}
        assert manager.active_holds()[1] == {"obj-a", "obj-b"}
        assert manager.active_holds(exclude=(renewed,)) == (set(), set())
        manager.release(renewed)
        assert manager.active_holds() == (set(), set())

    def test_claims_are_written_sorted_and_only_when_present(self, manager, tmp_path):
        lease = manager.acquire()
        path = os.path.join(str(tmp_path / "store"), "leases", f"{lease.owner}.json")
        with open(path) as handle:
            assert "claims" not in json.load(handle)
        manager.renew(lease, claims={"c", "a", "b"})
        with open(path) as handle:
            assert json.load(handle)["claims"] == ["a", "b", "c"]

    def test_claims_expire_with_the_lease(self, manager, clock):
        manager.renew(manager.acquire(), claims={"obj"})
        clock.now += 11
        assert manager.active_holds() == (set(), set())


def _corpus(n=5):
    return [
        Table(f"t{i}", {"k": [f"v{j}" for j in range(8)], "x": [f"{i}-{j}" for j in range(8)]})
        for i in range(n)
    ]


def _object_records(store):
    """Every objects-section record of every shard manifest."""
    records = {}
    for fingerprint in store.list_objects():
        shard_dir = store._object_shard_dir(fingerprint)
        records[fingerprint] = store._read_shard_section(shard_dir, "objects")[
            fingerprint
        ]
    return records


def _writer_lease_files(root):
    return glob.glob(os.path.join(root, "leases", "writer-*.json"))


class TestReaderLeavesNoLease:
    """Regression: a process that only reads (load + refresh of an
    unchanged corpus, never a save) used to acquire a writer lease,
    stamp it on every adopted object record and never release it — a
    peer's gc then skipped those objects for a full TTL."""

    @pytest.fixture
    def root(self, tmp_path):
        root = str(tmp_path / "cat")
        catalog = Catalog(CatalogStore(root), num_perm=8, bands=4)
        catalog.refresh(_corpus())
        catalog.save()
        return root

    def check_peer_reclaims_first_pass(self, root):
        peer = Catalog.load(root, corpus=_corpus()[1:])  # drops t0
        peer.save()
        assert peer.gc() == 1
        assert peer.store.last_gc == {
            "removed": 1, "skipped_leased": 0, "skipped_live": 0,
        }
        assert peer.verify()["problems"] == []

    def test_catalog_load_on_unchanged_corpus(self, root):
        before = _object_records(CatalogStore(root))
        reader = Catalog.load(root, corpus=_corpus())
        assert reader.computed_columns == 0
        assert _writer_lease_files(root) == []
        assert _object_records(CatalogStore(root)) == before
        self.check_peer_reclaims_first_pass(root)

    def test_engine_prepare_on_unchanged_corpus(self, root):
        before = _object_records(CatalogStore(root))
        base = Table("base", {"k": [f"v{j}" for j in range(8)], "y": list(range(8))})
        engine = DiscoveryEngine.open(root, create=False).attach_corpus(_corpus())
        try:
            assert engine.prepare(base)
        finally:
            engine.shutdown()
        assert _writer_lease_files(root) == []
        assert _object_records(CatalogStore(root)) == before
        self.check_peer_reclaims_first_pass(root)


class TestHostileLeaseFiles:
    """A lease file is input: whatever its ``claims`` field holds, it is
    read like every other malformed field — no claims, or the file
    skipped whole — and never raises out of gc."""

    def plant(self, store, name, payload):
        os.makedirs(os.path.join(store.root, "leases"), exist_ok=True)
        body = payload if isinstance(payload, str) else json.dumps(payload)
        with open(os.path.join(store.root, "leases", name), "w") as handle:
            handle.write(body)

    def lease(self, **fields):
        return {
            "owner": "writer-1-hostile", "token": 99, "kind": "writer",
            "acquired": 10.0**12, "ttl": 600.0, **fields,
        }

    @pytest.mark.parametrize(
        "claims",
        ["garbage0", {"garbage0": 1}, 7, None, ["garbage0", 3], [["garbage0"]]],
    )
    def test_malformed_claims_claim_nothing(self, tmp_path, claims):
        store = CatalogStore(str(tmp_path / "cat"))
        store.write_object("garbage0", {"name": "t"}, {"c": make_entry({"v"})})
        store.release_writer_lease()
        self.plant(store, "writer-1-hostile.json", self.lease(claims=claims))
        # The lease itself is well-formed, so its token still counts...
        assert store.leases.active_holds() == ({99}, set())
        # ...but it claims nothing: the unreferenced object is reclaimed.
        assert store.gc([]) == 1

    def test_well_formed_claim_from_a_foreign_file_is_honoured(self, tmp_path):
        store = CatalogStore(str(tmp_path / "cat"))
        store.write_object("garbage0", {"name": "t"}, {"c": make_entry({"v"})})
        store.release_writer_lease()
        self.plant(store, "writer-1-hostile.json", self.lease(claims=["garbage0"]))
        assert store.gc([]) == 0
        assert store.last_gc["skipped_leased"] == 1

    @pytest.mark.parametrize(
        "stamp",
        [
            {"acquired": 0, "ttl": float("nan")},
            {"acquired": 0, "ttl": float("inf")},
            {"acquired": float("nan"), "ttl": 600.0},
            {"acquired": float("inf"), "ttl": 600.0},
            {"acquired": float("-inf"), "ttl": 600.0},
        ],
        ids=["ttl-nan", "ttl-inf", "acquired-nan", "acquired-inf", "acquired--inf"],
    )
    def test_non_finite_stamps_pin_nothing(self, tmp_path, stamp):
        """Decades after acquisition, a lease whose stamp never compares
        as expired is malformed, not forever active."""
        store = CatalogStore(str(tmp_path / "cat"))
        store.write_object("garbage0", {"name": "t"}, {"c": make_entry({"v"})})
        store.release_writer_lease()
        self.plant(
            store, "writer-1-hostile.json", self.lease(claims=["garbage0"], **stamp)
        )
        assert store.leases.active_holds() == (set(), set())
        assert store.gc([]) == 1
        assert store.verify()["problems"] == []

    @pytest.mark.parametrize("ttl", [0, -600.0], ids=["zero", "negative"])
    def test_non_positive_ttl_pins_nothing(self, tmp_path, ttl):
        """Stamped in the future, a lease with no lifetime still reads as
        malformed rather than fresh."""
        store = CatalogStore(str(tmp_path / "cat"), clock_skew=3600.0)
        store.write_object("garbage0", {"name": "t"}, {"c": make_entry({"v"})})
        store.release_writer_lease()
        self.plant(
            store, "writer-1-hostile.json", self.lease(claims=["garbage0"], ttl=ttl)
        )
        assert store.leases.active_holds() == (set(), set())
        assert store.gc([]) == 1
        assert store.verify()["problems"] == []

    @pytest.mark.parametrize(
        "field, literal",
        [("token", "Infinity"), ("ttl", "1" + "0" * 400), ("acquired", "1" + "0" * 400)],
        ids=["token-inf", "ttl-huge-int", "acquired-huge-int"],
    )
    def test_numbers_that_overflow_are_malformed(self, tmp_path, field, literal):
        """``int(inf)`` and ``float(10**400)`` raise ``OverflowError``,
        which used to escape gc."""
        store = CatalogStore(str(tmp_path / "cat"))
        store.write_object("garbage0", {"name": "t"}, {"c": make_entry({"v"})})
        store.release_writer_lease()
        fields = self.lease(claims=["garbage0"])
        fields[field] = "@"
        self.plant(
            store, "writer-1-hostile.json",
            json.dumps(fields).replace('"@"', literal),
        )
        assert store.leases.active_holds() == (set(), set())
        assert store.gc([]) == 1
        assert store.verify()["problems"] == []

    def test_a_megabyte_of_junk(self, tmp_path):
        store = CatalogStore(str(tmp_path / "cat"))
        store.write_object("garbage0", {"name": "t"}, {"c": make_entry({"v"})})
        store.release_writer_lease()
        self.plant(store, "writer-2-junk.json", "\x00{[" * (1 << 18))
        self.plant(store, "writer-3-junk.json", self.lease(claims="x" * (1 << 20)))
        self.plant(store, "writer-4-junk.json", ["not", "an", "object"])
        assert store.leases.active_holds() == ({99}, set())
        assert store.gc([]) == 1
        assert store.verify()["problems"] == []
