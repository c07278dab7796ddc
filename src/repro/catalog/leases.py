"""Lease-based write ownership for the catalog store.

The gc liveness race: ``gc`` computes its live set from the root
manifest, a concurrent builder then writes a new object, and gc —
scanning objects, not intents — reclaims it before the builder's
``save()`` records the reference.  Shard locks cannot close this gap:
the write and the delete are both individually well-formed; what is
missing is *ownership* spanning the builder's write→save window.

A :class:`LeaseManager` gives writers exactly that: a time-bounded
lease whose ``claims`` list names the objects its holder will
reference, under one rule — **claim before you write or adopt**.  A
writer publishes the id of every object it is about to write *before*
the file lands (a refresh claims all of them in one lease write); a
warm start claims the objects it adopted only at ``save()``, then
checks under each shard lock that they still exist, re-deriving any a
racing gc won.  The holder renews while it works and releases once its
``save()`` publishes the references.  A process that never saves never
writes: it holds no lease.

``gc`` refuses to reclaim any unreferenced object an active lease
claims.  A crashed writer stops renewing; its lease expires after
``ttl`` (+ the configured clock-skew allowance) and its claims with it,
so a failure pins objects for one TTL window, never forever.

Lease state lives in the store itself (``leases/<owner>.json`` — owner,
stamp, and the optional sorted ``claims`` list — written atomically;
claims merge under a backend lock), so every process observes one
coherent ownership map.  An owner id is unique per lease (kind, pid,
random suffix).  Expiry is judged by clamped age (``max(0, now -
acquired)``): a reader whose clock lags the writer's sees the lease as
fresh, never as expired-before-it-began.
"""

from __future__ import annotations

import json
import math
import os
import time
import uuid
from typing import (
    TYPE_CHECKING,
    Callable,
    ContextManager,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Set,
)

if TYPE_CHECKING:  # pragma: no cover - import-time only
    from repro.catalog.backend import LocalFSBackend

#: Default lease lifetime (seconds): long enough for a builder's
#: write→save window under heavy load, short enough that a crashed
#: writer's orphans are collectible promptly.
DEFAULT_LEASE_TTL = 600.0

LEASE_DIR = "leases"
LOCK_NAME = ".lock"


def _read_claims(value: object) -> FrozenSet[str]:
    """The ``claims`` field of a lease file: a list of object ids.  An
    absent or malformed field (not a list, non-string members) reads as
    no claims — the lease stays active, it just claims nothing."""
    if isinstance(value, list) and all(isinstance(item, str) for item in value):
        return frozenset(value)
    return frozenset()


class Lease:
    """One granted lease: who holds it, when it expires, and the ids of
    the objects it claims.  Immutable — renewal returns a fresh
    instance."""

    __slots__ = ("owner", "acquired", "ttl", "kind", "claims")

    def __init__(
        self,
        owner: str,
        acquired: float,
        ttl: float,
        kind: str = "writer",
        claims: Iterable[str] = (),
    ) -> None:
        self.owner = owner
        self.acquired = float(acquired)
        self.ttl = float(ttl)
        self.kind = kind
        self.claims: FrozenSet[str] = frozenset(claims)

    @property
    def expires(self) -> float:
        return self.acquired + self.ttl

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Lease(owner={self.owner!r}, kind={self.kind!r}, ttl={self.ttl})"


class LeaseManager:
    """Grants, renews, releases, and reaps leases for one store root.

    ``clock_skew`` widens the expiry horizon observers apply to *other*
    holders' leases: a lease is treated as active until ``ttl +
    clock_skew`` past its acquisition stamp, so a gc whose clock runs
    ahead of a writer's cannot reclaim objects the writer still owns.
    ``clock`` is injectable for deterministic tests (the store wires it
    to its own overridable clock).
    """

    def __init__(
        self,
        backend: LocalFSBackend,
        root: str,
        ttl: float = DEFAULT_LEASE_TTL,
        clock_skew: float = 0.0,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.backend = backend
        self.root = str(root)
        self.ttl = float(ttl)
        self.clock_skew = float(clock_skew)
        self.clock = clock
        self._dir = os.path.join(self.root, LEASE_DIR)

    def _lease_path(self, owner: str) -> str:
        return os.path.join(self._dir, f"{owner}.json")

    def _lock(self) -> ContextManager[object]:
        return self.backend.lock(os.path.join(self._dir, LOCK_NAME))

    def acquire(self, kind: str = "writer") -> Lease:
        """Grant a fresh lease under a new, unique owner id."""
        owner = f"{kind}-{os.getpid()}-{uuid.uuid4().hex[:8]}"
        lease = Lease(owner, self.clock(), self.ttl, kind)
        self.backend.makedirs(self._dir)
        self._write(lease)
        return lease

    def renew(self, lease: Lease, claims: Iterable[str] = ()) -> Lease:
        """Push a held lease's expiry forward and add ``claims`` to the
        object ids it claims.

        Claims only grow while a lease lives: the ones already in the
        lease file are read back and kept, under the lease lock, so two
        threads publishing claims through one store never drop each
        other's, and a routine renewal never drops a published claim."""
        with self._lock():
            renewed = Lease(
                lease.owner,
                self.clock(),
                self.ttl,
                lease.kind,
                lease.claims | frozenset(claims) | self._claims_on_disk(lease.owner),
            )
            self._write(renewed)
        return renewed

    def _claims_on_disk(self, owner: str) -> FrozenSet[str]:
        """The ``claims`` a lease file currently holds (none when it is
        absent or unreadable)."""
        try:
            payload = json.loads(
                self.backend.read_bytes(self._lease_path(owner)).decode("utf-8")
            )
        except (OSError, ValueError):
            return frozenset()
        if not isinstance(payload, dict):
            return frozenset()
        return _read_claims(payload.get("claims"))

    def release(self, lease: Lease) -> None:
        """Return a lease; absent files (an expired lease a peer already
        reaped) are fine."""
        with self._lock():
            try:
                self.backend.remove(self._lease_path(lease.owner))
            except OSError:
                pass

    def _write(self, lease: Lease) -> None:
        payload = {
            "owner": lease.owner,
            "acquired": lease.acquired,
            "ttl": lease.ttl,
            "kind": lease.kind,
        }
        if lease.claims:
            # Sorted: the set's iteration order must not reach the disk.
            payload["claims"] = sorted(lease.claims)
        self.backend.write_bytes(
            self._lease_path(lease.owner),
            json.dumps(payload, sort_keys=True).encode("utf-8"),
        )

    def _expired(self, lease: Lease, now: float) -> bool:
        # Clamp at zero: a lagging clock yields a negative age, which
        # must read as "fresh", never as instantly expired.
        age = max(0.0, now - lease.acquired)
        return age >= lease.ttl + self.clock_skew

    def active(self, reap: bool = True) -> List[Lease]:
        """All currently active leases (lock-free read; lease files are
        written atomically).  ``reap`` best-effort removes expired lease
        files so the directory stays bounded."""
        if not self.backend.isdir(self._dir):
            return []
        now = self.clock()
        out: List[Lease] = []
        try:
            names = self.backend.listdir(self._dir)
        except OSError:
            return []
        for name in sorted(names):
            if not name.endswith(".json"):
                continue
            path = os.path.join(self._dir, name)
            try:
                payload = json.loads(
                    self.backend.read_bytes(path).decode("utf-8")
                )
                lease = Lease(
                    payload["owner"], payload["acquired"], payload["ttl"],
                    payload.get("kind", "writer"),
                    _read_claims(payload.get("claims")),
                )
            except (OSError, ValueError, KeyError, TypeError, OverflowError):
                # OverflowError: an integer stamp too large for a float.
                continue
            if not (
                isinstance(lease.owner, str)
                and math.isfinite(lease.acquired)
                and math.isfinite(lease.ttl)
                and lease.ttl > 0
            ):
                # Malformed: a NaN or infinite stamp never compares as
                # expired and would pin objects forever.
                continue
            if self._expired(lease, now):
                if reap:
                    with self._lock():
                        try:
                            self.backend.remove(path)
                        except OSError:
                            pass
                continue
            out.append(lease)
        return out

    def active_claims(self, exclude: Iterable[Optional[Lease]] = ()) -> Set[str]:
        """Object ids claimed by active leases, minus those of
        ``exclude`` (a gc pass excludes its own store's writer lease)."""
        excluded = {lease.owner for lease in exclude if lease is not None}
        claims: Set[str] = set()
        for lease in self.active():
            if lease.owner not in excluded:
                claims |= lease.claims
        return claims
