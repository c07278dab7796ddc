"""Lease-based write ownership for the catalog store.

The gc liveness race: ``gc`` computes its live set from the root
manifest, a concurrent builder then writes a new object, and gc —
scanning objects, not intents — reclaims it before the builder's
``save()`` records the reference.  Shard locks cannot close this gap:
the write and the delete are both individually well-formed; what is
missing is *ownership* spanning the builder's write→save window.

A :class:`LeaseManager` gives writers exactly that: a time-bounded
lease with a monotonically increasing **fencing token** drawn from a
store-wide counter.  The ownership rule has two halves:

* **Objects you write are stamped at write time.**  A writer acquires a
  lease before its first object write, stamps the token on every object
  record it lands, renews while it works, and releases after its
  ``save()`` publishes the references.
* **Objects you adopt are claimed once, at save, then verified.**  A
  warm start that finds another writer's object already on disk writes
  nothing; only when its ``save()`` is about to make a manifest
  reference them does it publish their ids as the ``claims`` list of
  its own lease file (one atomic write) and *then* check, under each
  shard lock, that they still exist — re-deriving any a racing gc won.
  **A process that never saves never writes**: it holds no lease, and a
  vanished object is recomputed from the live table when first read.

``gc`` then refuses to reclaim any unreferenced object whose stamped
token belongs to, or whose id is claimed by, a currently active lease —
the object is work in flight, not garbage.  A writer that crashes stops
renewing; its lease expires after ``ttl`` (+ the configured clock-skew
allowance) and its orphaned and claimed objects become collectible, so
leases bound the damage of any failure to one TTL window instead of
leaking forever.

Fencing tokens are what make the scheme safe across restarts: tokens
never repeat, so an object stamped by a dead writer's lease can never
be confused with one stamped by a live writer that happens to reuse
the same owner name — gc compares tokens, not identities.

Lease state lives in the store itself (``leases/<owner>.json`` — owner,
token, stamp, and the optional sorted ``claims`` list — plus the
``leases/.seq`` counter, maintained under a backend lock), so every
process — and every node, once the backend spans machines — observes
one coherent ownership map.  Expiry is judged by clamped age
(``max(0, now - acquired)``): a reader whose clock lags the writer's
computes a *negative* age and simply sees the lease as fresh, never as
expired-before-it-began.
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
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - import-time only
    from repro.catalog.backend import LocalFSBackend

#: Default lease lifetime (seconds): long enough for a builder's
#: write→save window under heavy load, short enough that a crashed
#: writer's orphans are collectible promptly.
DEFAULT_LEASE_TTL = 600.0

LEASE_DIR = "leases"
SEQ_NAME = ".seq"
LOCK_NAME = ".lock"


def _read_claims(value: object) -> FrozenSet[str]:
    """The ``claims`` field of a lease file: a list of object ids.  An
    absent or malformed field (not a list, non-string members) reads as
    no claims — the lease keeps its token, it just claims nothing."""
    if isinstance(value, list) and all(isinstance(item, str) for item in value):
        return frozenset(value)
    return frozenset()


class Lease:
    """One granted lease: who holds it, its fencing token, when it
    expires, and the ids of the objects it claims (adopted, not written,
    by its holder).  Immutable — renewal returns a fresh instance."""

    __slots__ = ("owner", "token", "acquired", "ttl", "kind", "claims")

    def __init__(
        self,
        owner: str,
        token: int,
        acquired: float,
        ttl: float,
        kind: str = "writer",
        claims: Iterable[str] = (),
    ) -> None:
        self.owner = owner
        self.token = int(token)
        self.acquired = float(acquired)
        self.ttl = float(ttl)
        self.kind = kind
        self.claims: FrozenSet[str] = frozenset(claims)

    @property
    def expires(self) -> float:
        return self.acquired + self.ttl

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Lease(owner={self.owner!r}, token={self.token}, "
            f"kind={self.kind!r}, ttl={self.ttl})"
        )


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

    def _next_token(self) -> int:
        """Advance the store-wide fencing counter (caller holds the
        lease lock)."""
        seq_path = os.path.join(self._dir, SEQ_NAME)
        try:
            current = int(self.backend.read_bytes(seq_path).decode("ascii"))
        except (OSError, ValueError):
            current = 0
        token = current + 1
        self.backend.write_bytes(seq_path, str(token).encode("ascii"))
        return token

    def acquire(self, kind: str = "writer") -> Lease:
        """Grant a fresh lease with the next fencing token."""
        owner = f"{kind}-{os.getpid()}-{uuid.uuid4().hex[:8]}"
        with self._lock():
            self.backend.makedirs(self._dir)
            token = self._next_token()
            lease = Lease(owner, token, self.clock(), self.ttl, kind)
            self._write(lease)
        return lease

    def renew(
        self, lease: Lease, claims: Optional[Iterable[str]] = None
    ) -> Lease:
        """Push a held lease's expiry forward (token unchanged — renewal
        extends ownership, it does not re-order it).  ``claims`` replaces
        the lease's claimed object ids; ``None`` carries them over, so a
        routine renewal never drops a published claim."""
        renewed = Lease(
            lease.owner,
            lease.token,
            self.clock(),
            self.ttl,
            lease.kind,
            lease.claims if claims is None else claims,
        )
        with self._lock():
            self._write(renewed)
        return renewed

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
            "token": lease.token,
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
                    payload["owner"], payload["token"], payload["acquired"],
                    payload["ttl"], payload.get("kind", "writer"),
                    _read_claims(payload.get("claims")),
                )
            except (OSError, ValueError, KeyError, TypeError, OverflowError):
                # OverflowError: an infinite token, or an integer stamp
                # too large for a float.
                continue
            if not (
                math.isfinite(lease.acquired)
                and math.isfinite(lease.ttl)
                and lease.ttl > 0
            ):
                # Malformed like a bad token: a NaN or infinite stamp
                # never compares as expired and would pin objects forever.
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

    def active_holds(
        self, exclude: Iterable[Optional[Lease]] = ()
    ) -> Tuple[Set[int], Set[str]]:
        """``(fencing tokens, claimed object ids)`` of active leases,
        minus ``exclude`` (a gc pass excludes its own leases when
        deciding what to skip) — both from one pass over the lease
        directory."""
        excluded = {lease.token for lease in exclude if lease is not None}
        tokens: Set[int] = set()
        claims: Set[str] = set()
        for lease in self.active():
            if lease.token not in excluded:
                tokens.add(lease.token)
                claims |= lease.claims
        return tokens, claims

    def active_tokens(self, exclude: Iterable[Optional[Lease]] = ()) -> Set[int]:
        """Fencing tokens of active leases, minus ``exclude``."""
        return self.active_holds(exclude)[0]
