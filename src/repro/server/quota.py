"""Per-tenant admission quotas: deterministic token buckets.

A :class:`TokenBucket` meters one tenant's request rate; a
:class:`TenantQuotas` map lazily creates one bucket per tenant and
answers the only question admission control asks: *may this tenant
submit now, and if not, when should it retry?*

The clock is injected (``clock=time.monotonic`` by default) so tests
drive admission decisions deterministically — no sleeping, no flaky
rate assertions.  Buckets are thread-safe; refill is computed lazily on
each acquire from the elapsed clock delta, so an idle bucket costs
nothing.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Tuple


class TokenBucket:
    """Classic token bucket: ``burst`` capacity refilled at ``rate``
    tokens per second.

    ``try_acquire`` never blocks: it answers ``(admitted, retry_after)``
    where ``retry_after`` is the seconds until one token will be
    available (0.0 when admitted) — exactly what an HTTP 429 needs for
    its ``Retry-After`` header.

    ``rate <= 0`` disables refill: the tenant gets ``burst`` requests
    ever (useful for tests and hard caps).
    """

    def __init__(
        self,
        rate: float,
        burst: float,
        clock: Callable[[], float] = time.monotonic,
    ):
        if burst <= 0:
            raise ValueError(f"burst must be > 0, got {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._stamp = clock()
        self._lock = threading.Lock()

    def try_acquire(self, n: float = 1.0) -> Tuple[bool, float]:
        """Take ``n`` tokens if available.

        Returns ``(True, 0.0)`` when admitted, else ``(False,
        retry_after_seconds)``.  ``n`` larger than ``burst`` can never
        be admitted; ``retry_after`` is then ``inf``.
        """
        if n <= 0:
            return True, 0.0
        with self._lock:
            now = self._clock()
            if self.rate > 0:
                elapsed = max(0.0, now - self._stamp)
                self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
            self._stamp = now
            if self._tokens >= n:
                self._tokens -= n
                return True, 0.0
            deficit = n - self._tokens
            if self.rate <= 0 or n > self.burst:
                return False, float("inf")
            return False, deficit / self.rate


class TenantQuotas:
    """Lazy per-tenant :class:`TokenBucket` map with shared settings.

    One instance guards one service: every tenant gets an identical
    bucket on first use.  The map is unbounded by design — tenants are
    admitted by the service's session layer, which caps how many exist;
    the *metric* side of tenant cardinality is bounded separately by the
    registry guardrail.
    """

    def __init__(
        self,
        rate: float,
        burst: float,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._buckets: Dict[str, TokenBucket] = {}
        self._lock = threading.Lock()

    def try_acquire(self, tenant: str, n: float = 1.0) -> Tuple[bool, float]:
        """Admission decision for one request from ``tenant``."""
        with self._lock:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = TokenBucket(self.rate, self.burst, self._clock)
                self._buckets[tenant] = bucket
        return bucket.try_acquire(n)
