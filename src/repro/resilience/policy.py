"""Deadlines and the resilience policy knob set.

A :class:`Deadline` is an absolute time budget anchored at *request
arrival*, not at dispatch: by the time the router sees a request that
queued behind a burst, part of its budget is already spent, and every
layer (admission, hedging, fallback) decides against the *remaining*
budget.  The clock is injectable so every policy decision is testable
without sleeping.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

__all__ = ["Deadline", "ResilienceConfig"]


class Deadline:
    """An absolute per-request time budget.

    Parameters
    ----------
    budget_ms:
        Total time the request may spend in the system, measured from
        ``start``.
    clock:
        Monotonic time source in *seconds* (injectable for tests).
    start:
        Anchor instant on ``clock``'s timeline; defaults to "now".
        Load generators anchor it at the request's *scheduled arrival*
        so queueing delay counts against the budget.
    """

    __slots__ = ("budget_ms", "_clock", "_start")

    def __init__(self, budget_ms: float, *,
                 clock: Callable[[], float] = time.perf_counter,
                 start: Optional[float] = None) -> None:
        if budget_ms <= 0:
            raise ValueError(f"budget_ms must be positive, got {budget_ms}")
        self.budget_ms = float(budget_ms)
        self._clock = clock
        self._start = clock() if start is None else float(start)

    @property
    def start(self) -> float:
        return self._start

    def elapsed_ms(self, now: Optional[float] = None) -> float:
        """Milliseconds since the anchor (the request's sojourn time)."""
        now = self._clock() if now is None else now
        return (now - self._start) * 1000.0

    def remaining_ms(self, now: Optional[float] = None) -> float:
        """Budget left (negative once blown)."""
        return self.budget_ms - self.elapsed_ms(now)

    def expired(self, now: Optional[float] = None) -> bool:
        return self.remaining_ms(now) <= 0.0

    def __repr__(self) -> str:
        return (f"Deadline(budget_ms={self.budget_ms}, "
                f"remaining_ms={self.remaining_ms():.1f})")


@dataclass(frozen=True)
class ResilienceConfig:
    """Every knob of the request-level resilience layer.

    Defaults suit a low-latency serving tier; chaos runs and tests
    override freely.  All durations are milliseconds.

    Parameters
    ----------
    deadline_ms:
        Default per-request budget when the caller supplies no
        :class:`Deadline` objects.
    hop_timeout_ms:
        Per-RPC timeout: a shard attempt silent this long is declared
        failed (breaker strike) and the work is retried elsewhere.
    hedge_after_ms:
        After this much silence a duplicate of the outstanding request
        is sent to a *different* live shard; first reply wins, the
        loser is discarded as a stale reply.  Hedging converts a slow
        shard into one extra RPC instead of a blown deadline.
    max_hedges:
        Hedge budget per slice per request (1 = classic tied-request).
    poll_interval_ms:
        Upper bound on one wait for shard replies inside the event
        loop (the loop wakes earlier for hedge/timeout/deadline edges).
    finalize_margin_ms:
        A request whose remaining budget drops below this margin is
        answered *now* from whatever partials/fallbacks exist, so the
        response still makes its deadline instead of missing it while
        waiting for a straggler.
    breaker_failure_threshold:
        Consecutive failures (timeouts, crashes, send errors) that trip
        a shard's breaker from closed to open.
    breaker_probe_backoff_ms / breaker_backoff_factor /
    breaker_max_backoff_ms:
        Exponential probe schedule: the n-th consecutive trip waits
        ``probe_backoff * factor**(n-1)`` (capped) before half-open
        allows a single probe request.
    breaker_restart_shard:
        When a breaker opens, ask the supervisor to kill/respawn the
        shard (consuming its respawn budget) — the breaker's feed into
        the existing process-level recovery machinery.
    admission_queue_limit:
        Maximum requests admitted per arriving batch; overflow is shed.
    codel_target_ms / codel_interval_ms:
        CoDel-style overload detector: when the *minimum* request
        sojourn over an interval exceeds the target, the controller
        enters its overloaded state and sheds requests that cannot
        meet their deadline anyway.
    cache_size / cache_ttl_seconds:
        Shape of the router-side result cache the fallback chain reads
        (stale-while-revalidate).  ``cache_size=0`` disables it.
    serve_stale:
        Allow the fallback chain to serve expired cache entries
        (tagged ``cached``) when no fresh answer exists.
    popularity_fallback:
        Enable the terminal ItemPop-style popularity fallback tier.
    """

    deadline_ms: float = 50.0
    hop_timeout_ms: float = 20.0
    hedge_after_ms: float = 8.0
    max_hedges: int = 1
    poll_interval_ms: float = 5.0
    finalize_margin_ms: float = 1.0
    breaker_failure_threshold: int = 3
    breaker_probe_backoff_ms: float = 50.0
    breaker_backoff_factor: float = 2.0
    breaker_max_backoff_ms: float = 2000.0
    breaker_restart_shard: bool = True
    admission_queue_limit: int = 1024
    codel_target_ms: float = 10.0
    codel_interval_ms: float = 100.0
    cache_size: int = 4096
    cache_ttl_seconds: float = 30.0
    serve_stale: bool = True
    popularity_fallback: bool = True

    def __post_init__(self) -> None:
        positive = ("deadline_ms", "hop_timeout_ms", "hedge_after_ms",
                    "poll_interval_ms", "breaker_probe_backoff_ms",
                    "breaker_max_backoff_ms", "codel_target_ms",
                    "codel_interval_ms")
        for name in positive:
            if getattr(self, name) <= 0:
                raise ValueError(
                    f"{name} must be positive, got {getattr(self, name)}")
        if self.finalize_margin_ms < 0:
            raise ValueError(
                f"finalize_margin_ms must be >= 0, got "
                f"{self.finalize_margin_ms}")
        if self.max_hedges < 0:
            raise ValueError(
                f"max_hedges must be >= 0, got {self.max_hedges}")
        if self.breaker_failure_threshold < 1:
            raise ValueError(
                f"breaker_failure_threshold must be >= 1, got "
                f"{self.breaker_failure_threshold}")
        if self.breaker_backoff_factor < 1.0:
            raise ValueError(
                f"breaker_backoff_factor must be >= 1, got "
                f"{self.breaker_backoff_factor}")
        if self.admission_queue_limit < 1:
            raise ValueError(
                f"admission_queue_limit must be >= 1, got "
                f"{self.admission_queue_limit}")
        if self.cache_size < 0:
            raise ValueError(
                f"cache_size must be >= 0, got {self.cache_size}")
        if self.cache_ttl_seconds <= 0:
            raise ValueError(
                f"cache_ttl_seconds must be positive, got "
                f"{self.cache_ttl_seconds}")
