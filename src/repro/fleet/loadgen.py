"""Open-loop load generation for serving backends.

Closed-loop harnesses (issue the next request when the previous one
returns) hide saturation: the arrival rate adapts to the server, so
latency looks flat right up to collapse.  This generator is
**open-loop**: arrival times are drawn up front from a (piecewise)
Poisson process and a request's latency is measured from its
*scheduled arrival* to its completion — queueing delay included — so
p99 degrades visibly as the offered rate approaches capacity.

Three workload knobs model real traffic:

* **Poisson arrivals** at a base rate (requests/s);
* **burst phases** — a list of :class:`LoadPhase` segments, each
  scaling the base rate for a duration (e.g. a 3x spike between two
  steady segments);
* **Zipf hot-user skew** — user identities drawn from a bounded Zipf
  distribution (rank-weighted ``rank^-s`` pmf, *not* numpy's unbounded
  sampler), so a handful of hot users dominate like production traffic
  does.

Latencies land in a ``fleet.load.latency_ms`` histogram in the given
:class:`~repro.obs.metrics.MetricsRegistry`, so they merge across
processes and export through the standard telemetry pipeline.

Any backend with ``recommend_many(user_ids, k, exclude_visited)`` can
be driven — the single-process
:class:`~repro.serving.service.RecommendationService` and the fleet's
:class:`~repro.fleet.router.ShardRouter` are measured by the *same*
harness, which is what makes their numbers comparable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.obs.metrics import MetricsRegistry
from repro.resilience import QUALITY_TIERS, Deadline

__all__ = [
    "ChaosResult",
    "LoadPhase",
    "LoadResult",
    "ZipfUserSampler",
    "poisson_schedule",
    "run_open_loop",
    "run_chaos_loop",
]


@dataclass(frozen=True)
class LoadPhase:
    """One segment of the offered-load profile."""

    duration_s: float
    rate_multiplier: float = 1.0

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError(
                f"duration_s must be positive, got {self.duration_s}")
        if self.rate_multiplier < 0:
            raise ValueError(
                f"rate_multiplier must be >= 0, got {self.rate_multiplier}")


def poisson_schedule(base_rate: float, phases: Sequence[LoadPhase],
                     rng: np.random.Generator) -> np.ndarray:
    """Sorted arrival times (seconds) of a piecewise Poisson process."""
    if base_rate <= 0:
        raise ValueError(f"base_rate must be positive, got {base_rate}")
    if not phases:
        raise ValueError("at least one phase is required")
    times: List[float] = []
    start = 0.0
    for phase in phases:
        end = start + phase.duration_s
        rate = base_rate * phase.rate_multiplier
        if rate > 0:
            t = start
            while True:
                t += rng.exponential(1.0 / rate)
                if t >= end:
                    break
                times.append(t)
        start = end
    return np.asarray(times, dtype=np.float64)


class ZipfUserSampler:
    """Bounded Zipf sampling over a fixed user population.

    Rank ``r`` (1-based) is drawn with probability proportional to
    ``r ** -exponent``; which user holds which rank is a seeded
    permutation of the population.  Implemented as an explicit pmf +
    ``searchsorted`` over its cdf because numpy's ``zipf`` sampler is
    unbounded (it would emit ranks past the population).
    """

    def __init__(self, user_ids: Sequence[int], exponent: float = 1.1,
                 seed: int = 0) -> None:
        if len(user_ids) == 0:
            raise ValueError("user population must be non-empty")
        if exponent < 0:
            raise ValueError(f"exponent must be >= 0, got {exponent}")
        self._rng = np.random.default_rng(seed)
        self._ids = self._rng.permutation(
            np.asarray(list(user_ids), dtype=np.int64))
        ranks = np.arange(1, len(self._ids) + 1, dtype=np.float64)
        weights = ranks ** -exponent
        self._cdf = np.cumsum(weights / weights.sum())

    def sample(self, n: int) -> np.ndarray:
        """Draw ``n`` user ids (hot users repeat under skew)."""
        u = self._rng.random(n)
        return self._ids[np.searchsorted(self._cdf, u, side="right")]


@dataclass
class LoadResult:
    """Everything one open-loop run reports."""

    offered: int
    served: int
    duration_s: float
    offered_rate: float
    p50_ms: float
    p99_ms: float
    mean_ms: float
    max_ms: float
    batches: int
    phases: List[LoadPhase] = field(default_factory=list)

    @property
    def served_rate(self) -> float:
        return self.served / self.duration_s if self.duration_s else 0.0

    def to_dict(self) -> dict:
        return {
            "offered": self.offered,
            "served": self.served,
            "duration_s": self.duration_s,
            "offered_rate": self.offered_rate,
            "served_rate": self.served_rate,
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
            "mean_ms": self.mean_ms,
            "max_ms": self.max_ms,
            "batches": self.batches,
        }


def run_open_loop(backend, user_ids: Sequence[int], *, rate: float,
                  duration_s: Optional[float] = None, k: int = 10,
                  zipf_exponent: float = 1.1,
                  phases: Optional[Sequence[LoadPhase]] = None,
                  exclude_visited: bool = True, seed: int = 0,
                  registry: Optional[MetricsRegistry] = None) -> LoadResult:
    """Drive ``backend`` with an open-loop Poisson/Zipf request stream.

    Requests due while the backend is busy queue up and are issued as
    one ``recommend_many`` batch the moment it frees — the natural
    batching a real front door performs — and their latency is charged
    from the scheduled arrival, so queueing delay is part of the
    number.

    Exactly one of ``duration_s`` (single steady phase) or ``phases``
    must describe the profile.
    """
    if phases is None:
        if duration_s is None:
            raise ValueError("pass duration_s or phases")
        phases = [LoadPhase(duration_s)]
    phases = list(phases)
    rng = np.random.default_rng(seed)
    arrivals = poisson_schedule(rate, phases, rng)
    sampler = ZipfUserSampler(user_ids, zipf_exponent, seed=seed + 1)
    users = sampler.sample(len(arrivals))
    registry = registry if registry is not None else MetricsRegistry()
    latency = registry.histogram(
        "fleet.load.latency_ms",
        window=max(4096, len(arrivals)))
    offered_counter = registry.counter("fleet.load.offered")
    served_counter = registry.counter("fleet.load.served")
    offered_counter.inc(len(arrivals))

    served = 0
    batches = 0
    i = 0
    n = len(arrivals)
    t0 = time.perf_counter()
    while i < n:
        now = time.perf_counter() - t0
        if arrivals[i] > now:
            time.sleep(min(arrivals[i] - now, 0.05))
            continue
        j = i
        while j < n and arrivals[j] <= now:
            j += 1
        batch_users = [int(u) for u in users[i:j]]
        results = backend.recommend_many(batch_users, k, exclude_visited)
        done = time.perf_counter() - t0
        for t_arrival in arrivals[i:j]:
            latency.observe((done - t_arrival) * 1000.0)
        served += sum(1 for u in batch_users if u in results)
        batches += 1
        i = j
    elapsed = time.perf_counter() - t0
    served_counter.inc(served)
    return LoadResult(
        offered=n,
        served=served,
        duration_s=elapsed,
        offered_rate=rate,
        p50_ms=latency.percentile(50),
        p99_ms=latency.percentile(99),
        mean_ms=latency.lifetime_mean,
        max_ms=latency.max if latency.count else 0.0,
        batches=batches,
        phases=phases,
    )


@dataclass
class ChaosResult:
    """Everything one deadline-bounded chaos run reports.

    ``availability`` counts *any* response (including shed requests
    answered from the fallback chain); ``deadline_hit_rate`` counts
    only responses delivered within the request's budget.  Both are
    fractions of the offered load, so a lost request hurts both.
    """

    offered: int
    answered: int
    deadline_hits: int
    shed: int
    duration_s: float
    offered_rate: float
    deadline_ms: float
    quality_counts: Dict[str, int]
    latency_by_quality: Dict[str, Dict[str, float]]
    p50_ms: float
    p99_ms: float
    batches: int
    phases: List[LoadPhase] = field(default_factory=list)

    @property
    def availability(self) -> float:
        return self.answered / self.offered if self.offered else 0.0

    @property
    def deadline_hit_rate(self) -> float:
        return self.deadline_hits / self.offered if self.offered else 0.0


def run_chaos_loop(backend, user_ids: Sequence[int], *, rate: float,
                   duration_s: Optional[float] = None, k: int = 10,
                   deadline_ms: float = 50.0, zipf_exponent: float = 1.1,
                   phases: Optional[Sequence[LoadPhase]] = None,
                   exclude_visited: bool = True, seed: int = 0,
                   registry: Optional[MetricsRegistry] = None,
                   slo=None) -> ChaosResult:
    """Drive a resilient backend open-loop, accounting per quality tier.

    Same arrival/identity model as :func:`run_open_loop`, but requests
    go through ``backend.recommend_resilient`` carrying
    :class:`~repro.resilience.Deadline` objects anchored at each
    request's *scheduled arrival* — time spent queued behind a slow
    batch counts against the budget, exactly as a front door would
    experience it.

    Duplicate users inside one batch are deduplicated by the backend
    (the earliest arrival's deadline governs); accounting here stays
    per *request*: each arrival is charged its own latency and judged
    against its own deadline, sharing the response of its user.

    ``slo`` (an :class:`~repro.obs.slo.SloTracker`) splits the feeding
    duty with the router: the router records every *answered* response
    as it finalizes (it knows quality and deadline fate first-hand),
    so this loop records only the arrivals that got **no** response —
    bad for every objective — and drives the alert cadence by calling
    ``slo.evaluate()`` once per batch.
    """
    if phases is None:
        if duration_s is None:
            raise ValueError("pass duration_s or phases")
        phases = [LoadPhase(duration_s)]
    phases = list(phases)
    rng = np.random.default_rng(seed)
    arrivals = poisson_schedule(rate, phases, rng)
    sampler = ZipfUserSampler(user_ids, zipf_exponent, seed=seed + 1)
    users = sampler.sample(len(arrivals))
    registry = registry if registry is not None else MetricsRegistry()
    window = max(4096, len(arrivals))
    overall = registry.histogram("fleet.chaos.latency_ms", window=window)
    by_quality = {
        tier: registry.histogram("fleet.chaos.latency_ms", window=window,
                                 quality=tier)
        for tier in QUALITY_TIERS
    }
    registry.counter("fleet.chaos.offered").inc(len(arrivals))

    answered = 0
    deadline_hits = 0
    shed = 0
    quality_counts: Dict[str, int] = {tier: 0 for tier in QUALITY_TIERS}
    batches = 0
    i = 0
    n = len(arrivals)
    t0 = time.perf_counter()
    while i < n:
        now = time.perf_counter() - t0
        if arrivals[i] > now:
            time.sleep(min(arrivals[i] - now, 0.05))
            continue
        j = i
        while j < n and arrivals[j] <= now:
            j += 1
        batch_users = [int(u) for u in users[i:j]]
        deadlines = [Deadline(deadline_ms, start=t0 + arrivals[idx])
                     for idx in range(i, j)]
        results = backend.recommend_resilient(
            batch_users, k, exclude_visited, deadlines=deadlines)
        done = time.perf_counter() - t0
        for user_id, t_arrival in zip(batch_users, arrivals[i:j]):
            response = results.get(user_id)
            if response is None:
                if slo is not None:
                    slo.record_request(answered=False)
                continue
            answered += 1
            latency_ms = (done - t_arrival) * 1000.0
            overall.observe(latency_ms)
            tier = response.quality
            quality_counts[tier] = quality_counts.get(tier, 0) + 1
            by_quality[tier].observe(latency_ms)
            if latency_ms <= deadline_ms:
                deadline_hits += 1
            if response.shed:
                shed += 1
        if slo is not None:
            slo.evaluate()
        batches += 1
        i = j
    elapsed = time.perf_counter() - t0
    registry.counter("fleet.chaos.answered").inc(answered)
    latency_by_quality = {
        tier: {
            "count": hist.count,
            "p50_ms": hist.percentile(50),
            "p99_ms": hist.percentile(99),
        }
        for tier, hist in by_quality.items() if hist.count
    }
    return ChaosResult(
        offered=n,
        answered=answered,
        deadline_hits=deadline_hits,
        shed=shed,
        duration_s=elapsed,
        offered_rate=rate,
        deadline_ms=deadline_ms,
        quality_counts=quality_counts,
        latency_by_quality=latency_by_quality,
        p50_ms=overall.percentile(50),
        p99_ms=overall.percentile(99),
        batches=batches,
        phases=phases,
    )
