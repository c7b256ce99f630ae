"""Request-level resilience primitives for the serving tier.

The fleet's supervisor (PR 2) keeps *processes* alive; this package
keeps *requests* alive.  Its pieces are deliberately independent of the
fleet — pure policy objects with injectable clocks — so every state
machine is unit-testable without processes or sleeps:

* :class:`~repro.resilience.policy.Deadline` /
  :class:`~repro.resilience.policy.ResilienceConfig` — per-request time
  budgets and the knob set the router wires them through;
* :class:`~repro.resilience.breaker.CircuitBreaker` — per-shard
  closed/open/half-open breaker with exponential probe backoff;
* :class:`~repro.resilience.admission.AdmissionController` — CoDel-style
  deadline-aware load shedding behind a bounded queue;
* :class:`~repro.resilience.fallback.FallbackChain` — the degraded
  answer path (partial merge → stale cache → popularity baseline), with
  every response truthfully tagged by quality tier.

:meth:`repro.fleet.router.ShardRouter.recommend_resilient` composes
them into the serving request path;
:func:`repro.fleet.loadgen.run_chaos_loop` drives it under injected
faults.
"""

from repro.resilience.admission import AdmissionController
from repro.resilience.breaker import BreakerState, CircuitBreaker
from repro.resilience.fallback import (
    QUALITY_CACHED,
    QUALITY_FALLBACK,
    QUALITY_FULL,
    QUALITY_PARTIAL,
    QUALITY_TIERS,
    FallbackChain,
    PopularityFallback,
    ResilientResponse,
)
from repro.resilience.policy import Deadline, ResilienceConfig

__all__ = [
    "AdmissionController",
    "BreakerState",
    "CircuitBreaker",
    "Deadline",
    "FallbackChain",
    "PopularityFallback",
    "QUALITY_CACHED",
    "QUALITY_FALLBACK",
    "QUALITY_FULL",
    "QUALITY_PARTIAL",
    "QUALITY_TIERS",
    "ResilienceConfig",
    "ResilientResponse",
]
