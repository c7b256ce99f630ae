"""Tail-sampled flight recorder: keep the traces worth debugging.

Recording every request's full trace at production rates is a memory
and I/O bill nobody pays; recording a uniform sample misses exactly
the requests you care about (the p99 stragglers, the degraded
answers).  **Tail sampling** decides *after* the request finishes,
when its fate is known: keep the complete trace when the request was

* **errored** — the path raised and answered nothing;
* **shed** — turned away by admission control;
* **degraded** — answered below ``full`` quality (partial merge,
  stale cache, popularity fallback);
* **slow** — end-to-end latency strictly above a rolling quantile of
  recent traffic (``slow_quantile``, default p95);

and drop the boring ones, counting both.  Kept traces live in a
bounded ring (oldest evicted first) and :meth:`FlightRecorder.dump`
appends them as JSONL into the telemetry tree (``traces.jsonl`` next
to ``events.jsonl``), where ``repro trace-report`` and
``repro metrics-report`` pick them up.

The slow threshold comes from a bounded history of recent latencies,
recomputed every ``_REFRESH`` records rather than per record, so the
hot-path cost of a *dropped* trace is one deque append and two
comparisons.
"""

from __future__ import annotations

import json
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

__all__ = ["TRACES_FILENAME", "TraceRecord", "FlightRecorder"]

# Canonical flight-recorder dump filename (telemetry-tree sibling of
# events.jsonl; repro.obs.export sweeps for it one level deep).
TRACES_FILENAME = "traces.jsonl"

KEEP_REASONS = ("error", "shed", "degraded", "slow")

# Recompute the rolling slow threshold every this many records.
_REFRESH = 32


@dataclass
class TraceRecord:
    """One finished request's complete trace, ready to judge.

    ``events`` are :meth:`~repro.obs.spans.SpanEvent.to_dict` dicts —
    already JSON-shaped so a kept trace serialises without touching
    the span objects again.  ``start_ms`` is the request's arrival on
    the shared monotonic clock, so cross-process span timestamps can
    be shown relative to it.
    """

    trace_id: str
    user_id: int
    start_ms: float
    latency_ms: float
    quality: str
    deadline_met: bool = True
    shed: bool = False
    shed_reason: str = ""
    outcome: str = "ok"
    events: List[dict] = field(default_factory=list)
    attrs: Dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "user_id": self.user_id,
            "start_ms": round(self.start_ms, 3),
            "latency_ms": round(self.latency_ms, 3),
            "quality": self.quality,
            "deadline_met": self.deadline_met,
            "shed": self.shed,
            "shed_reason": self.shed_reason,
            "outcome": self.outcome,
            "events": self.events,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "TraceRecord":
        return cls(trace_id=record.get("trace_id", ""),
                   user_id=int(record.get("user_id", -1)),
                   start_ms=float(record.get("start_ms", 0.0)),
                   latency_ms=float(record.get("latency_ms", 0.0)),
                   quality=record.get("quality", ""),
                   deadline_met=bool(record.get("deadline_met", True)),
                   shed=bool(record.get("shed", False)),
                   shed_reason=record.get("shed_reason", ""),
                   outcome=record.get("outcome", "ok"),
                   events=list(record.get("events") or []),
                   attrs=dict(record.get("attrs") or {}))


class FlightRecorder:
    """Bounded ring of tail-sampled traces.

    Parameters
    ----------
    capacity:
        Maximum kept traces; older kept traces are evicted first.
    slow_quantile:
        A trace is "slow" strictly above this rolling latency quantile.
    history:
        Latency-history window the quantile is computed over.
    min_history:
        No slow-keeping until this many latencies are seen (an empty
        history would make the first request "slow" by definition).
    clock:
        Injectable monotonic clock in seconds (tests pass a fake).
    """

    def __init__(self, capacity: int = 512, slow_quantile: float = 0.95,
                 history: int = 1024, min_history: int = 64,
                 clock=time.perf_counter) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if not 0.0 < slow_quantile < 1.0:
            raise ValueError(f"slow_quantile must be in (0, 1), "
                             f"got {slow_quantile}")
        if min_history < 1:
            raise ValueError(f"min_history must be >= 1, "
                             f"got {min_history}")
        self.capacity = capacity
        self.slow_quantile = slow_quantile
        self.min_history = min_history
        self._clock = clock
        self._ring: deque = deque()           # (reason, TraceRecord)
        self._history: deque = deque(maxlen=history)
        self._threshold_ms: Optional[float] = None
        self._since_refresh = 0
        self.seen = 0
        self.kept = 0
        self.dropped = 0
        self.kept_by_reason: Dict[str, int] = {r: 0 for r in KEEP_REASONS}

    # ------------------------------------------------------------------
    def slow_threshold_ms(self) -> Optional[float]:
        """Current rolling slow threshold (``None`` until warm)."""
        if len(self._history) < self.min_history:
            return None
        if self._threshold_ms is None or \
                self._since_refresh >= _REFRESH:
            ordered = sorted(self._history)
            rank = int(self.slow_quantile * (len(ordered) - 1))
            self._threshold_ms = ordered[rank]
            self._since_refresh = 0
        return self._threshold_ms

    def judge(self, *, latency_ms: float, quality: str,
              outcome: str = "ok", shed: bool = False) -> Optional[str]:
        """Feed one finished request's outcome; return its keep reason.

        This is the cheap half of :meth:`record`: it needs only the
        scalars, so the serving hot path can skip building a
        :class:`TraceRecord` (and serialising its span events) for the
        boring majority that gets dropped.  A caller that receives a
        reason MUST follow up with :meth:`keep` — the drop is counted
        here, the keep is counted there.

        The latency history is fed *before* judging, so a uniformly
        slow stream does not keep everything: the threshold tracks the
        traffic and only the relative tail stays interesting.
        """
        self.seen += 1
        self._history.append(latency_ms)
        self._since_refresh += 1
        reason = None
        if outcome != "ok":
            reason = "error"
        elif shed:
            reason = "shed"
        elif quality != "full":
            reason = "degraded"
        else:
            threshold = self.slow_threshold_ms()
            # Strictly above: with a uniform stream every latency
            # *equals* the quantile, and uniform traffic has no tail
            # to keep.
            if threshold is not None and latency_ms > threshold:
                reason = "slow"
        if reason is None:
            self.dropped += 1
        return reason

    def keep(self, reason: str, record: TraceRecord) -> None:
        """Store one trace already judged worth keeping via
        :meth:`judge`."""
        self.kept += 1
        self.kept_by_reason[reason] = self.kept_by_reason.get(reason, 0) + 1
        if len(self._ring) >= self.capacity:
            self._ring.popleft()
        self._ring.append((reason, record))

    def record(self, record: TraceRecord) -> Optional[str]:
        """Judge one finished trace; returns the keep reason or ``None``.

        Convenience form of :meth:`judge` + :meth:`keep` for callers
        that already hold a full :class:`TraceRecord`.
        """
        reason = self.judge(latency_ms=record.latency_ms,
                            quality=record.quality,
                            outcome=record.outcome, shed=record.shed)
        if reason is not None:
            self.keep(reason, record)
        return reason

    # ------------------------------------------------------------------
    def traces(self) -> List[Tuple[str, TraceRecord]]:
        """Kept ``(reason, record)`` pairs, oldest first."""
        return list(self._ring)

    def kept_degraded(self) -> int:
        """Kept traces for requests that were degraded or shed or
        errored (everything except merely-slow)."""
        return sum(count for reason, count in self.kept_by_reason.items()
                   if reason != "slow")

    def summary(self) -> dict:
        return {
            "seen": self.seen,
            "kept": self.kept,
            "dropped": self.dropped,
            "kept_by_reason": dict(self.kept_by_reason),
            "buffered": len(self._ring),
            "capacity": self.capacity,
            "slow_threshold_ms": self.slow_threshold_ms(),
        }

    def dump(self, path, extra_events: Optional[List[dict]] = None) -> int:
        """Append kept traces (and optional loose span events, e.g.
        supervisor lifecycle) to a JSONL file; returns lines written.

        Each kept trace is one ``{"kind": "trace", "keep_reason": ...}``
        line; loose events are ``{"kind": "span", ...}`` lines.  Append
        mode, so several routers sharing one telemetry directory
        accumulate.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        written = 0
        with path.open("a", encoding="utf-8") as handle:
            for reason, record in self._ring:
                line = {"kind": "trace", "keep_reason": reason,
                        **record.to_dict()}
                handle.write(json.dumps(line) + "\n")
                written += 1
            for event in extra_events or []:
                handle.write(json.dumps({"kind": "span", **event}) + "\n")
                written += 1
        return written

    def __len__(self) -> int:
        return len(self._ring)

    def __repr__(self) -> str:
        return (f"FlightRecorder(kept={self.kept}/{self.seen}, "
                f"buffered={len(self._ring)}/{self.capacity})")
