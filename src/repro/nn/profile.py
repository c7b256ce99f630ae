"""Opt-in pass profiler: per-pass forward/backward time + allocations.

The trainer's joint step is a handful of closed-form numpy passes
(:data:`PROFILED_PASSES`).  :func:`profile_ops` patches each pass class
with timing wrappers for the duration of a ``with`` block and restores
the originals afterwards — when no profile is active the passes run
untouched, so the hook costs nothing unless armed.

The profiler counts each pass as one op named after its class:
construction is its forward, its ``backward`` method its backward, and
its allocations are the true bytes of the arrays that ``backward``
returns — an f32 run therefore reports half the footprint of the f64
reference.

The profiler is designed for the single-threaded training hot path; do
not arm it while another thread is running the passes.

    from repro.nn.profile import profile_ops

    with profile_ops() as prof:
        trainer.train_epoch()
    print(prof.report())
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Callable, Dict, List, Optional

import numpy as np

__all__ = ["OpStat", "OpProfile", "profile_ops", "PROFILED_PASSES"]

# The closed-form passes of the trainer's joint step, as (module, class).
PROFILED_PASSES = (
    ("repro.core.model", "InteractionBCE"),
    ("repro.core.trainer", "_AnchorTerm"),
    ("repro.text.skipgram", "SkipgramBatch"),
    ("repro.transfer.mmd", "MMDBatch"),
)


class OpStat:
    """Accumulated cost of one pass kind."""

    __slots__ = ("op", "calls", "forward_seconds", "backward_calls",
                 "backward_seconds", "bytes_allocated")

    def __init__(self, op: str) -> None:
        self.op = op
        self.calls = 0
        self.forward_seconds = 0.0
        self.backward_calls = 0
        self.backward_seconds = 0.0
        self.bytes_allocated = 0

    @property
    def total_seconds(self) -> float:
        return self.forward_seconds + self.backward_seconds

    def __repr__(self) -> str:
        return (f"OpStat({self.op}, calls={self.calls}, "
                f"fwd={self.forward_seconds:.4g}s, "
                f"bwd={self.backward_seconds:.4g}s)")


class OpProfile:
    """Mutable pass → :class:`OpStat` table filled while armed."""

    def __init__(self) -> None:
        self.stats: Dict[str, OpStat] = {}

    def _stat(self, op: str) -> OpStat:
        stat = self.stats.get(op)
        if stat is None:
            stat = OpStat(op)
            self.stats[op] = stat
        return stat

    # ------------------------------------------------------------------
    @property
    def total_forward_seconds(self) -> float:
        return sum(s.forward_seconds for s in self.stats.values())

    @property
    def total_backward_seconds(self) -> float:
        return sum(s.backward_seconds for s in self.stats.values())

    @property
    def total_bytes_allocated(self) -> int:
        return sum(s.bytes_allocated for s in self.stats.values())

    def by_total_time(self) -> List[OpStat]:
        return sorted(self.stats.values(),
                      key=lambda s: s.total_seconds, reverse=True)

    def report(self, top: Optional[int] = None) -> str:
        """Table of per-pass forward/backward time and allocations."""
        rows = self.by_total_time()
        if top is not None:
            rows = rows[:top]
        lines = [
            "training pass profile  (allocations are backward "
            "gradients)",
            f"{'op':<16}{'calls':>8}{'fwd ms':>10}{'bwd ms':>10}"
            f"{'total ms':>10}{'alloc MB':>10}",
        ]
        for stat in rows:
            lines.append(
                f"{stat.op:<16}{stat.calls:>8}"
                f"{stat.forward_seconds * 1e3:>10.2f}"
                f"{stat.backward_seconds * 1e3:>10.2f}"
                f"{stat.total_seconds * 1e3:>10.2f}"
                f"{stat.bytes_allocated / 1e6:>10.2f}")
        lines.append(
            f"{'TOTAL':<16}{sum(s.calls for s in self.stats.values()):>8}"
            f"{self.total_forward_seconds * 1e3:>10.2f}"
            f"{self.total_backward_seconds * 1e3:>10.2f}"
            f"{(self.total_forward_seconds + self.total_backward_seconds) * 1e3:>10.2f}"
            f"{self.total_bytes_allocated / 1e6:>10.2f}")
        return "\n".join(lines)

    def to_registry(self, registry, prefix: str = "nn.op") -> None:
        """Mirror the table into a :class:`~repro.obs.metrics.
        MetricsRegistry` (one labelled series per op)."""
        for stat in self.stats.values():
            registry.counter(f"{prefix}.calls", op=stat.op).inc(stat.calls)
            registry.counter(f"{prefix}.forward_ms", op=stat.op).inc(
                stat.forward_seconds * 1e3)
            registry.counter(f"{prefix}.backward_ms", op=stat.op).inc(
                stat.backward_seconds * 1e3)
            registry.counter(f"{prefix}.alloc_bytes", op=stat.op).inc(
                stat.bytes_allocated)


def _wrap_init(orig: Callable, op: str, profile: OpProfile) -> Callable:
    @functools.wraps(orig)
    def timed(self, *args, **kwargs):
        started = time.perf_counter()
        orig(self, *args, **kwargs)
        stat = profile._stat(op)
        stat.calls += 1
        stat.forward_seconds += time.perf_counter() - started

    return timed


def _wrap_backward(orig: Callable, op: str,
                        profile: OpProfile) -> Callable:
    @functools.wraps(orig)
    def timed(self, *args, **kwargs):
        started = time.perf_counter()
        result = orig(self, *args, **kwargs)
        stat = profile._stat(op)
        stat.backward_calls += 1
        stat.backward_seconds += time.perf_counter() - started
        for g in result if isinstance(result, tuple) else (result,):
            for array in g if isinstance(g, list) else (g,):
                if isinstance(array, np.ndarray):
                    stat.bytes_allocated += array.nbytes
        return result

    return timed


class profile_ops:
    """Context manager arming the pass profiler (reusable, not
    reentrant).

    Patches every pass in :data:`PROFILED_PASSES` on entry and restores
    the original methods on exit, even when the block raises.
    """

    def __init__(self) -> None:
        self.profile = OpProfile()
        self._originals: Dict[str, Callable] = {}

    def __enter__(self) -> OpProfile:
        if self._originals:
            raise RuntimeError("profile_ops is not reentrant")
        for module, name in PROFILED_PASSES:
            cls = getattr(importlib.import_module(module), name)
            op = name.lstrip("_")
            self._patch(cls, "__init__", _wrap_init, op)
            self._patch(cls, "backward", _wrap_backward, op)
        return self.profile

    def _patch(self, cls: type, attr: str, wrap: Callable, op: str) -> None:
        orig = cls.__dict__[attr]
        self._originals[(cls, attr)] = orig
        setattr(cls, attr, wrap(orig, op, self.profile))

    def __exit__(self, *exc_info) -> None:
        for (cls, attr), orig in self._originals.items():
            setattr(cls, attr, orig)
        self._originals = {}
