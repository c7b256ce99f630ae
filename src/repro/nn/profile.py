"""Opt-in autograd op profiler: per-op forward/backward time + allocations.

:func:`profile_ops` patches the :class:`~repro.nn.tensor.Tensor` op set
with timing wrappers for the duration of a ``with`` block and restores
the originals afterwards — when no profile is active the tensor code
runs untouched, so the hook costs nothing unless armed.

Attribution is *self time*: ops that are implemented in terms of other
ops (``mean`` = ``sum`` + ``__mul__``, ``sqrt`` = ``__pow__``) report
only the time not already attributed to their callees, so the table's
forward column sums to the real instrumented wall time instead of
double counting.  Backward time is captured by wrapping each produced
node's ``_backward`` closure; allocations count the true bytes of
every forward output array *and* every gradient array the backward
closures produce — an f32 run therefore reports half the footprint of
the f64 reference, not a dtype-blind element count.

The trainer's joint step runs no tensor ops: each term is a closed-form
numpy pass (:data:`PROFILED_PASSES`).  The profiler counts each pass as
one op named after its class: construction is its forward, its
``backward`` method its backward, and its allocations are the arrays
that ``backward`` returns.

The profiler is designed for the single-threaded training hot path; do
not arm it while another thread is running tensor ops.

    from repro.nn.profile import profile_ops

    with profile_ops() as prof:
        loss = model(...)
        loss.backward()
    print(prof.report())
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.nn.tensor import Tensor

__all__ = ["OpStat", "OpProfile", "profile_ops", "PROFILED_OPS",
           "PROFILED_PASSES"]

# Every differentiable op the tensor exposes; each gets a timing wrapper.
PROFILED_OPS = (
    "__add__", "__sub__", "__rsub__", "__mul__", "__truediv__",
    "__rtruediv__", "__neg__", "__pow__", "__matmul__", "__getitem__",
    "exp", "log", "tanh", "relu", "sigmoid", "log_sigmoid", "clip",
    "abs", "sum", "mean", "max", "reshape", "transpose", "gather_rows",
)

# The tape-free passes of the trainer's joint step, as (module, class).
PROFILED_PASSES = (
    ("repro.core.model", "InteractionBCE"),
    ("repro.core.trainer", "_AnchorTerm"),
    ("repro.text.skipgram", "SkipgramBatch"),
    ("repro.transfer.mmd", "MMDBatch"),
)


class OpStat:
    """Accumulated cost of one op kind."""

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
    """Mutable op → :class:`OpStat` table filled while armed."""

    def __init__(self) -> None:
        self.stats: Dict[str, OpStat] = {}
        # Per-frame accumulator of child op time, for self-time math.
        self._frames: List[float] = []

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
        """Table of per-op forward/backward self time and allocations."""
        rows = self.by_total_time()
        if top is not None:
            rows = rows[:top]
        lines = [
            "autograd op profile  (self time; allocations are forward "
            "outputs + backward gradients)",
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


def _wrap_forward(orig: Callable, op: str, profile: OpProfile) -> Callable:
    @functools.wraps(orig)
    def timed(self, *args, **kwargs):
        frames = profile._frames
        frames.append(0.0)
        started = time.perf_counter()
        out = orig(self, *args, **kwargs)
        elapsed = time.perf_counter() - started
        child_time = frames.pop()
        if frames:
            frames[-1] += elapsed
        stat = profile._stat(op)
        stat.calls += 1
        stat.forward_seconds += elapsed - child_time
        if isinstance(out, Tensor):
            stat.bytes_allocated += out.data.nbytes
            if out._backward is not None:
                out._backward = _wrap_backward(out._backward, op, profile)
        return out

    return timed


def _wrap_backward(orig: Callable, op: str, profile: OpProfile) -> Callable:
    def timed_backward(grad):
        started = time.perf_counter()
        result = orig(grad)
        elapsed = time.perf_counter() - started
        stat = profile._stat(op)
        stat.backward_calls += 1
        stat.backward_seconds += elapsed
        for g in result:
            if g is not None:
                stat.bytes_allocated += g.nbytes
        return result

    return timed_backward


def _wrap_pass_backward(orig: Callable, op: str,
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
    """Context manager arming the op profiler (reusable, not reentrant).

    Patches every op in :data:`PROFILED_OPS` on entry and restores the
    original methods on exit, even when the block raises.
    """

    def __init__(self) -> None:
        self.profile = OpProfile()
        self._originals: Dict[str, Callable] = {}

    def __enter__(self) -> OpProfile:
        if self._originals:
            raise RuntimeError("profile_ops is not reentrant")
        for op in PROFILED_OPS:
            self._patch(Tensor, op, _wrap_forward, op)
        for module, name in PROFILED_PASSES:
            cls = getattr(importlib.import_module(module), name)
            op = name.lstrip("_")
            self._patch(cls, "__init__", _wrap_forward, op)
            self._patch(cls, "backward", _wrap_pass_backward, op)
        return self.profile

    def _patch(self, cls: type, attr: str, wrap: Callable, op: str) -> None:
        orig = cls.__dict__[attr]
        self._originals[(cls, attr)] = orig
        setattr(cls, attr, wrap(orig, op, self.profile))

    def __exit__(self, *exc_info) -> None:
        for (cls, attr), orig in self._originals.items():
            setattr(cls, attr, orig)
        self._originals = {}
