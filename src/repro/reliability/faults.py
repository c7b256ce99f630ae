"""Deterministic fault injection for multi-process training.

Testing a supervisor against *real* infrastructure failures (OOM kills,
hung nodes, NaN-producing batches) is inherently flaky, so every failure
mode is modelled as a :class:`Fault` pinned to an exact ``(worker,
step)`` coordinate.  A :class:`FaultPlan` is handed to each worker
replica, which consults it once per training step:

* ``crash`` — the worker SIGKILLs itself (the abrupt-death case: no
  goodbye message, the master sees EOF on the pipe);
* ``hang``  — the worker sleeps past the supervisor's step timeout
  (the stuck-replica case: the process is alive but silent);
* ``delay`` — the worker sleeps *within* the timeout (a slow replica
  that must not be treated as dead);
* ``nan_grad`` — the worker reports all-NaN gradients (a poisoned
  batch that the master's gradient guard must reject).

Faults fire only in a worker's **first incarnation**: the supervisor
spawns replacements without a plan, so an injected crash cannot put a
respawned worker into a crash loop.  Because the trigger is an exact
step coordinate, every fault-handling path is unit-testable with zero
nondeterminism.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Tuple

FAULT_KINDS = ("crash", "hang", "delay", "nan_grad")


@dataclass(frozen=True)
class Fault:
    """One injected failure at an exact ``(worker, step)`` coordinate.

    Parameters
    ----------
    kind:
        One of ``crash``, ``hang``, ``delay``, ``nan_grad``.
    worker:
        Replica index the fault targets (0-based).
    step:
        Global training step (master step counter) at which it fires.
    seconds:
        Sleep duration for ``hang``/``delay`` faults.
    """

    kind: str
    worker: int
    step: int
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{FAULT_KINDS}")
        if self.worker < 0:
            raise ValueError(f"worker must be >= 0, got {self.worker}")
        if self.step < 0:
            raise ValueError(f"step must be >= 0, got {self.step}")
        if self.kind in ("hang", "delay") and self.seconds <= 0:
            raise ValueError(
                f"{self.kind} fault needs seconds > 0, got {self.seconds}")

    # Convenience constructors ----------------------------------------
    @classmethod
    def crash(cls, worker: int, step: int) -> "Fault":
        return cls("crash", worker, step)

    @classmethod
    def hang(cls, worker: int, step: int, seconds: float) -> "Fault":
        return cls("hang", worker, step, seconds)

    @classmethod
    def delay(cls, worker: int, step: int, seconds: float) -> "Fault":
        return cls("delay", worker, step, seconds)

    @classmethod
    def nan_grad(cls, worker: int, step: int) -> "Fault":
        return cls("nan_grad", worker, step)


class FaultPlan:
    """An immutable schedule of faults, indexed by ``(worker, step)``.

    The plan is picklable (it rides into worker processes) and purely
    declarative; execution happens in :meth:`execute_pre_step` and via
    :meth:`wants_nan_gradients` inside the worker loop.
    """

    def __init__(self, faults: Iterable[Fault] = ()) -> None:
        self._faults: List[Fault] = list(faults)
        self._by_coord: Dict[Tuple[int, int], List[Fault]] = {}
        for fault in self._faults:
            self._by_coord.setdefault((fault.worker, fault.step),
                                      []).append(fault)

    def __len__(self) -> int:
        return len(self._faults)

    def __iter__(self) -> Iterator[Fault]:
        return iter(self._faults)

    def lookup(self, worker: int, step: int) -> List[Fault]:
        """All faults scheduled for this worker at this global step."""
        return list(self._by_coord.get((worker, step), ()))

    def execute_pre_step(self, worker: int, step: int) -> None:
        """Run crash/hang/delay faults due at ``(worker, step)``.

        ``crash`` delivers SIGKILL to the calling process — the hardest
        possible death, indistinguishable from an OOM kill.  ``hang``
        and ``delay`` both sleep; the difference is only in intent (a
        hang is sized to exceed the supervisor's timeout).
        """
        for fault in self.lookup(worker, step):
            if fault.kind == "crash":
                os.kill(os.getpid(), signal.SIGKILL)
            elif fault.kind in ("hang", "delay"):
                time.sleep(fault.seconds)

    def wants_nan_gradients(self, worker: int, step: int) -> bool:
        """True if a ``nan_grad`` fault is due at ``(worker, step)``."""
        return any(f.kind == "nan_grad" for f in self.lookup(worker, step))

    def __repr__(self) -> str:
        return f"FaultPlan({self._faults!r})"


# ----------------------------------------------------------------------
# Serving-tier faults: windows of requests instead of single steps.
# ----------------------------------------------------------------------

WINDOW_FAULT_KINDS = ("slow", "jitter", "flap", "crash")

# Knuth's multiplicative constants — the same family the fleet's user
# partitioner uses — give a cheap deterministic per-request hash for
# jitter without touching any RNG state in the shard process.
_JITTER_MULT = 2654435761
_JITTER_WORKER_MULT = 40503


@dataclass(frozen=True)
class WindowFault:
    """One serving-tier fault active over a *window* of requests.

    Training faults fire at one exact step; serving faults are
    conditions that persist — a shard is slow for a while, flaps, or
    dies under load.  A window fault is keyed ``(worker, [start,
    stop))`` on the shard's request sequence number and fires on every
    request inside the window (modulated per kind).

    Parameters
    ----------
    kind:
        ``slow``   — add ``seconds`` of latency to every request in the
        window (a degraded shard: think page-cache loss or a noisy
        neighbour);
        ``jitter`` — add a deterministic pseudo-random fraction of
        ``seconds`` per request (tail-latency noise);
        ``flap``   — alternate ``period`` slow requests with ``period``
        fast ones (a link or GC flapping);
        ``crash``  — SIGKILL the shard on the first request inside the
        window (death *under load*, after serving ``start`` requests).
    worker:
        Shard index the fault targets (0-based).
    start / stop:
        Request-sequence window ``[start, stop)`` on that shard.
    seconds:
        Added latency (full for ``slow``/``flap``, maximum for
        ``jitter``); unused for ``crash``.
    period:
        Flap half-period in requests (``flap`` only).
    seed:
        Perturbs the ``jitter`` hash so two jitter faults differ.
    """

    kind: str
    worker: int
    start: int
    stop: int
    seconds: float = 0.0
    period: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in WINDOW_FAULT_KINDS:
            raise ValueError(
                f"unknown window fault kind {self.kind!r}; expected one "
                f"of {WINDOW_FAULT_KINDS}")
        if self.worker < 0:
            raise ValueError(f"worker must be >= 0, got {self.worker}")
        if not 0 <= self.start < self.stop:
            raise ValueError(
                f"need 0 <= start < stop, got [{self.start}, {self.stop})")
        if self.kind in ("slow", "jitter", "flap") and self.seconds <= 0:
            raise ValueError(
                f"{self.kind} fault needs seconds > 0, got {self.seconds}")
        if self.kind == "flap" and self.period < 1:
            raise ValueError(f"period must be >= 1, got {self.period}")

    def active(self, worker: int, seq: int) -> bool:
        """Is this fault in force for request ``seq`` on ``worker``?"""
        return worker == self.worker and self.start <= seq < self.stop

    def delay_seconds(self, seq: int) -> float:
        """Latency this fault adds to request ``seq`` (0 for crash)."""
        if self.kind == "slow":
            return self.seconds
        if self.kind == "jitter":
            h = (seq * _JITTER_MULT + self.worker * _JITTER_WORKER_MULT
                 + self.seed) & 0xFFFF
            return self.seconds * (h / float(0xFFFF))
        if self.kind == "flap":
            phase = (seq - self.start) // self.period
            return self.seconds if phase % 2 == 0 else 0.0
        return 0.0

    # Convenience constructors ----------------------------------------
    @classmethod
    def slow_shard(cls, worker: int, start: int, stop: int,
                   seconds: float) -> "WindowFault":
        return cls("slow", worker, start, stop, seconds)

    @classmethod
    def jittered_delay(cls, worker: int, start: int, stop: int,
                       seconds: float, seed: int = 0) -> "WindowFault":
        return cls("jitter", worker, start, stop, seconds, seed=seed)

    @classmethod
    def flapping(cls, worker: int, start: int, stop: int, seconds: float,
                 period: int = 2) -> "WindowFault":
        return cls("flap", worker, start, stop, seconds, period=period)

    @classmethod
    def crash_under_load(cls, worker: int, start: int,
                         stop: int) -> "WindowFault":
        return cls("crash", worker, start, stop)


class ChaosPlan(FaultPlan):
    """A :class:`FaultPlan` that also carries serving window faults.

    Shard serve loops call the same ``execute_pre_step(shard, seq)``
    hook as training workers, so a ``ChaosPlan`` drops into the
    existing fleet plumbing unchanged: point faults (``Fault``) fire at
    exact sequence numbers, window faults (:class:`WindowFault`) fire
    across ranges.  Like every plan, it rides only into a shard's
    **first incarnation** — a respawned shard carries no plan, which is
    exactly what lets a chaos run observe recovery.
    """

    def __init__(self, faults: Iterable[Fault] = (),
                 windows: Iterable[WindowFault] = ()) -> None:
        super().__init__(faults)
        self._windows: List[WindowFault] = list(windows)

    @property
    def windows(self) -> List[WindowFault]:
        return list(self._windows)

    def active_windows(self, worker: int, seq: int) -> List[WindowFault]:
        """Window faults in force for request ``seq`` on ``worker``."""
        return [w for w in self._windows if w.active(worker, seq)]

    def execute_pre_step(self, worker: int, step: int) -> None:
        delay = 0.0
        for fault in self.active_windows(worker, step):
            if fault.kind == "crash":
                os.kill(os.getpid(), signal.SIGKILL)
            delay += fault.delay_seconds(step)
        if delay > 0:
            time.sleep(delay)
        super().execute_pre_step(worker, step)

    def __repr__(self) -> str:
        return (f"ChaosPlan(faults={self._faults!r}, "
                f"windows={self._windows!r})")
