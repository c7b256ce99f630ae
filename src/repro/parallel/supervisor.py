"""Worker supervision for the data-parallel trainer.

The original gather loop did a blind ``pipe.recv()`` per worker: one
killed or hung replica deadlocked training forever.  The supervisor
replaces it with a liveness protocol:

* **gather with a deadline** — each worker's pipe is polled against a
  shared per-step deadline instead of blocking indefinitely;
* **death detection** — EOF/closed-pipe on recv, or a send failure on
  broadcast, marks the replica dead (crash);
* **hang detection** — a replica that is alive but silent past the
  deadline is SIGKILLed and treated like a crash;
* **bounded respawn** — each worker slot gets ``max_respawns``
  replacements with linear backoff; replacements join at the *next*
  step (the failed step simply loses their contribution, and the
  master rescales the gradient average over the replies it did get);
* **graceful degradation** — a slot whose budget is exhausted is
  removed permanently and training continues on fewer replicas;
* **total loss** — when the last slot dies, :class:`WorkerFailure`
  names the worker and step instead of leaking a raw pipe exception.

Every event is recorded in the per-epoch :class:`FaultStats` that the
trainer attaches to its epoch stats.

Waking workers
--------------
A Linux pipe (or Unix-socket) write wakes its reader with a "sync" hint
that places it on the writer's CPU.  When the master broadcast a step
through the pipes, the first worker it woke preempted it on its own CPU
before it had woken the next, while the other CPU sat idle.  A worker
spawned with a :class:`StepWake` is woken through an ``eventfd``
instead, whose write carries no such hint, so it starts on the idle
CPU.  The pipe stays the channel for replies and control messages, and
a waiting worker still watches it: EOF (the master died) ends the wait
as before.
"""

from __future__ import annotations

import os
import select
import time
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Callable, Dict, List, Optional, Tuple

from repro.utils.logging import get_logger

logger = get_logger("parallel.supervisor")

# (worker_id, incarnation) -> (master_pipe_end, process), optionally
# followed by the worker's StepWake
SpawnFn = Callable[[int, int], Tuple]

# Seconds a waiting worker sleeps between checks that its parent lives.
_ORPHAN_CHECK_S = 1.0


class StepWake:
    """Wakes one worker for a step through an ``eventfd``.

    The counter carries ``step + 1`` (the step's payload travels out of
    band, in shared memory).  The master posts once per step and the
    worker reads once per step, so a read never sums two posts.  See the
    module docstring for why this is not the pipe.
    """

    def __init__(self) -> None:
        self.fd = os.eventfd(0)
        # Built in the master before the worker is spawned, so this is
        # the pid a worker's parent must keep.
        self.master_pid = os.getpid()

    @staticmethod
    def create() -> Optional["StepWake"]:
        """A fresh wake, or ``None`` where the platform has no eventfd."""
        return StepWake() if hasattr(os, "eventfd") else None

    def post(self, step: int) -> None:
        os.eventfd_write(self.fd, step + 1)

    def wait(self, pipe):
        """Worker side: block until a step or a pipe message arrives.

        Returns ``(step, None)`` for a wake, else the pipe message;
        raises ``EOFError`` when the pipe closes or the parent process
        is no longer the master that spawned it (an orphan whose master
        was SIGKILLed leaves on its own).
        """
        poller = select.poll()
        poller.register(self.fd, select.POLLIN)
        poller.register(pipe.fileno(), select.POLLIN)
        while True:
            ready = {fd for fd, _ in poller.poll(_ORPHAN_CHECK_S * 1000)}
            if self.fd in ready:
                return os.eventfd_read(self.fd) - 1, None
            if ready:
                return pipe.recv()
            if os.getppid() != self.master_pid:
                raise EOFError("parent process exited")

    def close(self) -> None:
        try:
            os.close(self.fd)
        except OSError:
            pass


class WorkerFailure(RuntimeError):
    """Unrecoverable replica loss, naming the worker and step."""

    def __init__(self, step: int, worker_id: Optional[int] = None,
                 reason: str = "worker failed") -> None:
        who = f"worker {worker_id}" if worker_id is not None else "workers"
        super().__init__(f"{reason} ({who}, step {step})")
        self.step = step
        self.worker_id = worker_id
        self.reason = reason


@dataclass
class FaultStats:
    """Counts of supervision and guard events over one epoch."""

    crashes: int = 0
    hangs: int = 0
    respawns: int = 0
    removals: int = 0
    restarts: int = 0
    nonfinite_contributions: int = 0
    skipped_steps: int = 0
    events: List[str] = field(default_factory=list)

    @property
    def total_faults(self) -> int:
        return (self.crashes + self.hangs
                + self.nonfinite_contributions + self.skipped_steps)

    def record(self, message: str) -> None:
        self.events.append(message)
        logger.warning(message)

    def merged_with(self, other: "FaultStats") -> "FaultStats":
        """Element-wise sum (for aggregating across epochs)."""
        return FaultStats(
            crashes=self.crashes + other.crashes,
            hangs=self.hangs + other.hangs,
            respawns=self.respawns + other.respawns,
            removals=self.removals + other.removals,
            restarts=self.restarts + other.restarts,
            nonfinite_contributions=(self.nonfinite_contributions
                                     + other.nonfinite_contributions),
            skipped_steps=self.skipped_steps + other.skipped_steps,
            events=self.events + other.events,
        )


@dataclass(frozen=True)
class SupervisionConfig:
    """Supervision policy knobs.

    Parameters
    ----------
    step_timeout:
        Seconds the master waits for all replies to one step before
        declaring the silent replicas hung.
    max_respawns:
        Replacement budget per worker slot; once exhausted the slot is
        removed and training degrades to fewer replicas.
    respawn_backoff:
        Base seconds slept before the n-th respawn of a slot (linear:
        ``n * respawn_backoff``), so a systematically-crashing slot
        does not busy-loop through its budget.
    """

    step_timeout: float = 30.0
    max_respawns: int = 2
    respawn_backoff: float = 0.05

    def __post_init__(self) -> None:
        if self.step_timeout <= 0:
            raise ValueError(
                f"step_timeout must be positive, got {self.step_timeout}")
        if self.max_respawns < 0:
            raise ValueError(
                f"max_respawns must be >= 0, got {self.max_respawns}")
        if self.respawn_backoff < 0:
            raise ValueError(
                f"respawn_backoff must be >= 0, got {self.respawn_backoff}")


@dataclass
class _Handle:
    worker_id: int
    incarnation: int
    pipe: object
    process: object
    wake: Optional[StepWake] = None


class WorkerSupervisor:
    """Owns the worker processes and the failure-handling policy.

    Parameters
    ----------
    spawn:
        ``spawn(worker_id, incarnation)`` returning the master-side
        pipe end and the started process, and optionally the worker's
        :class:`StepWake`.  Incarnation 0 is the original replica;
        respawns count up from 1 (and, by contract with
        :class:`repro.reliability.faults.FaultPlan`, carry no fault
        plan).
    num_workers:
        Number of worker slots.
    supervision:
        Policy knobs (timeouts, respawn budget, backoff).
    span_recorder:
        Optional :class:`~repro.obs.spans.SpanRecorder`; when set, the
        supervisor emits a process-level span event (category
        ``supervise``) for every lifecycle transition — hung, restart,
        respawn, removal — so request traces can be correlated with
        the worker churn that shaped them.
    """

    def __init__(self, spawn: SpawnFn, num_workers: int,
                 supervision: Optional[SupervisionConfig] = None,
                 span_recorder=None) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self._spawn = spawn
        self.num_workers = num_workers
        self.supervision = supervision or SupervisionConfig()
        self.span_recorder = span_recorder
        self.stats = FaultStats()
        self._handles: Dict[int, _Handle] = {}
        self._respawns_used: Dict[int, int] = {w: 0 for w in
                                               range(num_workers)}
        self._removed: set = set()

    # ------------------------------------------------------------------
    @property
    def num_live(self) -> int:
        return len(self._handles)

    @property
    def live_worker_ids(self) -> List[int]:
        return sorted(self._handles)

    def start(self) -> None:
        for worker_id in range(self.num_workers):
            self._handles[worker_id] = _Handle(worker_id, 0,
                                               *self._spawn(worker_id, 0))

    # ------------------------------------------------------------------
    def broadcast(self, payload, step: int) -> List[int]:
        """Send ``payload`` to every live worker.

        Returns the worker ids a reply is expected from this step; a
        slot whose pipe breaks on send is handled (respawned or
        removed) and excluded — its replacement joins at the next
        broadcast.  A worker spawned with a :class:`StepWake` is woken
        through it and receives only ``step``; its payload must travel
        out of band (the shared params block).  A dead worker then
        surfaces at gather, as EOF on its pipe.
        """
        expected: List[int] = []
        for worker_id in list(self._handles):
            handle = self._handles[worker_id]
            try:
                if handle.wake is not None:
                    handle.wake.post(step)
                else:
                    handle.pipe.send(payload)
                expected.append(worker_id)
            except (BrokenPipeError, OSError):
                self.stats.crashes += 1
                self.stats.record(
                    f"worker {worker_id} dead at send (step {step})")
                self._dispose(handle)
                self._respawn_or_remove(worker_id, step)
        if not self._handles:
            raise WorkerFailure(step, reason="all replicas lost")
        return expected

    def send_to(self, worker_id: int, payload, step: int) -> bool:
        """Send ``payload`` to one live worker (scatter pattern).

        The serving-fleet router partitions work across workers, so
        unlike :meth:`broadcast` each worker gets its own payload.
        Returns ``True`` when the send succeeded (a reply is expected);
        a dead pipe is handled exactly like a broadcast-time death —
        respawn or removal — and ``False`` is returned so the caller
        can re-route the payload to a surviving worker.
        """
        handle = self._handles.get(worker_id)
        if handle is None:
            return False
        try:
            handle.pipe.send(payload)
            return True
        except (BrokenPipeError, OSError):
            self.stats.crashes += 1
            self.stats.record(
                f"worker {worker_id} dead at send (step {step})")
            self._dispose(handle)
            self._respawn_or_remove(worker_id, step)
            if not self._handles:
                raise WorkerFailure(step, reason="all replicas lost")
            return False

    def gather(self, expected: List[int], step: int) -> List[object]:
        """Collect one reply per expected worker, against a shared deadline.

        Silent-but-alive replicas past the deadline are killed as hung;
        dead pipes are recorded as crashes.  Either way the slot is
        respawned (or removed once its budget is spent) and the step
        proceeds with the replies that did arrive.
        """
        deadline = time.monotonic() + self.supervision.step_timeout
        replies: List[object] = []
        for worker_id in expected:
            handle = self._handles.get(worker_id)
            if handle is None:          # removed while we were gathering
                continue
            remaining = max(0.0, deadline - time.monotonic())
            try:
                ready = handle.pipe.poll(remaining)
            except (BrokenPipeError, OSError):
                ready = False
            if ready:
                try:
                    replies.append(handle.pipe.recv())
                    continue
                except (EOFError, OSError):
                    self.stats.crashes += 1
                    self.stats.record(
                        f"worker {worker_id} crashed (step {step})")
            elif handle.process.is_alive():
                self.stats.hangs += 1
                self.stats.record(
                    f"worker {worker_id} hung past "
                    f"{self.supervision.step_timeout:.2f}s (step {step}); "
                    f"killing")
                handle.process.kill()
            else:
                self.stats.crashes += 1
                self.stats.record(
                    f"worker {worker_id} found dead (step {step})")
            self._dispose(handle)
            self._respawn_or_remove(worker_id, step)
        if not self._handles:
            raise WorkerFailure(step, reason="all replicas lost")
        return replies

    # ------------------------------------------------------------------
    # Event-loop primitives for the resilient serving path.  The gather
    # protocol above is step-synchronous (one reply per worker per
    # step); a deadline-driven request loop instead needs to harvest
    # whichever reply arrives first, declare individual attempts hung,
    # and proactively recycle a shard the circuit breaker gave up on.

    def try_recv(self, worker_id: int, step: int,
                 timeout: float = 0.0) -> Tuple[str, object]:
        """Poll one worker for a single reply without a shared deadline.

        Returns ``(status, message)`` where status is ``"message"`` (a
        reply was read), ``"empty"`` (alive but nothing queued within
        ``timeout``), or ``"dead"`` (the pipe broke — the slot is
        disposed and respawned/removed exactly like a gather-time
        crash, so a replacement joins for future requests).
        """
        handle = self._handles.get(worker_id)
        if handle is None:
            return "dead", None
        try:
            if handle.pipe.poll(timeout):
                return "message", handle.pipe.recv()
            return "empty", None
        except (EOFError, BrokenPipeError, OSError):
            self.stats.crashes += 1
            self.stats.record(
                f"worker {worker_id} crashed (step {step})")
            self._dispose(handle)
            self._respawn_or_remove(worker_id, step)
            return "dead", None

    def wait_any(self, worker_ids: List[int],
                 timeout: float) -> List[int]:
        """Worker ids with a readable pipe, waiting up to ``timeout``.

        A thin wrapper over :func:`multiprocessing.connection.wait`, so
        one slow shard never serialises reads from the fast ones.  Ids
        without a live handle are ignored; readability includes EOF
        (the subsequent :meth:`try_recv` classifies dead vs. message).
        """
        pipes = {}
        for worker_id in worker_ids:
            handle = self._handles.get(worker_id)
            if handle is not None:
                pipes[handle.pipe] = worker_id
        if not pipes:
            return []
        try:
            ready = mp_connection.wait(list(pipes), timeout=timeout)
        except OSError:
            return list(pipes.values())
        return [pipes[conn] for conn in ready]

    def declare_hung(self, worker_id: int, step: int) -> None:
        """Kill a silent-but-alive worker and respawn/remove its slot.

        The per-request analogue of gather's deadline escalation: the
        caller decided this worker blew its (hop) timeout.
        """
        handle = self._handles.get(worker_id)
        if handle is None:
            return
        if handle.process.is_alive():
            self.stats.hangs += 1
            self.stats.record(
                f"worker {worker_id} declared hung (step {step}); killing")
            self._span("worker_hung", worker=worker_id, step=step,
                       incarnation=handle.incarnation)
            handle.process.kill()
        else:
            self.stats.crashes += 1
            self.stats.record(
                f"worker {worker_id} found dead (step {step})")
        self._dispose(handle)
        self._respawn_or_remove(worker_id, step)

    def restart_worker(self, worker_id: int, step: int,
                       reason: str = "restart requested") -> bool:
        """Proactively recycle a live worker (circuit-breaker feed).

        Kills the current incarnation and spends one unit of the slot's
        respawn budget on a replacement.  Returns ``True`` when the
        slot survives (a fresh incarnation is live), ``False`` when the
        budget was exhausted and the slot was removed.
        """
        handle = self._handles.get(worker_id)
        if handle is None:
            return False
        self.stats.restarts += 1
        self.stats.record(
            f"worker {worker_id} restarted: {reason} (step {step})")
        self._span("worker_restart", worker=worker_id, step=step,
                   incarnation=handle.incarnation, reason=reason)
        handle.process.kill()
        self._dispose(handle)
        self._respawn_or_remove(worker_id, step)
        return worker_id in self._handles

    def slot_states(self) -> Dict[int, str]:
        """Human-readable state of every worker slot (for diagnostics)."""
        states: Dict[int, str] = {}
        for worker_id in range(self.num_workers):
            handle = self._handles.get(worker_id)
            if handle is not None:
                alive = ("alive" if handle.process.is_alive() else "dead")
                states[worker_id] = (
                    f"live (incarnation {handle.incarnation}, {alive})")
            elif worker_id in self._removed:
                used = self._respawns_used.get(worker_id, 0)
                states[worker_id] = f"removed after {used} respawns"
            else:
                states[worker_id] = "lost"
        return states

    def _span(self, name: str, **attrs) -> None:
        """Emit a supervise-category lifecycle event, if tracing."""
        if self.span_recorder is not None:
            self.span_recorder.emit_process(name, "supervise", **attrs)

    # ------------------------------------------------------------------
    def _dispose(self, handle: _Handle) -> None:
        self._handles.pop(handle.worker_id, None)
        try:
            handle.pipe.close()
        except OSError:
            pass
        if handle.wake is not None:
            handle.wake.close()
        handle.process.join(timeout=1.0)
        if handle.process.is_alive():
            handle.process.kill()
            handle.process.join(timeout=1.0)

    def _respawn_or_remove(self, worker_id: int, step: int) -> None:
        used = self._respawns_used[worker_id]
        if used >= self.supervision.max_respawns:
            self._removed.add(worker_id)
            self.stats.removals += 1
            self.stats.record(
                f"worker {worker_id} removed after {used} respawns "
                f"(step {step}); degrading to {self.num_live} replicas")
            self._span("worker_removed", worker=worker_id, step=step,
                       respawns_used=used)
            if not self._handles:
                raise WorkerFailure(
                    step, worker_id, "all replicas lost (budget exhausted)")
            return
        self._respawns_used[worker_id] = used + 1
        if self.supervision.respawn_backoff:
            time.sleep(self.supervision.respawn_backoff * (used + 1))
        incarnation = used + 1
        self._handles[worker_id] = _Handle(
            worker_id, incarnation, *self._spawn(worker_id, incarnation))
        self.stats.respawns += 1
        self.stats.record(
            f"worker {worker_id} respawned (incarnation {incarnation}, "
            f"step {step})")
        self._span("worker_respawn", worker=worker_id, step=step,
                   incarnation=incarnation)

    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Stop all workers (idempotent); never raises on broken pipes."""
        for handle in list(self._handles.values()):
            try:
                handle.pipe.send(None)
            except (BrokenPipeError, OSError):
                pass
        for handle in list(self._handles.values()):
            handle.process.join(timeout=5.0)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=1.0)
            try:
                handle.pipe.close()
            except OSError:
                pass
            if handle.wake is not None:
                handle.wake.close()
        self._handles = {}
