"""Synchronous data-parallel training (Table 2's multi-GPU substitute).

The paper trains ST-TransRec with TensorFlow data parallelism on two
GPUs and reports per-epoch wall time for one vs two devices.  The
mechanism — split each effective batch across replicas, compute
gradients independently, all-reduce (average), apply one identical
update — is reproduced here over ``multiprocessing`` worker processes:

* each worker holds a full model replica plus its own batch stream
  (independent RNG shard of the same training data);
* per step, the master broadcasts the current parameters, workers
  return gradients for one local batch each, and the master applies the
  averaged gradient with a single Adam step.

With W workers an epoch covers the same number of examples in ~1/W the
steps, so wall time drops roughly linearly while the update rule stays
mathematically identical to large-batch single-process training —
exactly the property Table 2 demonstrates.

One flat vector
---------------
Each model keeps its parameters in a :class:`~repro.nn.store.
ParameterStore`, one flat vector with a gradient buffer alike (the
fused buffer TensorFlow's all-reduce exchanges), and a step moves just
those.  The master broadcasts its store's data with one copy; each
worker loads it with one copy, runs :class:`~repro.core.model.
InteractionBCE` (closed numpy, with the bits of the autograd tape kept
in ``tests/oracle``) and writes the gradient straight into its slot —
the word table, which the interaction loss never reaches, as zeros.
The master guards each contribution with one ``isfinite``, averages
the usable ones with one stack-mean into its store's gradient buffer
(elementwise, hence bit-identical to averaging each parameter), and
:class:`~repro.nn.optim.Adam` steps it whole.  A one-worker run writes
its replica gradient into that buffer directly.  With shared memory,
workers are woken through a :class:`~repro.parallel.supervisor.
StepWake` instead of a pipe message (see that module for why).

Fault tolerance
---------------
Worker replicas are owned by a :class:`~repro.parallel.supervisor.
WorkerSupervisor`: gathers have deadlines, dead or hung replicas are
respawned under a bounded budget (then dropped, rescaling the gradient
average), and the per-epoch :class:`~repro.parallel.supervisor.
FaultStats` records every event.  Batch selection is a pure function of
the *master* step counter — each worker fast-forwards its deterministic
batch stream to the step index carried by every broadcast — so a
respawned (or resumed) replica consumes exactly the batches its
predecessor would have.  Combined with checkpoint format v2 (optimizer
moments + step counters + RNG state, see :mod:`repro.core.checkpoint`),
an interrupted run resumed via :meth:`DataParallelTrainer.train`'s
``resume_from`` finishes with bit-identical parameters.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.checkpoint import (
    TrainingState,
    load_training_checkpoint,
    save_checkpoint,
)
from repro.core.config import STTransRecConfig
from repro.core.model import InteractionBCE
from repro.core.trainer import (
    _EPOCH_SECONDS_BUCKETS,
    STTransRecTrainer,
    _Grads,
)
from repro.data.split import CrossingCitySplit
from repro.nn.backend import active_backend as _xp
from repro.nn.dtypes import set_default_dtype, using_dtype
from repro.obs.metrics import MetricsRegistry, exponential_buckets
from repro.obs.telemetry import Telemetry, span as _span
from repro.parallel.supervisor import (
    FaultStats,
    StepWake,
    SupervisionConfig,
    WorkerFailure,
    WorkerSupervisor,
)
from repro.perf.config import PerfConfig
from repro.perf.transport import ShmTransport, WorkerTransportClient
from repro.reliability.faults import FaultPlan
from repro.reliability.guards import GradientGuard, TrainingDiverged
from repro.utils.blas import limit_blas_threads
from repro.utils.logging import get_logger
from repro.utils.validation import check_positive

logger = get_logger("parallel")

_WORKER_SEED_BASE = 1000

# Worker/master step durations in milliseconds: 0.1 ms .. ~3.3 min.
_STEP_TIME_BUCKETS_MS = exponential_buckets(0.1, 2.0, 21)


@dataclass
class ParallelEpochStats:
    """Timing and reliability result of one data-parallel epoch."""

    num_workers: int
    steps: int
    seconds: float
    mean_loss: float
    faults: FaultStats = field(default_factory=FaultStats)

    @property
    def seconds_per_step(self) -> float:
        return self.seconds / self.steps if self.steps else 0.0


def _reseed_dropout(model, stream_id: int, step: int) -> None:
    """Make dropout masks a pure function of ``(stream_id, step)``.

    Sequentially-drawn dropout masks are hidden state: a respawned or
    resumed replica cannot cheaply replay the forward passes it missed,
    so its mask stream would silently diverge from the uninterrupted
    run.  Reseeding the model's shared dropout generator per step
    removes that state entirely — recovery stays bit-exact with
    dropout enabled.
    """
    fresh = np.random.default_rng((stream_id or 0, step))
    model.training_rng.bit_generator.state = fresh.bit_generator.state


def _interaction_batch_stream(trainer: STTransRecTrainer):
    """Endless stream of (users, pois, labels) batches.

    Pure function of ``(split, config, seed)``: batch *i* of the stream
    is identical across processes and across restarts, which is what
    makes step-aligned respawn and resume loss-neutral.
    """
    while True:
        for _name, batch in trainer._interaction_batches():
            yield batch


def _replica_grads(model, users: np.ndarray, pois: np.ndarray,
                   labels: np.ndarray, out: np.ndarray) -> float:
    """One replica's step: the interaction loss's gradient, into ``out``.

    ``out`` is a flat vector in the layout of the model's parameter
    store (its gradient buffer, or a worker's shared-memory slot).  It
    receives the gradient of the oracle's ``bce_with_logits(
    interaction_logits(model, users, pois), labels)`` (``tests/oracle``)
    in the model's current mode, with the bits its tape backward gives
    (``tests/test_parallel_equivalence.py::TestReplicaStep``): the
    user, POI and ``poi_bias`` rows scattered as the joint trainer
    scatters them, the tower's gradients as computed.  The word table
    is not reached, so its part is written as zeros.  Returns the loss.
    """
    step = InteractionBCE(model, users, pois, labels)
    grads = _Grads()
    grads.add_interaction(model, step, _xp().ones_like(step.loss))
    store = model.parameter_store()
    for p, view in zip(store.params, store.layout.views(out)):
        if grads.value(p, out=view) is None:
            view[...] = 0.0
    return float(step.loss)


def _worker_loop(pipe, split, config, worker_seed: int,
                 worker_id: int = 0,
                 fault_plan: Optional[FaultPlan] = None,
                 incarnation: int = 0,
                 transport_layout=None,
                 precision: str = "f64",
                 wake: Optional[StepWake] = None) -> None:
    """Worker process: recompute gradients for each parameter broadcast.

    Protocol: the master sends ``(step, params)`` per training step
    and ``None`` to shut down; the worker replies ``(grads, loss,
    telemetry)`` where ``params`` and ``grads`` are flat vectors in the
    layout of the model's :class:`~repro.nn.store.ParameterStore` and
    ``telemetry`` names the worker/incarnation and carries a cumulative
    :class:`~repro.obs.metrics.MetricsRegistry` snapshot (per-step
    compute-time histogram and step counter).  Because snapshots are
    cumulative and ride on every reply, the master always holds the
    *final* registry a replica produced before it crashed, hung, or was
    removed — degradation loses no telemetry.  The worker advances its
    batch stream to exactly ``step`` before drawing, so batch selection
    depends only on the master's counter — a replacement worker spawned
    mid-run replays the skipped prefix and lands on the same batch its
    predecessor would have used.

    With ``transport_layout`` set, the bulk payloads move through the
    shared-memory blocks it names instead of the pipe, and the step
    arrives through ``wake`` (a :class:`~repro.parallel.supervisor.
    StepWake`) rather than the pipe: parameters are read from the params
    block and the reply is sent as ``(None, loss, telemetry)`` after the
    gradient is written into this worker's slot.  The pipe ordering makes
    the slot handoff race-free (see :mod:`repro.perf.transport`).
    """
    limit_blas_threads()
    # The worker owns its process, so setting the process-global policy
    # (rather than a scoped override) keeps every array the replica ever
    # creates — batches, masks, intermediates — in the run's dtype.
    set_default_dtype(precision)
    worker_config = STTransRecConfig(**{
        **config.__dict__, "seed": worker_seed,
    })
    trainer = STTransRecTrainer(split, worker_config)
    model = trainer.model
    model.train()
    store = model.parameter_store()
    transport = None
    if transport_layout is not None:
        transport = WorkerTransportClient(transport_layout, worker_id)
    stream = _interaction_batch_stream(trainer)
    registry = MetricsRegistry()
    step_hist = registry.histogram("worker.step_time_ms",
                                   bounds=_STEP_TIME_BUCKETS_MS,
                                   worker=str(worker_id))
    step_counter = registry.counter("worker.steps", worker=str(worker_id))
    consumed = 0
    while True:
        try:
            message = pipe.recv() if wake is None else wake.wait(pipe)
        except (EOFError, OSError):
            return                      # master went away
        if message is None:
            pipe.close()
            return
        step, params = message
        started = time.perf_counter()
        # The master rewrites the params block only after this step's
        # reply, so it is copied out without an intermediate.
        store.data[...] = (transport.params_vector() if params is None
                           else params)
        params = None
        while consumed < step:          # fast-forward after respawn/resume
            next(stream)
            consumed += 1
        users, pois, labels = next(stream)
        consumed = step + 1
        if fault_plan is not None:
            fault_plan.execute_pre_step(worker_id, step)
        _reseed_dropout(model, worker_seed, step)
        flat = (transport.grad_vector() if transport is not None
                else store.grad)
        loss = _replica_grads(model, users, pois, labels, flat)
        if fault_plan is not None and \
                fault_plan.wants_nan_gradients(worker_id, step):
            flat.fill(np.nan)
        step_hist.observe((time.perf_counter() - started) * 1000.0)
        step_counter.inc()
        telemetry = {"worker": worker_id, "incarnation": incarnation,
                     "metrics": registry.to_dict()}
        reply = (None if transport is not None else flat, loss, telemetry)
        # Views of the shared blocks must not outlive the client that
        # maps them, or its close at exit fails.
        flat = None
        try:
            pipe.send(reply)
        except (BrokenPipeError, OSError):
            return


class DataParallelTrainer:
    """Trains the interaction objective with W supervised replicas.

    The timing benchmark isolates the interaction loss (the dominant
    cost term: O(D) examples per epoch through the MLP tower); the text
    and MMD terms parallelize identically, so speedup carries over.

    Parameters
    ----------
    split:
        Training split.
    config:
        Model configuration (one canonical model lives in the master).
    num_workers:
        Replica count; 1 runs in-process with no IPC (the single-GPU
        row of Table 2).
    fault_plan:
        Optional deterministic fault injection (testing only).  Crash
        and hang faults need worker processes; in-process mode applies
        only delay and NaN-gradient faults.
    supervision:
        Timeout / respawn-budget / backoff policy for worker replicas.
    telemetry:
        Optional :class:`~repro.obs.telemetry.Telemetry`.  The master
        records epoch spans, step-time histograms, and fault counters;
        worker replicas ship their own registries through the
        supervisor pipe (see :meth:`worker_registries`).
    perf:
        Transport and precision (:class:`~repro.perf.config.PerfConfig`).
        Defaults to the shared-memory gradient transport in f64; the
        pipe transport is bit-identical to it
        (``tests/test_perf_transport.py``).
    """

    def __init__(self, split: CrossingCitySplit, config: STTransRecConfig,
                 num_workers: int = 1,
                 fault_plan: Optional[FaultPlan] = None,
                 supervision: Optional[SupervisionConfig] = None,
                 telemetry: Optional[Telemetry] = None,
                 perf: Optional[PerfConfig] = None) -> None:
        check_positive("num_workers", num_workers)
        self.split = split
        self.config = config
        self.num_workers = num_workers
        self.fault_plan = fault_plan
        self.supervision = supervision or SupervisionConfig()
        self.telemetry = telemetry
        self.perf = perf or PerfConfig()
        # (worker_id, incarnation) -> latest cumulative registry dict.
        # Replacement incarnations start fresh registries, so retaining
        # each incarnation's newest snapshot keeps a removed replica's
        # final metrics in the aggregate.
        self._worker_snapshots: dict = {}
        with using_dtype(self.perf.precision):
            self._master = STTransRecTrainer(split, config)
            self.model = self._master.model
            self.optimizer = self._master.optimizer
        self._examples_per_epoch = self._count_epoch_examples()
        self._guard = GradientGuard()
        self._global_step = 0
        self._epochs_completed = 0
        self.last_fault_stats: Optional[FaultStats] = None
        self._supervisor: Optional[WorkerSupervisor] = None
        self._local_stream = None
        self._transport: Optional[ShmTransport] = None
        if num_workers > 1:
            self._transport = self._create_transport()
            self._supervisor = WorkerSupervisor(
                self._spawn_worker, num_workers, self.supervision)
            self._supervisor.start()
        else:
            self.model.train()
            self._local_stream = _interaction_batch_stream(self._master)

    def _create_transport(self) -> Optional[ShmTransport]:
        """Preallocate the shared-memory blocks, or fall back to pipes.

        ``transport="auto"`` degrades silently (warning logged) when
        segment creation fails — e.g. no ``/dev/shm`` or exhausted
        limits; ``"shm"`` propagates the failure; ``"pipe"`` never
        tries.
        """
        if self.perf.transport == "pipe":
            return None
        try:
            return ShmTransport(self.optimizer.store.layout,
                                self.num_workers)
        except Exception as exc:
            if self.perf.transport == "shm":
                raise
            logger.warning(
                "shared-memory transport unavailable (%r); "
                "falling back to pipe transport", exc)
            return None

    def _count_epoch_examples(self) -> int:
        total = len(self._master.target_interactions)
        for sampler in self._master.source_interactions:
            total += len(sampler)
        return total * (1 + self.config.num_negatives)

    def _spawn_worker(self, worker_id: int, incarnation: int):
        """Start one replica; respawns (incarnation > 0) carry no faults.

        With shared memory the step's payload is in the params block, so
        the worker is woken through a :class:`~repro.parallel.supervisor.
        StepWake` rather than a pipe message.
        """
        ctx = mp.get_context("fork")
        parent, child = ctx.Pipe()
        plan = self.fault_plan if incarnation == 0 else None
        layout, wake = None, None
        if self._transport is not None:
            layout, wake = self._transport.layout, StepWake.create()
        process = ctx.Process(
            target=_worker_loop,
            args=(child, self.split, self.config,
                  _WORKER_SEED_BASE + worker_id, worker_id, plan,
                  incarnation, layout, self.perf.precision, wake),
            daemon=True,
        )
        process.start()
        # The master must not hold the child end open, or a dead worker
        # never produces EOF and liveness detection degrades to timeouts.
        child.close()
        return parent, process, wake

    # ------------------------------------------------------------------
    def _parallel_step(self, faults: FaultStats) -> Optional[float]:
        """Broadcast → gather → guard → averaged Adam step.

        Returns the mean replica loss, or None when every contribution
        this step was lost (dead/hung/NaN) and the step was skipped.
        The average runs over however many finite contributions arrived,
        so a degraded replica set still yields an unbiased update.

        Every contribution is one flat vector in the parameter store's
        layout: one ``isfinite`` pass guards it, and one stack-mean
        averages the usable ones into the store's gradient buffer
        (elementwise, so bit-identical to averaging parameter by
        parameter), which Adam steps whole.
        """
        step = self._global_step
        tel = self.telemetry
        transport = self._transport
        store = self.optimizer.store.fresh()
        with _span(tel, "broadcast"):
            if transport is not None:
                transport.write_params_vector(store.data)
                payload = (step, None)
            else:
                payload = (step, store.data)
            expected = self._supervisor.broadcast(payload, step)
        with _span(tel, "gather"):
            replies = self._supervisor.gather(expected, step)
        usable = []
        losses = []
        for grads, loss, telemetry in replies:
            if telemetry is not None:
                key = (telemetry["worker"], telemetry["incarnation"])
                self._worker_snapshots[key] = telemetry["metrics"]
            if grads is None and transport is not None \
                    and telemetry is not None:
                grads = transport.read_grads(telemetry["worker"])
            if grads is not None and np.isfinite(loss) \
                    and self._guard.check(grads, loss, store.layout):
                usable.append(grads)
                losses.append(loss)
            else:
                faults.nonfinite_contributions += 1
                faults.record(
                    f"non-finite gradient contribution dropped "
                    f"(step {step}: {self._guard.last_bad_names[:3]})")
        if not usable:
            faults.skipped_steps += 1
            faults.record(f"step {step} skipped: no usable gradients")
            return None
        with _span(tel, "apply"):
            np.stack(usable).mean(axis=0, out=store.grad)
            self._apply(store)
        return float(np.mean(losses))

    def _apply(self, store) -> None:
        """One Adam step over the store's gradient buffer: each
        ``param.grad`` is its view there, so Adam steps it whole."""
        for param, grad in zip(store.params, store.grads):
            param.grad = grad
        self.optimizer.step()
        self.optimizer.zero_grad()

    def _single_step(self, faults: FaultStats) -> Optional[float]:
        step = self._global_step
        started = time.perf_counter()
        if self.fault_plan is not None:
            for fault in self.fault_plan.lookup(0, step):
                if fault.kind == "delay":
                    time.sleep(fault.seconds)
        users, pois, labels = next(self._local_stream)
        _reseed_dropout(self.model, self.config.seed, step)
        store = self.optimizer.store.fresh()
        loss = _replica_grads(self.model, users, pois, labels, store.grad)
        if self.fault_plan is not None and \
                self.fault_plan.wants_nan_gradients(0, step):
            store.grad.fill(np.nan)
        if not self._guard.check(store.grad, loss, store.layout):
            faults.nonfinite_contributions += 1
            faults.skipped_steps += 1
            faults.record(
                f"step {step} skipped: non-finite "
                f"{self._guard.last_bad_names[:3]}")
            return None
        self._apply(store)
        if self.telemetry is not None:
            self.telemetry.histogram(
                "worker.step_time_ms", bounds=_STEP_TIME_BUCKETS_MS,
                worker="0").observe(
                    (time.perf_counter() - started) * 1000.0)
            self.telemetry.counter("worker.steps", worker="0").inc()
        return loss

    def run_steps(self, num_steps: int) -> List[float]:
        """Run exactly ``num_steps`` synchronized training steps.

        The benchmark harness uses this to time the steady-state step
        loop without epoch bookkeeping; losses of applied steps are
        returned (skipped steps are omitted).
        """
        check_positive("num_steps", num_steps)
        faults = FaultStats()
        self.last_fault_stats = faults
        if self._supervisor is not None:
            self._supervisor.stats = faults
        losses: List[float] = []
        for _ in range(num_steps):
            if self._supervisor is None:
                loss = self._single_step(faults)
            else:
                loss = self._parallel_step(faults)
            self._global_step += 1
            if loss is not None:
                losses.append(loss)
        return losses

    def train_epoch(self) -> ParallelEpochStats:
        """One epoch over the training examples, timed and supervised.

        With W workers each step consumes W batches, so the epoch takes
        ``ceil(examples / (W · batch))`` synchronized steps.  The step
        count is honoured even under faults: a lost contribution drops
        out of that step's average (or skips the step entirely when
        nothing arrives), and the epoch still completes.  Raw pipe
        errors never escape — unrecoverable replica loss surfaces as
        :class:`~repro.parallel.supervisor.WorkerFailure` naming the
        worker and step, with every worker process reaped.
        """
        faults = FaultStats()
        self.last_fault_stats = faults
        if self._supervisor is not None:
            self._supervisor.stats = faults
        per_step = self.config.batch_size * self.num_workers
        steps = max(1, int(np.ceil(self._examples_per_epoch / per_step)))
        losses = []
        tel = self.telemetry
        started = time.perf_counter()
        try:
            with _span(tel, "epoch"):
                for _ in range(steps):
                    with _span(tel, "step"):
                        if self._supervisor is None:
                            loss = self._single_step(faults)
                        else:
                            loss = self._parallel_step(faults)
                    self._global_step += 1
                    if loss is not None:
                        losses.append(loss)
        except WorkerFailure:
            self.close()
            raise
        except (EOFError, BrokenPipeError, OSError) as exc:
            step = self._global_step
            self.close()
            raise WorkerFailure(
                step, reason=f"unexpected pipe failure: {exc!r}") from exc
        seconds = time.perf_counter() - started
        stats = ParallelEpochStats(
            num_workers=self.num_workers,
            steps=steps,
            seconds=seconds,
            mean_loss=float(np.mean(losses)) if losses else float("nan"),
            faults=faults,
        )
        if tel is not None:
            self._record_epoch_metrics(stats)
        return stats

    def _record_epoch_metrics(self, stats: ParallelEpochStats) -> None:
        """Mirror one epoch's outcome and fault events into telemetry.

        ``FaultStats`` is per-epoch, so its values are increments; the
        counters therefore accumulate run totals across epochs.  All
        six fault counters are touched every epoch so a clean run still
        exports them (as zeros) for dashboards and the CI smoke grep.
        """
        tel = self.telemetry
        if np.isfinite(stats.mean_loss):
            tel.gauge("train.epoch.loss", component="total").set(
                stats.mean_loss)
        tel.counter("train.epochs").inc()
        tel.gauge("parallel.num_workers").set(self.num_workers)
        tel.histogram("train.epoch.seconds",
                      bounds=_EPOCH_SECONDS_BUCKETS).observe(stats.seconds)
        faults = stats.faults
        for name, value in (("crashes", faults.crashes),
                            ("hangs", faults.hangs),
                            ("respawns", faults.respawns),
                            ("removals", faults.removals),
                            ("nonfinite_contributions",
                             faults.nonfinite_contributions),
                            ("skipped_steps", faults.skipped_steps)):
            tel.counter(f"faults.{name}").inc(value)

    # ------------------------------------------------------------------
    # Telemetry aggregation
    # ------------------------------------------------------------------
    def worker_registries(self) -> List[MetricsRegistry]:
        """Latest registry snapshot of every replica incarnation seen.

        Includes replicas that later crashed, hung, or were removed —
        snapshots ride on every reply, so the final state each replica
        reached is retained.
        """
        return [MetricsRegistry.from_dict(snapshot)
                for _key, snapshot in sorted(self._worker_snapshots.items())]

    def merged_metrics(self) -> MetricsRegistry:
        """Master registry merged with all per-worker registries."""
        merged = (self.telemetry.registry if self.telemetry is not None
                  else MetricsRegistry())
        for registry in self.worker_registries():
            merged = merged.merged_with(registry)
        return merged

    # ------------------------------------------------------------------
    # Checkpointing and resume
    # ------------------------------------------------------------------
    @property
    def index(self):
        """Entity index mapping users/POIs/words to embedding rows."""
        return self._master.index

    def save(self, path) -> None:
        """Write a resumable (format v2) checkpoint: parameters, Adam
        moments, epoch/step counters, and the master RNG state."""
        state = TrainingState(
            epochs_completed=self._epochs_completed,
            global_step=self._global_step,
            optimizer_state=self.optimizer.state_dict(),
            rng_state=self._master._rng.bit_generator.state,
        )
        save_checkpoint(self.model, self._master.index, path,
                        training_state=state)

    def resume(self, path) -> int:
        """Restore a v2 checkpoint and fast-forward the batch streams.

        Returns the number of epochs already completed.  Restoring is
        provably loss-neutral: after replaying ``global_step`` batches
        from a freshly-seeded stream, the master RNG must land exactly
        on the state recorded at save time — a mismatch (wrong seed,
        wrong data, wrong config) raises instead of silently training
        on a different trajectory.
        """
        model, index, tstate = load_training_checkpoint(
            path, precision=self.perf.precision)
        if tstate is None:
            raise ValueError(
                f"{path} is a v1 checkpoint with no training state; "
                f"it can be served but not resumed")
        # Schedule fields (epoch budgets, early-stop policy) may change
        # between the interrupted and the resuming invocation — e.g.
        # "resume with a larger budget" — without affecting the per-step
        # trajectory.  Everything else must match exactly.
        schedule_only = {"epochs", "pretrain_epochs", "patience",
                         "min_loss_delta"}
        saved = {k: v for k, v in model.config.__dict__.items()
                 if k not in schedule_only}
        own_cfg = {k: v for k, v in self.config.__dict__.items()
                   if k not in schedule_only}
        if saved != own_cfg:
            differing = sorted(k for k in saved
                               if saved.get(k) != own_cfg.get(k))
            raise ValueError(
                f"checkpoint config does not match trainer config "
                f"(fields: {differing}); resume requires identical "
                f"hyper-parameters")
        own = self._master.index
        if (index.num_users, index.num_pois, index.num_words) != \
                (own.num_users, own.num_pois, own.num_words):
            raise ValueError(
                "checkpoint entity index does not match the training "
                "split; resume requires the same dataset")
        self.model.load_state_dict(model.state_dict())
        self.optimizer.load_state_dict(tstate.optimizer_state)
        self._global_step = tstate.global_step
        self._epochs_completed = tstate.epochs_completed
        if self._local_stream is not None:
            for _ in range(tstate.global_step):
                next(self._local_stream)
        if tstate.rng_state is not None and \
                self._master._rng.bit_generator.state != tstate.rng_state:
            raise ValueError(
                "resume is not loss-neutral: master RNG state after "
                "replay does not match the checkpoint (different seed, "
                "dataset, or config?)")
        return tstate.epochs_completed

    def train(self, epochs: int,
              checkpoint_every: Optional[int] = None,
              checkpoint_path=None,
              resume_from=None,
              divergence_detector=None) -> List[ParallelEpochStats]:
        """Run (or continue) training for ``epochs`` total epochs.

        Parameters
        ----------
        epochs:
            Total epoch budget — a resumed run trains only the
            remaining ``epochs - completed`` epochs.
        checkpoint_every:
            Write a resumable checkpoint after every N-th epoch
            (requires ``checkpoint_path``).  The file is replaced
            atomically, so a crash mid-write cannot corrupt the last
            good checkpoint.
        checkpoint_path:
            Where checkpoints go (``.npz`` appended if missing).
        resume_from:
            Restore this v2 checkpoint before training; the run then
            finishes bit-identically to one that was never interrupted.
        divergence_detector:
            Optional :class:`~repro.reliability.guards.
            DivergenceDetector`; fed each epoch's mean loss, raises
            :class:`~repro.reliability.guards.TrainingDiverged` when it
            trips.
        """
        check_positive("epochs", epochs)
        if checkpoint_every is not None:
            check_positive("checkpoint_every", checkpoint_every)
            if checkpoint_path is None:
                raise ValueError(
                    "checkpoint_every requires checkpoint_path")
        start_epoch = 0
        if resume_from is not None:
            start_epoch = self.resume(resume_from)
        history: List[ParallelEpochStats] = []
        for epoch in range(start_epoch, epochs):
            stats = self.train_epoch()
            history.append(stats)
            self._epochs_completed = epoch + 1
            if divergence_detector is not None and \
                    divergence_detector.update(stats.mean_loss):
                self.close()
                raise TrainingDiverged(
                    epoch, stats.mean_loss,
                    getattr(divergence_detector, "best", float("nan")))
            if checkpoint_every is not None and \
                    (epoch + 1) % checkpoint_every == 0:
                self.save(checkpoint_path)
        return history

    def close(self) -> None:
        """Shut down worker processes and release shared memory
        (idempotent)."""
        if self._supervisor is not None:
            self._supervisor.shutdown()
        if self._transport is not None:
            self._transport.close()

    def __enter__(self) -> "DataParallelTrainer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
