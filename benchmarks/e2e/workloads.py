"""The five workloads of the end-to-end benchmark.

Every workload drives the system only through public APIs and returns
an :class:`Outcome`: the end-to-end metrics (always), the per-layer
metrics (only when traced), the correctness checks, and the count of
operations attempted and failed.  ``run.py`` turns outcomes into output.

Shared conventions:

* Every world is ``foursquare_like(seed=DATA_SEED)``.  The model
  profile is tuned to that world, so ``--seed`` varies model
  initialisation, sampling and traffic, never the data.
* The work a run does depends on ``--seed`` and ``--seconds`` only,
  never on how fast the host is, so every run of one workload repeats
  the same job.
* Timings are reported at the reference CPU speed (see
  :class:`SpeedProbe`): the host's CPU speed drifts by up to 1.7x from
  minute to minute, and taking it out is what keeps two runs of one
  commit comparable.  ``host.speed`` and the ``wall.*`` metrics keep
  what the clock read.
* Set-up (world generation, trainer or fleet construction, warm-up,
  base training) runs :data:`SETUP_REPEATS` times; ``setup_s`` is the
  median and the last repetition is the one measured.
* ``p50_ms``/``p95_ms``/``p99_ms`` summarise the workload's unit
  operation: one training iteration, or one request from its scheduled
  arrival to its response.  ``job_s`` is the mean duration of the
  workload's job: a model fit, a data-parallel epoch, a 256-user
  closed-loop call, or a write burst from append to first response
  tagged with its generation (freshness).
* Traced runs add spans and wrappers around public calls; untraced runs
  keep only the timestamps the end-to-end metrics need.  Layer times are
  wall-clock.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import gc
import multiprocessing as mp
import os
import pickle
import queue
import resource
import shutil
import statistics
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines import FOURSQUARE_PROFILE
from repro.core.config import STTransRecConfig
from repro.core.model import STTransRec
from repro.core.recommend import Recommender, visited_poi_ids
from repro.core.trainer import STTransRecTrainer
from repro.data.split import make_crossing_city_split
from repro.data.synthetic import foursquare_like, generate_dataset
from repro.eval.protocol import RankingEvaluator
from repro.fleet import ShardRouter, ZipfUserSampler
from repro.fleet.loadgen import LoadPhase, poisson_schedule
from repro.fleet.partition import group_by_shard
from repro.obs import MetricsRegistry, Telemetry
from repro.obs.metrics import parse_metric_key
from repro.parallel import DataParallelTrainer
from repro.perf import ShmTransport
from repro.reliability import GradientGuard
from repro.serving.engine import InferenceEngine
from repro.streaming import (
    CheckinStreamGenerator,
    EventLog,
    IncrementalUpdater,
    ModelPublisher,
    StreamConfig,
    load_latest,
)

DATA_SEED = 7
SETUP_REPEATS = 3
K = 10

# Host speed: the speed probe's thread CPU time on the reference host
# (a 2-vCPU Intel Xeon VM at its faster level, one BLAS thread), and how
# often the probe is sampled.
PROBE_REFERENCE_S = 0.6e-3
PROBE_INTERVAL_S = 0.1
# A timed sample is scaled by the probes taken within this of its end.
SPEED_WINDOW_S = 0.5

# train_fit: the crossing-city split at the benchmark scale.
FIT_SCALE = 0.6
FIT_EPOCHS = 12
FIT_MODELS = 3
RECALL_TARGET = 0.40
# "Final" recall averages the last evaluations: one epoch's recall@10
# moves by up to 0.05 from the next (measured over 16 seeds).
FINAL_EPOCHS = 3
# Quality floors, set from model seeds 1-42 and 100-123 (62 runs): the
# final recall_at_10 of a run averaged 0.421 (sd 0.009, lowest 0.403)
# and one model's best recall@10 0.451 (sd 0.021, lowest 0.393; 9 of
# the 62 runs hold a model that never reaches RECALL_TARGET).  Each
# floor sits over four standard deviations below its mean; the model
# floor is above ItemPop's 0.346.
FINAL_FLOOR = 0.38
MODEL_FLOOR = 0.36

# train_dp: Table 2's timing configuration.
DP_WORKERS = 2
DP_BATCH = 256
DP_MIN_EPOCHS = 3
DP_EPOCH_S = 0.2            # nominal epoch; sizes the job from --seconds

# serve_*: the serving-bench world, random-init d=64 model, f32.
SERVE_SCALE = 3.0
SERVE_DIM = 64
SERVE_SHARDS = 2
NOMINAL_RPS = 300.0
HIGH_RPS = 800.0
PROBE_BATCH = 256
PROBE_WARMUP_S = 0.5
SERVE_ROUNDS = 4
CHECK_USERS = 64

# stream: the stream-smoke world and base model, a pinned 16-user cohort.
STREAM_SCALE = 0.5
STREAM_RPS = 200.0
STREAM_MIN_BURSTS = 4
STREAM_BURST_S = 3.0        # nominal burst; sizes the job from --seconds
STREAM_COHORT = 16
STREAM_CHECKINS = 6
STREAM_K = 10
STREAM_HORIZON_S = 120.0

WORK_DIR = Path(__file__).resolve().parent / ".work"


@dataclass
class Outcome:
    """What one workload run reports."""

    metrics: Dict[str, float]
    layers: Dict[str, float] = field(default_factory=dict)
    # (the unit the blocking layers add up to, its measured mean in ms)
    accounting: Optional[Tuple[str, float]] = None
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    info: Dict[str, object] = field(default_factory=dict)

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append((name, bool(passed), detail))


# ----------------------------------------------------------------------
# Measurement helpers
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Nearest-rank percentile (the convention ``repro.obs`` uses)."""
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    if ordered.size == 0:
        return float("nan")
    rank = int(round(q / 100.0 * (ordered.size - 1)))
    return float(ordered[rank])


def latency_metrics(seconds) -> Dict[str, float]:
    """``p50_ms``, ``p95_ms`` and ``p99_ms`` of latencies in seconds."""
    return {f"p{q}_ms": percentile(seconds, q) * 1000.0
            for q in (50, 95, 99)}


def peak_rss_mb() -> float:
    """Largest RSS of this process or any reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


_PROBE_MATRIX = np.random.default_rng(0).standard_normal((48, 48)) / 7.0


def _probe_kernel() -> float:
    """Thread CPU seconds of fixed interpreter and small-BLAS work, the
    mix the workloads run."""
    started = time.thread_time()
    total = 0
    for i in range(6000):
        total += i * i
    m = _PROBE_MATRIX
    for _ in range(20):
        m = np.tanh(m @ _PROBE_MATRIX)
    return time.thread_time() - started


class SpeedProbe:
    """How fast the host's CPU runs, sampled through a measured window.

    Other tenants move this host's CPU speed between two levels about
    1.7x apart, for seconds to minutes at a time, which moves every
    timing of a run with it.  A fixed kernel, timed in thread CPU time
    (waiting for the GIL, the scheduler or I/O does not count, so the
    program's own load does not slow it), is sampled at regular
    intervals, off the clock of the timed work.  Speed is
    :data:`PROBE_REFERENCE_S` over the sample time: a timing multiplied
    by it reads as it would on the reference host.

    The reference host's two vCPUs change speed independently (the
    correlation of paired samples was 0.06), so with ``every_cpu`` a
    sample runs the kernel on each CPU in turn and averages, for
    workloads whose processes spread over the CPUs; otherwise it runs on
    the CPU the calling thread is on.
    """

    def __init__(self, every_cpu: bool,
                 interval: float = PROBE_INTERVAL_S) -> None:
        self.cpus = sorted(os.sched_getaffinity(0)) if every_cpu else None
        self.times: List[float] = []
        self.samples: List[float] = []
        self.interval = interval
        self._next = 0.0

    def due(self) -> bool:
        return time.perf_counter() >= self._next

    def sample(self) -> None:
        if self.cpus is None:
            seconds = _probe_kernel()
        else:
            mask = os.sched_getaffinity(0)
            try:
                per_cpu = []
                for cpu in self.cpus:
                    os.sched_setaffinity(0, {cpu})
                    per_cpu.append(_probe_kernel())
            finally:
                os.sched_setaffinity(0, mask)
            seconds = float(np.mean(per_cpu))
        self.samples.append(seconds)
        self.times.append(time.perf_counter())
        self._next = self.times[-1] + self.interval

    def speed(self) -> float:
        """The run's speed: over the mean of every sample."""
        return PROBE_REFERENCE_S / float(np.mean(self.samples))

    def speed_at(self, stamps: np.ndarray) -> np.ndarray:
        """Speed around each ``perf_counter`` stamp: over the mean of the
        samples within :data:`SPEED_WINDOW_S` of it, or the nearest one."""
        times = np.asarray(self.times)
        samples = np.asarray(self.samples)
        sums = np.concatenate([[0.0], np.cumsum(samples)])
        lo = np.searchsorted(times, stamps - SPEED_WINDOW_S, side="left")
        hi = np.searchsorted(times, stamps + SPEED_WINDOW_S, side="right")
        after = np.minimum(np.searchsorted(times, stamps), times.size - 1)
        before = np.maximum(after - 1, 0)
        nearest = np.where(np.abs(times[before] - stamps)
                           < np.abs(times[after] - stamps), before, after)
        mean = np.where(hi > lo, (sums[hi] - sums[lo]) / np.maximum(hi - lo, 1),
                        samples[nearest])
        return PROBE_REFERENCE_S / mean


def reference_metrics(probe: SpeedProbe, samples: np.ndarray,
                      stamps: np.ndarray, **totals: float
                      ) -> Dict[str, float]:
    """End-to-end timings at the reference speed, and as the clock read.

    ``samples`` are unit-operation seconds that ended at ``stamps``; each
    is scaled by the speed around it before the percentiles are taken.
    ``totals`` (``*_s`` times, ``*_rps`` rates) are scaled by the run's
    speed.  ``wall.*`` keeps the clock's readings and ``host.speed`` the
    run's speed.
    """
    speed = probe.speed()
    out = {f"wall.{name}": value
           for name, value in latency_metrics(samples).items()}
    out.update(latency_metrics(samples * probe.speed_at(stamps)))
    for name, value in totals.items():
        out[name] = value / speed if name.endswith("_rps") else value * speed
    out["wall.job_s"] = totals["job_s"]
    out["host.speed"] = speed
    return out


class ProcessMeter:
    """Runtime and scheduler counters of this process over a window.

    These are the layers every workload crosses: the interpreter's
    cyclic garbage collector and the kernel scheduler.  Involuntary
    switches count preemptions, which is where oversubscribed CPUs
    (for example BLAS thread pools in every worker) show up.
    """

    def __init__(self) -> None:
        self.gc_seconds = 0.0
        self.gc_max_seconds = 0.0
        self.gc_collections = 0
        self._gc_started: Optional[float] = None
        self._start = None
        self.deltas: Dict[str, float] = {}

    def _on_gc(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif self._gc_started is not None:
            pause = time.perf_counter() - self._gc_started
            self.gc_seconds += pause
            self.gc_max_seconds = max(self.gc_max_seconds, pause)
            self.gc_collections += 1
            self._gc_started = None

    def __enter__(self) -> "ProcessMeter":
        gc.callbacks.append(self._on_gc)
        self._start = resource.getrusage(resource.RUSAGE_SELF)
        return self

    def __exit__(self, *exc) -> None:
        end = resource.getrusage(resource.RUSAGE_SELF)
        gc.callbacks.remove(self._on_gc)
        start = self._start
        self.deltas = {
            "python.gc_ms": self.gc_seconds * 1000.0,
            "python.gc_max_ms": self.gc_max_seconds * 1000.0,
            "python.gc_collections": float(self.gc_collections),
            "os.main.cpu_ms": ((end.ru_utime - start.ru_utime)
                               + (end.ru_stime - start.ru_stime)) * 1000.0,
            "os.main.involuntary_switches": float(end.ru_nivcsw
                                                  - start.ru_nivcsw),
            "os.main.voluntary_switches": float(end.ru_nvcsw
                                                - start.ru_nvcsw),
        }


def repeated_setup(build: Callable[[], Tuple[object, float]],
                   close: Callable[[object], None]
                   ) -> Tuple[object, Dict[str, float]]:
    """Run ``build`` :data:`SETUP_REPEATS` times and keep the last state.

    ``build`` returns ``(state, world_generation_seconds)``.  The host
    speed is probed before and after every set-up.  Returns the state
    and the medians of ``setup_s`` (at the reference speed),
    ``wall.setup_s`` and ``data.synthetic.generate_ms``.
    """
    setups, walls, worlds = [], [], []
    state = None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            close(state)
            state = None
            gc.collect()
        probe = SpeedProbe(every_cpu=False)
        probe.sample()
        started = time.perf_counter()
        state, world_s = build()
        wall = time.perf_counter() - started
        probe.sample()
        walls.append(wall)
        setups.append(wall * probe.speed())
        worlds.append(world_s * 1000.0)
    return state, {"setup_s": statistics.median(setups),
                   "wall.setup_s": statistics.median(walls),
                   "data.synthetic.generate_ms": statistics.median(worlds)}


def timed_world(scale: float):
    """Generate the benchmark world; returns ``(dataset, truth, config,
    seconds)``."""
    started = time.perf_counter()
    config = foursquare_like(scale=scale, seed=DATA_SEED)
    dataset, truth = generate_dataset(config)
    return dataset, truth, config, time.perf_counter() - started


class StepClock:
    """Completion time of every optimizer step, from a wrapped ``step``."""

    def __init__(self, optimizer) -> None:
        self.stamps: List[float] = []
        inner = optimizer.step

        def step() -> None:
            inner()
            self.stamps.append(time.perf_counter())

        optimizer.step = step

    def intervals(self, lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray]:
        """Times between the completions of steps ``lo..hi-1``, and when
        each ended.  The first step has no earlier completion to measure
        from; it would also carry the epoch's set-up."""
        stamps = np.asarray(self.stamps[lo:hi])
        return np.diff(stamps), stamps[1:]


class Stopwatch:
    """Total wall time spent in the callables it wraps, while active."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.active = True

    def wrap(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - started
        return timed

    def wrap_generator(self, fn: Callable) -> Callable:
        """Time each ``next()`` of the generators ``fn`` returns."""
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                started = time.perf_counter()
                item = next(items, None)
                if self.active:
                    self.seconds += time.perf_counter() - started
                if item is None:
                    return
                yield item
        return timed


@contextlib.contextmanager
def timed_methods(*targets: Tuple[type, str]):
    """Time every call of the class methods ``(cls, name)`` in the block;
    yields one :class:`Stopwatch` per target."""
    watches = [Stopwatch() for _ in targets]
    originals = [getattr(cls, name) for cls, name in targets]
    for (cls, name), watch, original in zip(targets, watches, originals):
        setattr(cls, name, watch.wrap(original))
    try:
        yield watches
    finally:
        for (cls, name), original in zip(targets, originals):
            setattr(cls, name, original)


def span_totals(tracer) -> Dict[str, Tuple[int, float]]:
    """Flatten a span tree to ``{"a/b/c": (count, seconds)}``."""
    out: Dict[str, Tuple[int, float]] = {}

    def walk(node, prefix: str) -> None:
        for name, child in node.children.items():
            path = f"{prefix}/{name}" if prefix else name
            out[path] = (child.count, child.total_seconds)
            walk(child, path)

    walk(tracer.root, "")
    return out


def no_leaked_children(outcome: Outcome) -> None:
    leaked = mp.active_children()
    outcome.check("no leaked child processes", not leaked,
                  f"{len(leaked)} still alive" if leaked else "")


# ----------------------------------------------------------------------
# train_fit: the paper's joint objective, fitted to a recall target
# ----------------------------------------------------------------------
def train_fit(seed: int, seconds: float, trace: bool) -> Outcome:
    """Fit :data:`FIT_MODELS` models (seeds ``seed, seed+1, ...``).

    Each fit is ``pretrain`` then :data:`FIT_EPOCHS` epochs; recall@10
    is evaluated after every epoch with the clock paused.  The fits run
    one after another, which gives the same numbers as stepping them in
    lockstep: time-to-recall adds each model's training time up to the
    first epoch at which the models' mean recall reaches the target.
    The job is fixed; ``seconds`` does not size it.
    """

    def build():
        dataset, _truth, config, world_s = timed_world(FIT_SCALE)
        split = make_crossing_city_split(dataset, config.target_city)
        evaluator = RankingEvaluator(split, seed=42)
        trainers = [
            STTransRecTrainer(
                split,
                dataclasses.replace(FOURSQUARE_PROFILE, seed=seed + i)
                .st_transrec_config(),
                telemetry=Telemetry() if trace else None)
            for i in range(FIT_MODELS)
        ]
        return (split, evaluator, trainers), world_s

    (split, evaluator, trainers), setup = repeated_setup(
        build, lambda _state: None)

    probe = SpeedProbe(every_cpu=False)       # one thread does the work
    fits = []
    with ProcessMeter() as meter:
        probe.sample()
        for trainer in trainers:
            fits.append(_fit_one(trainer, split, evaluator, probe, trace))

    iterations = np.concatenate([f["iterations"] for f in fits])
    ended = np.concatenate([f["ended"] for f in fits])
    recalls = np.asarray([f["recall"] for f in fits])
    mean_recall = recalls.mean(axis=0)
    final_recall = float(recalls[:, -FINAL_EPOCHS:].mean())
    reached = np.flatnonzero(mean_recall >= RECALL_TARGET)
    time_to_recall = (sum(f["elapsed"][reached[0]] for f in fits)
                      if reached.size else float("nan"))
    finite = all(np.isfinite(f["losses"]).all() for f in fits)

    out = Outcome(metrics={
        **setup,
        "peak_rss_mb": peak_rss_mb(),
        **reference_metrics(
            probe, iterations, ended,
            job_s=float(np.mean([f["train_s"] for f in fits])),
            time_to_recall_s=time_to_recall),
        "recall_at_10": final_recall,
    })
    steps = sum(f["steps"] for f in fits)
    out.attempted = steps + 1
    out.failed = int(not reached.size) + (0 if finite else steps)
    out.info = {"iterations": int(iterations.size), "models": FIT_MODELS,
                "epochs": FIT_EPOCHS, "scale": FIT_SCALE,
                "recall_by_epoch": [round(float(r), 4) for r in mean_recall],
                "best_recall_by_model": [round(float(r), 4)
                                         for r in recalls.max(axis=1)]}
    out.check(f"mean recall@10 over the models reaches {RECALL_TARGET}",
              bool(reached.size),
              f"best {mean_recall.max():.3f} at epoch "
              f"{int(mean_recall.argmax()) + 1}")
    out.check(f"every model's best recall@10 >= {MODEL_FLOOR}",
              bool((recalls.max(axis=1) >= MODEL_FLOOR).all()),
              "best " + ", ".join(f"{r:.3f}" for r in recalls.max(axis=1)))
    out.check(f"recall_at_10 (last {FINAL_EPOCHS} epochs, mean over models)"
              f" >= {FINAL_FLOOR}", final_recall >= FINAL_FLOOR,
              f"{final_recall:.3f}")
    out.check("training losses finite", finite)
    no_leaked_children(out)
    if trace:
        out.layers, out.accounting = _fit_layers(fits, reached, meter)
    return out


def _fit_one(trainer: STTransRecTrainer, split, evaluator,
             probe: SpeedProbe, trace: bool) -> dict:
    """Fit one trainer, timing iterations and pausing for evaluation."""
    clock = StepClock(trainer.optimizer)
    sampling, zero_grad, pretraining = Stopwatch(), Stopwatch(), Stopwatch()
    if trace:
        for sampler in [trainer.target_interactions,
                        *trainer.source_interactions,
                        trainer.source_contexts, trainer.target_contexts]:
            sampler.epoch = sampling.wrap_generator(sampler.epoch)
        trainer.optimizer.zero_grad = zero_grad.wrap(
            trainer.optimizer.zero_grad)
    bounds: List[int] = []          # step index at each epoch boundary
    inner_pretrain = pretraining.wrap(trainer.pretrain)

    def pretrain(epochs=None):
        # Pretraining draws batches and zeroes gradients too; its own
        # wrapper covers that time.
        sampling.active = zero_grad.active = False
        inner_pretrain(epochs)
        sampling.active = zero_grad.active = True
        bounds.append(len(clock.stamps))

    trainer.pretrain = pretrain
    recalls, elapsed, losses, mmd = [], [], [], []
    paused = 0.0
    started = time.perf_counter()

    def on_epoch(tr, stats) -> None:
        nonlocal paused
        stop = time.perf_counter()
        bounds.append(len(clock.stamps))
        elapsed.append(stop - started - paused)
        losses.append(stats.total)
        mmd.append(stats.mmd)
        tr.model.eval()
        recommender = Recommender(tr.model, tr.index, split.train,
                                  split.target_city)
        recalls.append(evaluator.evaluate(recommender)
                       .scores["recall"][K])
        tr.model.train()
        probe.sample()
        paused += time.perf_counter() - stop

    trainer.fit(FIT_EPOCHS, epoch_callback=on_epoch)
    train_s = time.perf_counter() - started - paused
    iterations, ended = (np.concatenate(parts) for parts in zip(
        *(clock.intervals(lo, hi) for lo, hi in zip(bounds, bounds[1:]))))
    return {"iterations": iterations, "ended": ended, "train_s": train_s,
            "recall": recalls, "elapsed": elapsed, "losses": losses,
            "mmd": mmd, "steps": bounds[-1] - bounds[0], "eval_s": paused,
            "pretrain_s": pretraining.seconds, "sampling_s": sampling.seconds,
            "zero_grad_s": zero_grad.seconds,
            "spans": (span_totals(trainer.telemetry.tracer)
                      if trace else {})}


def _fit_layers(fits, reached, meter: ProcessMeter):
    """Per-fit layer times (mean over the models), in ms."""

    def mean(values) -> float:
        return 1000.0 * float(np.mean(values))

    def span(name: str) -> float:
        return mean([f["spans"].get(f"fit/epoch/{name}", (0, 0.0))[1]
                     for f in fits])

    steps = sum(f["steps"] for f in fits)
    layers = {
        "core.trainer.pretrain_ms": mean([f["pretrain_s"] for f in fits]),
        "data.sampling.batch_ms": mean([f["sampling_s"] for f in fits]),
        "core.model.interaction_ms": span("interaction"),
        "text.skipgram.context_ms": span("context"),
        "transfer.mmd.mmd_ms": span("mmd_batch"),
        "nn.autograd.backward_ms": span("backward"),
        "nn.optim.step_ms": span("optimizer"),
        "nn.optim.zero_grad_ms": mean([f["zero_grad_s"] for f in fits]),
        "eval.protocol.evaluate_ms": mean([f["eval_s"] for f in fits]),
        "core.trainer.steps_per_epoch": steps / (len(fits) * FIT_EPOCHS),
        "core.trainer.epochs_to_recall": (float(reached[0] + 1)
                                          if reached.size else 0.0),
        "transfer.mmd.value": float(np.mean([f["mmd"][-1] for f in fits])),
        **meter.deltas,
    }
    return layers, ("fit", mean([f["train_s"] for f in fits]))


# ----------------------------------------------------------------------
# train_dp: Table 2's synchronous data parallelism
# ----------------------------------------------------------------------
def train_dp(seed: int, seconds: float, trace: bool) -> Outcome:
    """Two-worker data-parallel epochs at Table 2's batch size.

    One warm-up epoch (worker start-up, lazy allocation) belongs to
    set-up; then ``seconds / DP_EPOCH_S`` timed epochs run (never fewer
    than :data:`DP_MIN_EPOCHS`), about ``seconds`` of work.
    """
    epochs_wanted = max(DP_MIN_EPOCHS, round(seconds / DP_EPOCH_S))

    def build():
        dataset, _truth, config, world_s = timed_world(FIT_SCALE)
        split = make_crossing_city_split(dataset, config.target_city)
        train_config = dataclasses.replace(FOURSQUARE_PROFILE, seed=seed) \
            .st_transrec_config(epochs=1, pretrain_epochs=0,
                                batch_size=DP_BATCH)
        trainer = DataParallelTrainer(
            split, train_config, num_workers=DP_WORKERS,
            telemetry=Telemetry() if trace else None)
        try:
            warmup = trainer.train_epoch()
        except BaseException:
            trainer.close()
            raise
        return (split, train_config, trainer, warmup), world_s

    state, setup = repeated_setup(build, lambda state: state[2].close())
    split, train_config, trainer, warmup = state
    epochs = []
    probe = SpeedProbe(every_cpu=True)
    # Between gather and apply the master reads each worker's gradients
    # from shared memory and checks them; no span covers that.
    methods = (timed_methods((ShmTransport, "read_grads"),
                             (GradientGuard, "check"))
               if trace else contextlib.nullcontext())
    with trainer, methods as watches:
        clock = StepClock(trainer.optimizer)
        spans_before = (span_totals(trainer.telemetry.tracer)
                        if trace else {})
        workers_before = _worker_step_ms(trainer) if trace else 0.0
        with ProcessMeter() as meter:
            for _ in range(epochs_wanted):
                probe.sample()
                first = len(clock.stamps)
                stats = trainer.train_epoch()
                epochs.append((stats, *clock.intervals(first,
                                                       len(clock.stamps))))
            probe.sample()
        if trace:
            spans = span_totals(trainer.telemetry.tracer)
            workers = _worker_step_ms(trainer) - workers_before

    iterations = np.concatenate([it for _stats, it, _end in epochs])
    ended = np.concatenate([end for _stats, _it, end in epochs])
    epoch_s = [stats.seconds for stats, _it, _end in epochs]
    losses = [stats.mean_loss for stats, _it, _end in epochs]
    skipped = sum(stats.faults.skipped_steps for stats, _it, _end in epochs)
    faults = sum(_fault_events(stats.faults) for stats, _it, _end in epochs)
    steps = sum(stats.steps for stats, _it, _end in epochs)
    out = Outcome(metrics={
        **setup,
        "peak_rss_mb": peak_rss_mb(),
        **reference_metrics(probe, iterations, ended,
                            job_s=float(np.mean(epoch_s))),
    })
    out.attempted = steps
    out.failed = skipped
    out.info = {"iterations": int(iterations.size), "epochs": len(epochs),
                "steps_per_epoch": epochs[0][0].steps, "scale": FIT_SCALE,
                "workers": DP_WORKERS, "batch_size": DP_BATCH}
    out.check("losses finite", bool(np.isfinite(losses).all()))
    out.check("mean loss falls from the warm-up to the last epoch",
              losses[-1] < warmup.mean_loss,
              f"{warmup.mean_loss:.4f} -> {losses[-1]:.4f}")
    out.check("no worker faults", faults == 0, f"{faults} fault events")
    no_leaked_children(out)
    if trace:
        read_grads, guard = watches
        out.layers, out.accounting = _dp_layers(
            trainer, split, train_config, spans, spans_before, workers,
            epochs, faults, meter, read_grads.seconds, guard.seconds)
    return out


def _fault_events(faults) -> int:
    return (faults.crashes + faults.hangs + faults.respawns
            + faults.removals + faults.nonfinite_contributions
            + faults.skipped_steps)


def _worker_step_ms(trainer: DataParallelTrainer) -> float:
    """Summed worker compute time so far, over all replicas."""
    total = 0.0
    for registry in trainer.worker_registries():
        for key, metric in registry.items():
            if parse_metric_key(key)[0] == "worker.step_time_ms":
                total += metric.total
    return total


def _dp_layers(trainer, split, train_config, spans, spans_before,
               worker_ms, epochs, faults, meter, read_grads_s, guard_s):
    """Per-epoch layer times (mean over the timed epochs), in ms."""
    n = len(epochs)

    def per_epoch(path: str) -> float:
        total = spans.get(path, (0, 0.0))[1] - \
            spans_before.get(path, (0, 0.0))[1]
        return total * 1000.0 / n

    gather = per_epoch("epoch/step/gather")
    worker_step = worker_ms / DP_WORKERS / n
    layers = {
        "parallel.broadcast_ms": per_epoch("epoch/step/broadcast"),
        "parallel.gather_ms": gather,
        "perf.transport.read_ms": read_grads_s * 1000.0 / n,
        "reliability.guard_ms": guard_s * 1000.0 / n,
        "parallel.apply_ms": per_epoch("epoch/step/apply"),
        "parallel.worker_step_ms": worker_step,
        "parallel.sync_wait_ms": gather - worker_step,
        "perf.transport.bytes_per_step": _transport_bytes(
            trainer, split, train_config),
        "parallel.faults": float(faults),
        **meter.deltas,
    }
    epoch_ms = 1000.0 * sum(stats.seconds for stats, *_ in epochs) / n
    return layers, ("epoch", epoch_ms)


def _transport_bytes(trainer, split, train_config) -> float:
    """Bytes one step moves through shared memory, computed.

    The broadcast writes every parameter; each worker writes its dense
    gradients plus, for the embedding tables, only the rows its batch
    touched (ids and values).  Touched rows are averaged over batches
    drawn from a fresh sampler of the same configuration.
    """
    params = dict(trainer.model.named_parameters())
    broadcast = sum(p.data.nbytes for p in params.values())
    dense = sum(p.data.nbytes for name, p in params.items()
                if "embeddings" not in name)
    sampler = STTransRecTrainer(split, train_config).target_interactions
    users, pois = [], []
    for i, (u, p, _labels) in enumerate(sampler.epoch(DP_BATCH)):
        users.append(np.unique(u).size)
        pois.append(np.unique(p).size)
        if i == 19:
            break
    itemsize = params["user_embeddings.weight"].data.itemsize
    dim = params["user_embeddings.weight"].data.shape[1]
    rows = np.mean(users) + np.mean(pois)
    sparse = rows * (dim * itemsize + 8)
    return float(broadcast + DP_WORKERS * (dense + sparse))


# ----------------------------------------------------------------------
# Open- and closed-loop traffic
# ----------------------------------------------------------------------
@dataclass
class Traffic:
    """Per-request and per-call timings of one open-loop phase."""

    latency: np.ndarray       # s, scheduled arrival -> response
    ended: np.ndarray         # perf_counter stamp of each response
    queue: np.ndarray         # s, scheduled arrival -> call issued
    calls: np.ndarray         # s, per call: issued -> response
    call_sizes: np.ndarray    # requests per call
    call_unique: np.ndarray   # distinct users per call
    missing: int              # requests without a response
    issued: int               # requests issued (a stopped loop skips the rest)

    @staticmethod
    def concat(parts: Sequence["Traffic"]) -> "Traffic":
        return Traffic(*(np.concatenate([getattr(p, f) for p in parts])
                         for f in ("latency", "ended", "queue", "calls",
                                   "call_sizes", "call_unique")),
                       sum(p.missing for p in parts),
                       sum(p.issued for p in parts))


def open_loop(call, arrivals: np.ndarray, users: np.ndarray,
              probe: SpeedProbe,
              between: Optional[Callable[[], None]] = None,
              stop: Optional[Callable[[], bool]] = None) -> Traffic:
    """Issue requests on their Poisson schedule, batching the backlog.

    Requests that fall due while a call is in flight are sent together
    as the next call, as a front door would.  Latency is charged from
    each request's scheduled arrival, so queueing and a late generator
    count.  The host speed is probed in idle gaps long enough that no
    request waits for it.  ``between`` runs before each call (a
    hot-swap hook); ``stop()`` ends the phase early.  ``call(batch)``
    returns the set of users answered.
    """
    n = len(arrivals)
    latency = np.zeros(n)
    ended = np.zeros(n)
    waited = np.zeros(n)
    calls, sizes, unique = [], [], []
    missing = 0
    i = 0
    t0 = time.perf_counter()
    while i < n:
        now = time.perf_counter() - t0
        if stop is not None and stop():
            break
        if arrivals[i] > now:
            if probe.due() and arrivals[i] - now > 10 * PROBE_REFERENCE_S:
                probe.sample()
            else:
                time.sleep(min(arrivals[i] - now, 0.01))
            continue
        j = max(i + 1, int(np.searchsorted(arrivals, now, side="right")))
        batch = [int(u) for u in users[i:j]]
        if between is not None:
            between()
        issued = time.perf_counter() - t0
        try:
            answered = call(batch)
        except Exception:               # counted as missing, and shown
            traceback.print_exc()
            answered = set()
        done = time.perf_counter() - t0
        missing += sum(1 for u in batch if u not in answered)
        latency[i:j] = done - arrivals[i:j]
        ended[i:j] = t0 + done
        waited[i:j] = issued - arrivals[i:j]
        calls.append(done - issued)
        sizes.append(len(batch))
        unique.append(len(set(batch)))
        i = j
    return Traffic(latency[:i], ended[:i], waited[:i], np.asarray(calls),
                   np.asarray(sizes), np.asarray(unique), missing, i)


def closed_loop(call, sampler: ZipfUserSampler, seconds: float,
                probe: SpeedProbe) -> Tuple[np.ndarray, int, int, float]:
    """One call outstanding, :data:`PROBE_BATCH` users per call.

    Returns per-call seconds, requests sent, requests missing, and the
    time spent calling (host-speed probes between calls excluded).
    """
    durations = []
    missing = 0
    probing = 0.0
    started = time.perf_counter()
    while time.perf_counter() - started < seconds + probing:
        if probe.due():
            t = time.perf_counter()
            probe.sample()
            probing += time.perf_counter() - t
        batch = [int(u) for u in sampler.sample(PROBE_BATCH)]
        t = time.perf_counter()
        try:
            answered = call(batch)
        except Exception:               # counted as missing, and shown
            traceback.print_exc()
            answered = set()
        durations.append(time.perf_counter() - t)
        missing += sum(1 for u in batch if u not in answered)
    elapsed = time.perf_counter() - started - probing
    return (np.asarray(durations), len(durations) * PROBE_BATCH, missing,
            elapsed)


def fleet_matches_engine(router: ShardRouter, model, index, dataset,
                         target_city: str, dtype, users: Sequence[int]
                         ) -> bool:
    """Fleet top-K equals a single-process engine's, bit for bit.

    The engine scores the same per-shard batches the router sends: BLAS
    may round the last bit differently for another batch shape, so only
    identical batches are required to agree exactly.
    """
    engine = InferenceEngine.from_model(model, index, dataset, target_city,
                                        dtype=dtype)
    entries = [(int(u), index.users.index_of(int(u))) for u in users]
    expected = {}
    for group in group_by_shard(entries, router.num_shards,
                                router.live_shards).values():
        rows = engine.top_k_catalogue(
            [i for _u, i in group], K,
            exclude_poi_ids=[visited_poi_ids(dataset, u) for u, _i in group])
        expected.update({u: row for (u, _i), row in zip(group, rows)})
    got = router.recommend_many([u for u, _i in entries], K)
    return got == expected


def _shard_snapshot(router: ShardRouter) -> Dict[str, dict]:
    """Per-shard ``{count, window, users}`` of batch times and users."""
    shards: Dict[str, dict] = {}
    for key, metric in router.merged_shard_registry().items():
        name, labels = parse_metric_key(key)
        shard = shards.setdefault(labels.get("shard", "?"), {
            "count": 0, "window": [], "users": 0.0})
        if name == "fleet.shard.batch_ms":
            shard["count"] = metric.count
            shard["window"] = metric.window_samples()
        elif name == "fleet.shard.users":
            shard["users"] = metric.value
    return shards


def _shard_phase(before: Dict[str, dict], after: Dict[str, dict]):
    """Shard batch times and users served between two snapshots."""
    batches, users = [], []
    for shard, now in after.items():
        then = before.get(shard, {"count": 0, "users": 0.0})
        new = now["count"] - then["count"]
        batches.extend(now["window"][-new:] if new > 0 else [])
        users.append(now["users"] - then["users"])
    return np.asarray(batches), np.asarray(users)


def _reply_meta_bytes(router: ShardRouter) -> float:
    """Pickled size of shard 0's reply envelope (its metrics snapshot
    rides on every reply), computed."""
    snapshot = {key: metric.to_dict()
                for key, metric in router.merged_shard_registry().items()
                if parse_metric_key(key)[1].get("shard") == "0"}
    meta = {"shard": 0, "incarnation": 0, "generation": 0,
            "metrics": snapshot}
    return float(len(pickle.dumps(meta, protocol=pickle.HIGHEST_PROTOCOL)))


class RouterClock:
    """Per-call latency as the router itself records it.

    A router built with ``registry=`` observes every ``recommend_many``
    in ``fleet.router.request_latency_ms``; the growth of that
    histogram's total across one call is the router's own time for it,
    measured on the router's clock rather than the caller's.
    """

    def __init__(self, router: ShardRouter) -> None:
        self._histogram = router.registry.histogram(
            "fleet.router.request_latency_ms", outcome="ok")
        self.calls_ms: List[float] = []

    def wrap(self, call: Callable) -> Callable:
        def timed(batch):
            before = self._histogram.total
            answered = call(batch)
            self.calls_ms.append(self._histogram.total - before)
            return answered
        return timed


def _read_layers(traffic: Traffic) -> Dict[str, float]:
    return {
        "loadgen.queue_ms.mean": traffic.queue.mean() * 1000.0,
        "loadgen.queue_ms.p50": percentile(traffic.queue, 50) * 1000.0,
        "loadgen.queue_ms.p99": percentile(traffic.queue, 99) * 1000.0,
        "fleet.router.call_ms.p50": percentile(traffic.calls, 50) * 1000.0,
        "fleet.router.call_ms.p99": percentile(traffic.calls, 99) * 1000.0,
    }


# ----------------------------------------------------------------------
# serve_zipf / serve_uniform: open-loop fleet serving
# ----------------------------------------------------------------------
def serve(seed: int, seconds: float, trace: bool,
          zipf_exponent: float) -> Outcome:
    """A 2-shard fleet under open-loop Poisson traffic and a probe.

    ``seconds`` is split 40% nominal rate, 30% high rate and 30%
    closed-loop capacity probe (after a 0.5 s warm-up).  The three
    phases alternate in :data:`SERVE_ROUNDS` rounds, so each metric
    samples the whole run rather than one stretch of it.
    """

    def build():
        dataset, _truth, config, world_s = timed_world(SERVE_SCALE)
        index = dataset.build_index()
        model = STTransRec(index.num_users, index.num_pois, index.num_words,
                           STTransRecConfig(embedding_dim=SERVE_DIM,
                                            seed=seed))
        model.eval()
        router = ShardRouter(model, index, dataset, config.target_city,
                             num_shards=SERVE_SHARDS, dtype=np.float32,
                             registry=MetricsRegistry() if trace else None)
        try:
            users = sorted(dataset.users)
            for lo in range(0, len(users), PROBE_BATCH):
                router.recommend_many(users[lo:lo + PROBE_BATCH], K)
        except BaseException:
            router.close()
            raise
        return (dataset, config, index, model, router, users), world_s

    state, setup = repeated_setup(build, lambda state: state[4].close())
    dataset, config, index, model, router, users = state
    rng = np.random.default_rng(seed)
    sampler = ZipfUserSampler(users, zipf_exponent, seed=seed + 1)

    def schedule(rate: float, share: float):
        arrivals = poisson_schedule(
            rate, [LoadPhase(share * seconds / SERVE_ROUNDS)], rng)
        return arrivals, sampler.sample(len(arrivals))

    rounds = [(schedule(NOMINAL_RPS, 0.4), schedule(HIGH_RPS, 0.3))
              for _ in range(SERVE_ROUNDS)]
    probe_s = max(0.3 * seconds - PROBE_WARMUP_S, 0.5) / SERVE_ROUNDS

    def call(batch):
        return router.recommend_many(batch, K).keys()

    router_clock = RouterClock(router) if trace else None
    nominal_call = router_clock.wrap(call) if trace else call
    probe = SpeedProbe(every_cpu=True)
    nominal, high, capacity = [], [], []
    batches, shard_users = [], 0.0
    with router:
        closed_loop(call, sampler, PROBE_WARMUP_S,
                    SpeedProbe(every_cpu=False))
        with ProcessMeter() as meter:
            for (nominal_at, nominal_users), (high_at, high_users) in rounds:
                before = _shard_snapshot(router) if trace else None
                nominal.append(open_loop(nominal_call, nominal_at,
                                         nominal_users, probe))
                if trace:
                    new_batches, new_users = _shard_phase(
                        before, _shard_snapshot(router))
                    batches.append(new_batches)
                    shard_users = shard_users + new_users
                high.append(open_loop(call, high_at, high_users, probe))
                capacity.append(closed_loop(call, sampler, probe_s, probe))
        check_users = np.random.default_rng(seed + 2).choice(
            users, size=CHECK_USERS, replace=False)
        identical = fleet_matches_engine(router, model, index, dataset,
                                         config.target_city, np.float32,
                                         check_users)
        if trace:
            meta_bytes = _reply_meta_bytes(router)
    nominal, high = Traffic.concat(nominal), Traffic.concat(high)
    capacity_calls = np.concatenate([c[0] for c in capacity])
    capacity_sent = sum(c[1] for c in capacity)
    capacity_missing = sum(c[2] for c in capacity)
    attempted = nominal.issued + high.issued + capacity_sent
    failed = nominal.missing + high.missing + capacity_missing
    out = Outcome(metrics={
        **setup,
        "peak_rss_mb": peak_rss_mb(),
        **reference_metrics(
            probe, nominal.latency, nominal.ended,
            job_s=float(np.mean(capacity_calls)),
            capacity_rps=((capacity_sent - capacity_missing)
                          / sum(c[3] for c in capacity))),
        "p99_ms.high": 1000.0 * percentile(
            high.latency * probe.speed_at(high.ended), 99),
        "error_rate": failed / attempted,
    })
    out.attempted, out.failed = attempted, failed
    out.info = {"nominal_samples": int(nominal.latency.size),
                "high_samples": int(high.latency.size),
                "capacity_calls": int(capacity_calls.size),
                "speed_samples": len(probe.samples), "users": len(users),
                "catalogue": router.catalogue_size,
                "zipf_exponent": zipf_exponent}
    out.check(f"fleet top-{K} bit-identical to a single-process engine "
              f"for {CHECK_USERS} users", identical)
    out.check("every request answered", failed == 0, f"{failed} missing")
    no_leaked_children(out)
    if trace:
        batches = np.concatenate(batches)
        call_p50 = percentile(nominal.calls, 50) * 1000.0
        batch_p50 = percentile(batches, 50)
        router_ms = np.repeat(router_clock.calls_ms, nominal.call_sizes)
        out.layers = {
            **_read_layers(nominal),
            "fleet.router.request_latency_ms.mean": float(router_ms.mean()),
            "fleet.shard.batch_ms.p50": batch_p50,
            "fleet.shard.batch_ms.p99": percentile(batches, 99),
            "fleet.ipc_ms": call_p50 - batch_p50,
            "fleet.batch_requests": float(np.mean(nominal.call_sizes)),
            "fleet.dedup_ratio": float(nominal.call_unique.sum()
                                       / nominal.call_sizes.sum()),
            "fleet.shard.imbalance": float(shard_users.max()
                                           / shard_users.mean()),
            "fleet.reply_meta_bytes": meta_bytes,
            **meter.deltas,
        }
        out.accounting = ("request", 1000.0 * nominal.latency.mean())
    return out


def serve_zipf(seed: int, seconds: float, trace: bool) -> Outcome:
    return serve(seed, seconds, trace, zipf_exponent=1.1)


def serve_uniform(seed: int, seconds: float, trace: bool) -> Outcome:
    return serve(seed, seconds, trace, zipf_exponent=0.0)


# ----------------------------------------------------------------------
# stream: writes beside reads on one fleet
# ----------------------------------------------------------------------
def stream(seed: int, seconds: float, trace: bool) -> Outcome:
    """Zipf reads on a 2-shard fleet while bursts stream in.

    A writer thread appends each burst to the event log, folds it in,
    retrains, publishes and loads the publication back; the reader loop
    swaps the loaded model into the fleet between calls.  Bursts follow
    each other without a pause and reads stop once the last burst is
    served, so every read is measured beside a write: the read window
    is the write job.  ``seconds / STREAM_BURST_S`` bursts run (never
    fewer than :data:`STREAM_MIN_BURSTS`), about ``seconds`` of work.
    """
    num_bursts = max(STREAM_MIN_BURSTS, round(seconds / STREAM_BURST_S))
    work = WORK_DIR / f"stream-{seed}-{time.time_ns()}"

    def build():
        dataset, truth, config, world_s = timed_world(STREAM_SCALE)
        split = make_crossing_city_split(dataset, config.target_city)
        trainer = STTransRecTrainer(split, STTransRecConfig(
            embedding_dim=16, hidden_sizes=[16], epochs=4, pretrain_epochs=2,
            mmd_batch_size=16, batch_size=32, grid_shape=(4, 4),
            segmentation_threshold=0.2, seed=seed))
        trainer.fit()
        model, index = trainer.model, trainer.index
        generator = CheckinStreamGenerator(
            split.train, truth, config.target_city,
            StreamConfig(drift=0.7, checkins_per_user=2 * STREAM_CHECKINS,
                         seed=seed + 1))
        cohort = generator.streamers[:STREAM_COHORT]
        bursts = [_fixed_burst(generator, cohort)
                  for _ in range(num_bursts)]
        shutil.rmtree(work, ignore_errors=True)
        publisher = ModelPublisher(work)
        publisher.publish(model, index)
        updater = IncrementalUpdater(
            model, index, split.train,
            [p.poi_id for p in dataset.pois_in_city(config.target_city)],
            learning_rate=0.3, fold_in_steps=20, retrain_lr=0.1,
            retrain_steps=150, num_negatives=8, rng=seed)
        router = ShardRouter(model, index, split.train, config.target_city,
                             num_shards=SERVE_SHARDS)
        try:
            router.recommend_many(sorted(split.train.users), K)
        except BaseException:
            router.close()
            raise
        return (split, config, model, index, generator, cohort, bursts,
                publisher, updater, router), world_s

    try:
        state, setup = repeated_setup(build, lambda state: state[9].close())
        return _run_stream(seed, trace, state, setup, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):      # another run may use it
            WORK_DIR.rmdir()


# Stages of a burst, each timed by its own stamps, in path order.
_WRITE_STAGES = ("streaming.events.append_ms", "streaming.updater.ingest_ms",
                 "streaming.updater.retrain_ms",
                 "streaming.publisher.publish_ms",
                 "streaming.publisher.load_ms", "loadgen.swap_wait_ms",
                 "fleet.swap_ms", "fleet.first_tagged_call_ms")


def _run_stream(seed, trace, state, setup, work):
    (split, config, model, index, generator, cohort, bursts, publisher,
     updater, router) = state
    target = config.target_city
    recall = _expected_recall(split, index, target, generator, cohort,
                              bursts)
    recall_frozen = recall(model)
    users = sorted(split.train.users)
    rng = np.random.default_rng(seed)
    sampler = ZipfUserSampler(users, 1.1, seed=seed + 1)
    # The schedule only bounds the run; reads stop when the writes end.
    arrivals = poisson_schedule(STREAM_RPS, [LoadPhase(STREAM_HORIZON_S)],
                                rng)
    read_users = sampler.sample(len(arrivals))
    handoff: "queue.Queue" = queue.Queue()
    records: List[dict] = []
    write_errors: List[str] = []
    exact: List[bool] = []
    log = EventLog()

    def stage(rec: dict, name: str, fn: Callable, *args, **kwargs):
        started = time.perf_counter()
        result = fn(*args, **kwargs)
        rec[name] = time.perf_counter() - started
        return result

    def append(burst) -> list:
        return [log.append(e.user_id, e.poi_id, e.city, e.timestamp)
                for e in burst]

    def writer() -> None:
        try:
            for burst in bursts:
                rec = {"start": time.perf_counter()}
                events = stage(rec, "streaming.events.append_ms", append,
                               burst)
                stage(rec, "streaming.updater.ingest_ms", updater.ingest,
                      events)
                stage(rec, "streaming.updater.retrain_ms", updater.retrain)
                generation = stage(rec, "streaming.publisher.publish_ms",
                                   publisher.publish, model, index)
                loaded, _index, loaded_gen = stage(
                    rec, "streaming.publisher.load_ms", load_latest, work)
                records.append(rec)
                rec["handed"] = time.perf_counter()
                handoff.put((loaded, loaded_gen, rec))
                # Off the freshness path; the model changes only with the
                # next burst's ingest.
                exact.append(loaded_gen == generation and np.array_equal(
                    loaded.user_vectors(), model.user_vectors()))
        except Exception as err:          # reported as a failed write
            write_errors.append(repr(err))

    tags: List[int] = []
    pending: List[tuple] = []
    final_model = [model]

    def between() -> None:
        while not handoff.empty():
            loaded, generation, rec = handoff.get()
            rec["loadgen.swap_wait_ms"] = time.perf_counter() - rec["handed"]
            stage(rec, "fleet.swap_ms", router.swap, loaded,
                  generation=generation)
            pending.append((generation, rec))
            final_model[0] = loaded

    def call(batch):
        started = time.perf_counter()
        results, gens = router.recommend_many(batch, K,
                                              return_generations=True)
        done = time.perf_counter()
        tags.extend(gens[u] for u in batch if u in gens)
        while pending and all(g >= pending[0][0] for g in gens.values()):
            rec = pending.pop(0)[1]
            rec["served"] = done
            rec["fleet.first_tagged_call_ms"] = done - started
        return results.keys()

    def stop() -> bool:
        return not thread.is_alive() and handoff.empty() and not pending

    probe = SpeedProbe(every_cpu=True)
    with router:
        with ProcessMeter() as meter:
            thread = threading.Thread(target=writer, name="stream-writer",
                                      daemon=True)
            thread.start()
            reads = open_loop(call, arrivals, read_users, probe,
                              between=between, stop=stop)
            thread.join()
        final = final_model[0]
        identical = fleet_matches_engine(
            router, final, index, split.train, target, np.float64,
            np.random.default_rng(seed + 2).choice(
                users, size=min(CHECK_USERS, len(users)), replace=False))
        swaps = router.stats()["swaps"]
    recall_streamed = recall(model)
    served = [r for r in records if "served" in r]
    freshness = [r["served"] - r["start"] for r in served]
    bursts_failed = len(bursts) - len(served)
    attempted = reads.issued + len(bursts)
    failed = reads.missing + bursts_failed
    monotone = all(a <= b for a, b in zip(tags, tags[1:]))
    out = Outcome(metrics={
        **setup,
        "peak_rss_mb": peak_rss_mb(),
        **reference_metrics(
            probe, reads.latency, reads.ended,
            job_s=float(np.mean(freshness)) if freshness else float("nan")),
        "error_rate": failed / attempted,
    })
    out.attempted, out.failed = attempted, failed
    out.info = {"read_samples": int(reads.latency.size),
                "speed_samples": len(probe.samples),
                "bursts": len(bursts), "cohort": len(cohort),
                "events": sum(len(b) for b in bursts),
                "freshness_s": [round(f, 4) for f in freshness],
                "recall_frozen": recall_frozen,
                "recall_streamed": recall_streamed}
    out.check("every burst published, swapped and served",
              bursts_failed == 0 and not write_errors,
              "; ".join(write_errors))
    out.check("load_latest is bit-exact against the updater's model",
              len(exact) == len(bursts) and all(exact))
    out.check("every response carries a generation tag",
              len(tags) == reads.issued - reads.missing,
              f"{len(tags)} tags for {reads.issued - reads.missing} answers")
    out.check("generation tags never go backwards", monotone)
    out.check(f"streamed recall@{STREAM_K} >= frozen",
              recall_streamed >= recall_frozen,
              f"{recall_frozen:.3f} -> {recall_streamed:.3f}")
    out.check(f"fleet top-{K} bit-identical to a single-process engine "
              f"after the last swap", identical)
    out.check("every read answered", reads.missing == 0,
              f"{reads.missing} missing")
    no_leaked_children(out)
    if trace:
        out.layers, out.accounting = _stream_layers(
            served, reads, updater, bursts, swaps, meter)
    return out


def _fixed_burst(generator, cohort) -> list:
    """A burst of :data:`STREAM_CHECKINS` check-ins per cohort user.

    The generator draws a Poisson count per user; capping a burst drawn
    at twice that mean fixes the burst size (and so the retrain history)
    for every seed, which keeps the seed out of the freshness spread.
    """
    kept, count = [], {}
    for event in generator.burst(users=cohort):
        if count.get(event.user_id, 0) < STREAM_CHECKINS:
            count[event.user_id] = count.get(event.user_id, 0) + 1
            kept.append(event)
    return kept


def _expected_recall(split, index, target, generator, cohort, bursts):
    """Recall@STREAM_K of the cohort's next check-in, in expectation.

    The stream draws a user's target-city check-ins with probability
    proportional to the drifted topic preference, so the chance that the
    next new check-in lands in the top-K is the preference mass of the
    top-K among POIs the user has not visited.  Computing it exactly,
    rather than sampling held-out check-ins, keeps the streamed-vs-frozen
    comparison free of sampling noise.
    """
    topics = {p.poi_id: p.topic for p in split.train.pois_in_city(target)}
    seen = {u: set(visited_poi_ids(split.train, u)) for u in cohort}
    for burst in bursts:
        for event in burst:
            seen[event.user_id].add(event.poi_id)
    mass = {}
    for u in cohort:
        preference = generator.drifted_preference(u)
        weights = {p: preference[t] for p, t in topics.items()
                   if p not in seen[u]}
        total = sum(weights.values())
        mass[u] = {p: w / total for p, w in weights.items()}

    def recall(model) -> float:
        engine = InferenceEngine.from_model(model, index, split.train,
                                            target)
        rows = engine.top_k_catalogue(
            [index.users.index_of(u) for u in cohort], STREAM_K,
            exclude_poi_ids=[seen[u] for u in cohort])
        return float(np.mean([sum(mass[u][p] for p, _s in row)
                              for u, row in zip(cohort, rows)]))

    return recall


def _stream_layers(served, reads, updater, bursts, swaps, meter):
    """Per-burst write-path stage times (ms) plus read-side layers."""
    stages = {name: 1000.0 * float(np.mean([r[name] for r in served]))
              for name in _WRITE_STAGES}
    per_user: Dict[int, int] = {}
    for burst in bursts:
        for event in burst:
            per_user[event.user_id] = per_user.get(event.user_id, 0) + 1
    ingested = updater.stats.events_ingested
    skipped = updater.stats.events_skipped
    layers = {
        **stages,
        **_read_layers(reads),
        "streaming.events_skipped_ratio": skipped / max(ingested + skipped,
                                                        1),
        "streaming.history_rows": float(sum(
            min(n, updater.max_history_per_user)
            for n in per_user.values())),
        "fleet.swaps": float(swaps),
        **meter.deltas,
    }
    freshness_ms = 1000.0 * float(np.mean([r["served"] - r["start"]
                                           for r in served]))
    return layers, ("burst", freshness_ms)


WORKLOADS: Dict[str, Callable[[int, float, bool], Outcome]] = {
    "train_fit": train_fit,
    "train_dp": train_dp,
    "serve_zipf": serve_zipf,
    "serve_uniform": serve_uniform,
    "stream": stream,
}
