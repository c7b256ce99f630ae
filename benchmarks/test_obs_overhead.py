"""Telemetry overhead: instrumented training must stay within 5%.

The observability contract is "pay only when attached": with
``telemetry=None`` every hook is a ``None`` check, and even with a live
:class:`~repro.obs.telemetry.Telemetry` the per-step cost is a handful
of histogram observes and span timestamps.  This benchmark trains the
same tiny world with and without telemetry and asserts the relative
overhead stays under 5%.  Each round times several epochs per variant
in the training thread's CPU time (``time.thread_time``), the two
variants' epochs interleaved: on a shared host, wall time over one
~50 ms epoch moved by more than the bound between identical runs, and
CPU time does not count the time other processes hold the CPU.  The
tiny world's matrix products are too small for the BLAS to hand to its
worker threads, so the training thread's CPU time covers the whole
epoch.

The pass profiler (``repro train --profile-ops``) times each training
pass with wrappers patched in for the run; it is opt-in per run, so it
is measured and reported here but not held to the 5% bound.
"""

import statistics
import time

from repro.core.config import STTransRecConfig
from repro.core.model import STTransRec
from repro.core.trainer import STTransRecTrainer
from repro.data.split import make_crossing_city_split
from repro.data.synthetic import generate_dataset
from repro.fleet.router import ShardRouter
from repro.nn.profile import profile_ops
from repro.obs.slo import SloTracker, default_serving_slos
from repro.obs.telemetry import Telemetry
from repro.resilience import ResilienceConfig

from tests.conftest import tiny_config
from tests.test_core_trainer import fast_config

MAX_OVERHEAD = 0.05
ROUNDS = 7
EPOCHS_PER_ROUND = 4


def _paired_round(split):
    """Training-thread CPU seconds of :data:`EPOCHS_PER_ROUND` epochs
    without and with telemetry, the two trainers' epochs interleaved
    (the side that runs first alternating) so that both see the same
    host conditions: ``(baseline, instrumented)``."""
    trainers = [STTransRecTrainer(split, fast_config(), telemetry=tel)
                for tel in (None, Telemetry())]
    seconds = [0.0, 0.0]
    for epoch in range(EPOCHS_PER_ROUND):
        for side in ((0, 1) if epoch % 2 == 0 else (1, 0)):
            started = time.thread_time()
            trainers[side].train_epoch(epoch)
            seconds[side] += time.thread_time() - started
    return seconds[0], seconds[1]


def test_telemetry_overhead_under_five_percent(results_sink):
    dataset, _truth = generate_dataset(tiny_config())
    split = make_crossing_city_split(dataset, "shelbyville")

    # The overhead is the median over rounds of each round's paired
    # ratio: drift between rounds cancels within a pair, and the
    # median ignores a round a burst of load hit on one side only.
    _paired_round(split)                        # warmup: caches, imports
    rounds = [_paired_round(split) for _ in range(ROUNDS)]
    baseline = statistics.median(b for b, _ in rounds)
    instrumented = statistics.median(i for _, i in rounds)
    overhead = statistics.median(i / b for b, i in rounds) - 1.0

    # The opt-in pass profiler, for the report only.
    trainer = STTransRecTrainer(split, fast_config())
    started = time.thread_time()
    with profile_ops():
        for epoch in range(EPOCHS_PER_ROUND):
            trainer.train_epoch(epoch)
    profiled = time.thread_time() - started

    lines = [
        f"telemetry overhead on {EPOCHS_PER_ROUND} tiny train_epochs, "
        f"thread CPU time (median of {ROUNDS} paired rounds)",
        f"  baseline (telemetry=None) : {baseline * 1000:8.2f} ms",
        f"  with Telemetry attached   : {instrumented * 1000:8.2f} ms"
        f"  ({overhead * 100:+.2f}%)",
        f"  pass profiler (opt-in)    : {profiled * 1000:8.2f} ms"
        f"  ({(profiled / baseline - 1) * 100:+.1f}%, 1 round, "
        "not bounded)",
        f"  budget                    : {MAX_OVERHEAD * 100:.0f}%",
    ]
    results_sink("obs_overhead", "\n".join(lines))
    assert overhead < MAX_OVERHEAD, (
        f"telemetry overhead {overhead * 100:.2f}% exceeds "
        f"{MAX_OVERHEAD * 100:.0f}% "
        f"(baseline {baseline * 1000:.2f} ms, "
        f"instrumented {instrumented * 1000:.2f} ms)")


# ----------------------------------------------------------------------
# Request tracing on the serving fleet.

def _serving_world():
    """A production-shaped catalogue for per-request measurements.

    The tests' tiny world answers a request in ~0.5 ms — dominated by
    the pipe round trip, ~100x below any real serving request — so a
    fixed ~0.2 ms tracing cost would read as a huge *relative*
    overhead there while being irrelevant in practice.  This world
    gives the target city a few thousand POIs and a 64-dim model, so
    one request does representative scoring work (several ms) and the
    overhead ratio means what it says.
    """
    from repro.data.synthetic import CitySpec, SyntheticConfig

    config = SyntheticConfig(
        cities=[
            CitySpec("springfield", grid_shape=(8, 8), num_regions=4,
                     num_pois=800, num_local_users=40,
                     accessibility_skew=1.2, topic_tilt=0.8),
            CitySpec("shelbyville", grid_shape=(8, 8), num_regions=4,
                     num_pois=8000, num_local_users=32,
                     accessibility_skew=1.4, topic_tilt=0.5),
        ],
        target_city="shelbyville", num_topics=4,
        shared_words_per_topic=6, city_words_per_topic=3,
        num_generic_words=8, generic_fraction=0.15, words_per_poi=5,
        city_dependent_fraction=0.4, num_crossing_users=10,
        checkins_per_local_user=15, crossing_target_checkins=4,
        drift=0.25, trips_per_user=4, preference_concentration=0.25,
        seed=3)
    dataset, _truth = generate_dataset(config)
    index = dataset.build_index()
    model = STTransRec(index.num_users, index.num_pois, index.num_words,
                       STTransRecConfig(embedding_dim=64, seed=3))
    model.eval()
    return model, index, dataset


def _serve_seconds(router, users):
    # One request per call: the serving arrival pattern.  A whole-batch
    # call would amortise its single fan-out round trip across every
    # user and understate the per-request baseline.
    started = time.perf_counter()
    for user in users:
        router.recommend_resilient([user], k=10)
    return time.perf_counter() - started


def test_tracing_overhead_under_five_percent(results_sink):
    """Per-request tracing + flight recorder + SLO feed stays under 5%.

    Two identical resilient fleets serve the same request stream — one
    with the full tracing stack (span emits, tail-sampling judgement,
    SLO recording), one plain.  Rounds interleave and compare
    best-of-N so scheduler noise hits both variants equally; a
    request's tracing cost is a fixed ~0.2 ms of span bookkeeping
    against several milliseconds of catalogue scoring, so 5% is a
    realistic ceiling.

    One shard, deliberately: on a single-core box a 2-shard fleet's
    "parallel" slices time-share the CPU, so every router wake-up
    preempts a scoring shard and the measurement becomes scheduler
    behaviour (proportional to catalogue size), not tracing cost.
    """
    model, index, dataset = _serving_world()
    users = sorted(dataset.users)[:16]
    generous = ResilienceConfig(
        deadline_ms=10_000.0, hop_timeout_ms=5_000.0,
        hedge_after_ms=2_000.0, poll_interval_ms=5.0)
    slo = SloTracker(default_serving_slos(10_000.0))
    target = "shelbyville"
    with ShardRouter(model, index, dataset, target, num_shards=1,
                     resilience=generous) as plain, \
         ShardRouter(model, index, dataset, target, num_shards=1,
                     resilience=generous, tracing=True,
                     slo=slo) as traced:
        _serve_seconds(plain, users)            # warmup both fleets
        _serve_seconds(traced, users)
        baseline = instrumented = float("inf")
        for _ in range(ROUNDS):
            baseline = min(baseline, _serve_seconds(plain, users))
            instrumented = min(instrumented, _serve_seconds(traced, users))
        stats = traced.trace_stats()

    overhead = instrumented / baseline - 1.0
    lines = [
        f"request-tracing overhead on the resilient serving path "
        f"(best of {ROUNDS}, {len(users)} single-user requests "
        f"per round)",
        f"  baseline (tracing off)    : {baseline * 1000:8.2f} ms",
        f"  tracing + flight + SLO    : {instrumented * 1000:8.2f} ms"
        f"  ({overhead * 100:+.2f}%)",
        f"  spans emitted             : {stats['recorder']['emitted']}",
        f"  requests judged           : {stats['flight']['seen']}",
        f"  budget                    : {MAX_OVERHEAD * 100:.0f}%",
    ]
    results_sink("obs_tracing_overhead", "\n".join(lines))
    assert overhead < MAX_OVERHEAD, (
        f"tracing overhead {overhead * 100:.2f}% exceeds "
        f"{MAX_OVERHEAD * 100:.0f}% "
        f"(baseline {baseline * 1000:.2f} ms, "
        f"traced {instrumented * 1000:.2f} ms)")
