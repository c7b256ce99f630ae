"""End-to-end request tracing across a real multi-process fleet.

One module-scoped traced run drives the resilient path with *every*
shard stalled (hedging has nowhere healthy to go, so degradation is
deterministic), dumps the flight recorder into a telemetry tree, and
the tests assert the tentpole contract on the reloaded JSONL: every
degraded request has a complete cross-process trace, the critical-path
segments sum to the measured latency, and the p99 attribution lands
within the 10% band.
"""

import json

import pytest

from repro.cli import main
from repro.core.config import STTransRecConfig
from repro.core.model import STTransRec
from repro.fleet.loadgen import run_chaos_loop
from repro.fleet.router import ShardRouter
from repro.obs.export import load_slo_summaries, load_traces
from repro.obs.slo import SloTracker, default_serving_slos
from repro.obs.spans import CAT_ADMISSION, CAT_MERGE, CAT_QUEUE
from repro.obs.trace_report import (
    attach_spans,
    format_trace_report,
    p99_attribution,
    trace_critical_path,
)
from repro.parallel.supervisor import SupervisionConfig
from repro.reliability import ChaosPlan, WindowFault
from repro.resilience import QUALITY_FULL, Deadline, ResilienceConfig

TARGET = "shelbyville"
K = 5
FOREVER = 1_000_000
DEADLINE_MS = 200.0


@pytest.fixture(scope="module")
def world(tiny_dataset):
    dataset, _truth = tiny_dataset
    index = dataset.build_index()
    model = STTransRec(index.num_users, index.num_pois, index.num_words,
                       STTransRecConfig(embedding_dim=8, seed=3))
    model.eval()
    return model, index, dataset


def _supervision():
    return SupervisionConfig(step_timeout=60.0, max_respawns=2,
                             respawn_backoff=0.01)


def _tight():
    return ResilienceConfig(
        deadline_ms=DEADLINE_MS, hop_timeout_ms=DEADLINE_MS * 0.4,
        hedge_after_ms=DEADLINE_MS * 0.12, poll_interval_ms=4.0,
        finalize_margin_ms=4.0, breaker_restart_shard=False)


@pytest.fixture(scope="module")
def degraded_run(world, tmp_path_factory):
    """A traced chaos-loop run with *both* shards stalled all run.

    The stall (0.5s) dwarfs the deadline (200ms) but not the load
    window (2s), so abandoned attempts keep resolving as *stale*
    replies mid-run — the path that carries shard-side spans back into
    the router's recorder ring for cross-process reconstruction.
    """
    model, index, dataset = world
    telemetry_dir = tmp_path_factory.mktemp("traced")
    users = sorted(dataset.users)
    plan = ChaosPlan(windows=[
        WindowFault.slow_shard(0, 0, FOREVER, 0.5),
        WindowFault.slow_shard(1, 0, FOREVER, 0.5),
    ])
    slo = SloTracker(default_serving_slos(DEADLINE_MS),
                     short_window_s=0.25, long_window_s=1.0,
                     min_events=10)
    with ShardRouter(model, index, dataset, TARGET, num_shards=2,
                     fault_plan=plan, supervision=_supervision(),
                     resilience=_tight(), tracing=True, slo=slo,
                     telemetry_dir=telemetry_dir) as router:
        result = run_chaos_loop(router, users, rate=200.0,
                                duration_s=2.0, k=K,
                                deadline_ms=DEADLINE_MS, seed=11,
                                slo=slo)
        stats = router.trace_stats()
    traces, spans, num_logs = load_traces(telemetry_dir)
    return {"users": users, "result": result, "stats": stats,
            "slo": slo, "telemetry_dir": telemetry_dir,
            "traces": traces, "spans": spans, "num_logs": num_logs}


class TestDegradedTracing:
    def test_every_degraded_request_has_a_complete_trace(self,
                                                         degraded_run):
        result = degraded_run["result"]
        non_full = result.answered - result.quality_counts.get("full", 0)
        assert non_full > 0, "stalling every shard must degrade answers"
        kept = [t for t in degraded_run["traces"]
                if t["keep_reason"] in ("degraded", "shed", "error")]
        assert kept, "degraded requests must be tail-sampled in"
        for trace in kept:
            cats = {e["cat"] for e in trace["events"]
                    if e["trace"] == trace["trace_id"]}
            # The covering router-side segments are always present.
            assert CAT_QUEUE in cats
            assert CAT_ADMISSION in cats or trace["shed"]
            assert CAT_MERGE in cats

    def test_critical_path_sums_to_request_latency(self, degraded_run):
        for trace in degraded_run["traces"]:
            if trace["shed"]:
                continue            # shed answers skip the fan-out
            path = trace_critical_path(trace)
            assert sum(path.values()) == pytest.approx(
                trace["latency_ms"], rel=0.02, abs=0.5)

    def test_p99_attribution_within_band(self, degraded_run):
        attribution = p99_attribution(degraded_run["traces"])
        assert attribution["traces_used"] >= 1
        assert attribution["sum_ms"] == pytest.approx(
            attribution["p99_ms"], rel=0.10)
        # The attribution names a real culprit, not an empty table.
        assert max(attribution["categories"].values()) > 0.0

    def test_shard_spans_join_cross_process(self, degraded_run):
        enriched = attach_spans(degraded_run["traces"],
                                degraded_run["spans"])
        procs = {e["proc"] for t in enriched for e in t["events"]}
        assert any(p.startswith("shard-") for p in procs), (
            "replies (or shard span logs) must carry shard-side spans "
            f"into the reconstruction, saw procs={sorted(procs)}")

    def test_slo_fed_by_router_and_loop(self, degraded_run):
        result = degraded_run["result"]
        summary = degraded_run["slo"].summary()
        # The router feeds one event per *finalized response* (exactly
        # the population the flight recorder judges); the loop adds
        # only the arrivals that got no response at all.  Duplicate
        # arrivals share their user's response, so events land between
        # the response count and the offered count.
        availability = summary["objectives"]["availability"]
        flight_seen = degraded_run["stats"]["flight"]["seen"]
        unanswered = result.offered - result.answered
        assert availability["events"] == flight_seen + unanswered
        assert availability["bad"] == unanswered
        deadline = summary["objectives"]["deadline_hit"]
        assert deadline["events"] == availability["events"]

    def test_trace_stats_counts(self, degraded_run):
        stats = degraded_run["stats"]
        assert stats["recorder"]["emitted"] > 0
        assert stats["flight"]["seen"] >= 1
        assert stats["flight"]["kept"] >= 1

    def test_report_renders_from_reloaded_tree(self, degraded_run):
        report = format_trace_report(degraded_run["traces"],
                                     degraded_run["spans"],
                                     num_logs=degraded_run["num_logs"],
                                     timelines=1)
        assert "critical path" in report
        assert "p99 attribution" in report
        assert "slowest trace(s)" in report


class TestBurnAlert:
    def test_deadline_misses_fire_a_burn_alert(self, world):
        """Every shard stalled, no hop timeout inside the budget and no
        finalize margin: a user still waiting on the fan-out is
        finalized only once its deadline has passed, so the router
        reports misses and the tracker must raise a burn-rate alert."""
        model, index, dataset = world
        plan = ChaosPlan(windows=[
            WindowFault.slow_shard(0, 0, FOREVER, 0.5),
            WindowFault.slow_shard(1, 0, FOREVER, 0.5),
        ])
        late = ResilienceConfig(
            deadline_ms=DEADLINE_MS, hop_timeout_ms=DEADLINE_MS * 2,
            hedge_after_ms=DEADLINE_MS * 0.12, poll_interval_ms=4.0,
            finalize_margin_ms=0.0, breaker_restart_shard=False)
        slo = SloTracker(default_serving_slos(DEADLINE_MS),
                         short_window_s=0.25, long_window_s=1.0,
                         min_events=10)
        with ShardRouter(model, index, dataset, TARGET, num_shards=2,
                         fault_plan=plan, supervision=_supervision(),
                         resilience=late, slo=slo) as router:
            run_chaos_loop(router, sorted(dataset.users), rate=100.0,
                           duration_s=1.5, k=K, deadline_ms=DEADLINE_MS,
                           seed=11, slo=slo)
        deadline = slo.summary()["objectives"]["deadline_hit"]
        miss = 1.0 - deadline["compliance"]
        assert miss > 0.10, f"stalled shards missed only {miss:.1%}"
        assert deadline["alerts"] >= 1, (
            f"{miss:.1%} of deadlines missed but no burn-rate alert fired")


class TestDeadlineAtReturn:
    def test_finalized_in_budget_but_returned_late_is_a_miss(self, world):
        """One batch, one stalled shard: the short-budget user is
        finalized from the fallback chain inside its budget, but the
        call returns only once the long-budget user's slice arrives,
        after the short budget has run out.  The caller saw a late
        answer, so the SLO tracker must count a miss."""
        model, index, dataset = world
        short, patient = sorted(dataset.users)[:2]
        plan = ChaosPlan(windows=[WindowFault.slow_shard(0, 0, FOREVER,
                                                         0.3)])
        config = ResilienceConfig(
            deadline_ms=10_000.0, hop_timeout_ms=5_000.0,
            hedge_after_ms=5_000.0, poll_interval_ms=2.0,
            finalize_margin_ms=80.0, breaker_restart_shard=False)
        slo = SloTracker(default_serving_slos(DEADLINE_MS))
        with ShardRouter(model, index, dataset, TARGET, num_shards=1,
                         fault_plan=plan, supervision=_supervision(),
                         resilience=config, slo=slo) as router:
            got = router.recommend_resilient(
                [short, patient], k=K,
                deadlines=[Deadline(100.0), Deadline(10_000.0)])
            counters = router.resilience_stats()
        assert got[patient].quality == QUALITY_FULL
        assert got[patient].deadline_met
        assert got[short].quality != QUALITY_FULL
        assert got[short].latency_ms >= 100.0
        assert not got[short].deadline_met
        deadline = slo.summary()["objectives"]["deadline_hit"]
        assert deadline["events"] == 2
        assert deadline["bad"] == 1
        assert counters["deadline_misses"] == 1
        assert counters["deadline_hits"] == 1


class TestHealthyTracing:
    def test_fault_free_run_is_quiet(self, world):
        model, index, dataset = world
        users = sorted(dataset.users)
        generous = ResilienceConfig(
            deadline_ms=10_000.0, hop_timeout_ms=5_000.0,
            hedge_after_ms=2_000.0, poll_interval_ms=5.0)
        slo = SloTracker(default_serving_slos(10_000.0),
                         short_window_s=1.0, long_window_s=4.0,
                         min_events=5)
        with ShardRouter(model, index, dataset, TARGET, num_shards=2,
                         resilience=generous, tracing=True,
                         slo=slo) as router:
            responses = router.recommend_resilient(users, k=K)
            stats = router.trace_stats()
        assert all(r.quality == QUALITY_FULL for r in responses.values())
        # Nothing degraded, shed, or errored: the flight recorder saw
        # everything and kept (at most) slow-tail traces.
        assert stats["flight"]["seen"] == len(users)
        assert stats["flight"]["kept_by_reason"]["degraded"] == 0
        assert stats["flight"]["kept_by_reason"]["shed"] == 0
        assert slo.evaluate() == []
        assert slo.alerts == []

    def test_plain_requests_are_traced_and_counted(self, world):
        model, index, dataset = world
        users = sorted(dataset.users)
        slo = SloTracker(default_serving_slos(10_000.0))
        with ShardRouter(model, index, dataset, TARGET, num_shards=2,
                         tracing=True, slo=slo) as router:
            served = router.recommend_many(users + users[:3], k=K)
            stats = router.trace_stats()
        assert len(served) == len(users)
        assert stats["flight"]["seen"] == len(served)
        availability = slo.summary()["objectives"]["availability"]
        assert availability["events"] == len(served)
        assert availability["bad"] == 0

    def test_trace_stats_requires_tracing(self, world):
        model, index, dataset = world
        with ShardRouter(model, index, dataset, TARGET,
                         num_shards=1) as router:
            with pytest.raises(RuntimeError):
                router.trace_stats()


class TestSloPersistence:
    def test_slo_summary_roundtrips_through_telemetry_tree(
            self, degraded_run, tmp_path):
        doc = {"kind": "slo", "deadline_ms": DEADLINE_MS,
               "shards": {"2": degraded_run["slo"].summary()}}
        (tmp_path / "slo.json").write_text(json.dumps(doc))
        loaded = load_slo_summaries(tmp_path)
        assert len(loaded) == 1
        _path, summary = loaded[0]
        assert summary["shards"]["2"]["objectives"][
            "deadline_hit"]["events"] > 0

    def test_router_writes_slo_summary_at_close(self, degraded_run):
        loaded = load_slo_summaries(degraded_run["telemetry_dir"])
        assert len(loaded) == 1
        _path, summary = loaded[0]
        # Burn rates are read off the clock; the counts and the alert
        # log are what close() must have captured.
        live = degraded_run["slo"].summary()
        assert summary["alerts"] == live["alerts"]
        for name, objective in live["objectives"].items():
            for field in ("events", "good", "bad", "alerts"):
                assert summary["objectives"][name][field] == \
                    objective[field]


class TestReportCommands:
    """The CLI readers over the live run's telemetry tree."""

    def test_trace_report_explains_degraded_traces(self, degraded_run,
                                                   capsys):
        code = main(["trace-report", "--telemetry-dir",
                     str(degraded_run["telemetry_dir"])])
        assert code == 0
        out = capsys.readouterr().out
        assert "kept because: degraded=" in out
        assert "p99 attribution" in out
        assert "slowest trace" in out

    def test_metrics_report_json_rolls_up_traces_and_slo(self,
                                                         degraded_run,
                                                         capsys):
        code = main(["metrics-report", "--telemetry-dir",
                     str(degraded_run["telemetry_dir"]),
                     "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["traces"]["kept"] > 0
        assert doc["slo"]
        assert doc["slo"][0]["objectives"]["deadline_hit"]["events"] > 0
