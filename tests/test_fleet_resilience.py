"""The resilient serving path under injected serving-tier faults.

Each test drives :meth:`ShardRouter.recommend_resilient` against a real
2-shard fleet with a :class:`ChaosPlan` injecting the fault under test,
and asserts on the *response contract*: every known user gets an
answer, every answer carries a truthful quality tag, and latency is
bounded by the deadline budget rather than the fault duration.
"""

import multiprocessing as mp

import pytest

from repro.core.config import STTransRecConfig
from repro.core.model import STTransRec
from repro.fleet.loadgen import run_chaos_loop
from repro.fleet.router import ShardRouter
from repro.parallel.supervisor import SupervisionConfig
from repro.reliability import ChaosPlan, WindowFault
from repro.resilience import (
    QUALITY_CACHED,
    QUALITY_FALLBACK,
    QUALITY_FULL,
    QUALITY_TIERS,
    ResilienceConfig,
)
from repro.serving.service import RecommendationService

TARGET = "shelbyville"
K = 5

# Fault windows stay open forever: recovery must come from the breaker
# restart / crash respawn clearing the injected plan, not from expiry.
FOREVER = 1_000_000


@pytest.fixture(scope="module")
def world(tiny_dataset):
    dataset, _truth = tiny_dataset
    index = dataset.build_index()
    model = STTransRec(index.num_users, index.num_pois, index.num_words,
                       STTransRecConfig(embedding_dim=8, seed=3))
    model.eval()
    return model, index, dataset


@pytest.fixture(scope="module")
def reference(world):
    model, index, dataset = world
    with RecommendationService(model, index, dataset, TARGET,
                               cache_size=0, use_batcher=False) as service:
        users = sorted(dataset.users)
        return users, service.recommend_many(users, k=K)


def _supervision(**kwargs):
    kwargs.setdefault("step_timeout", 60.0)
    kwargs.setdefault("max_respawns", 2)
    kwargs.setdefault("respawn_backoff", 0.01)
    return SupervisionConfig(**kwargs)


def _generous():
    """A config whose budgets dwarf tiny-world service times: with no
    faults injected, nothing should hedge, shed, trip, or degrade."""
    return ResilienceConfig(deadline_ms=10_000.0, hop_timeout_ms=5_000.0,
                            hedge_after_ms=2_000.0, poll_interval_ms=5.0)


class TestResilientParity:
    def test_no_faults_bit_identical_full_quality(self, world, reference):
        model, index, dataset = world
        users, expected = reference
        for num_shards in (1, 2, 3):
            with ShardRouter(model, index, dataset, TARGET,
                             num_shards=num_shards,
                             resilience=_generous()) as router:
                got = router.recommend_resilient(users, k=K)
                assert set(got) == set(users)
                for user in users:
                    response = got[user]
                    assert response.quality == QUALITY_FULL
                    assert response.deadline_met
                    assert not response.shed
                    assert response.items == expected[user]
                stats = router.resilience_stats()
                assert stats["hedges"] == 0
                assert stats["admission"]["shed"] == 0
                # Plain path still bit-identical alongside the
                # resilient one (deadlines off => same ranking).
                assert router.recommend_many(users[:4], k=K) == {
                    u: expected[u] for u in users[:4]}

    def test_unknown_users_skipped_and_duplicates_collapse(
            self, world, reference):
        model, index, dataset = world
        users, expected = reference
        probe = users[0]
        with ShardRouter(model, index, dataset, TARGET, num_shards=2,
                         resilience=_generous()) as router:
            got = router.recommend_resilient([probe, probe, 10**9], k=K)
            assert set(got) == {probe}
            assert got[probe].items == expected[probe]

    def test_requires_resilience_config(self, world):
        model, index, dataset = world
        router = ShardRouter(model, index, dataset, TARGET, num_shards=1)
        try:
            with pytest.raises(RuntimeError):
                router.recommend_resilient([0], k=K)
            with pytest.raises(RuntimeError):
                router.resilience_stats()
        finally:
            router.close()


class TestHedging:
    def test_slow_shard_hedge_wins_at_full_quality(self, world, reference):
        model, index, dataset = world
        users, expected = reference
        # Shard 0 stalls 300ms on its first few requests; the hedge
        # fires after 15ms of silence and shard 1 answers the slice.
        plan = ChaosPlan(windows=[
            WindowFault.slow_shard(0, 0, 3, 0.3)])
        config = ResilienceConfig(
            deadline_ms=5_000.0, hop_timeout_ms=2_000.0,
            hedge_after_ms=15.0, poll_interval_ms=2.0)
        with ShardRouter(model, index, dataset, TARGET, num_shards=2,
                         fault_plan=plan, supervision=_supervision(),
                         resilience=config) as router:
            got = router.recommend_resilient(users[:4], k=K)
            stats = router.resilience_stats()
        assert stats["hedges"] >= 1
        for user in users[:4]:
            assert got[user].quality == QUALITY_FULL
            assert got[user].items == expected[user]
            assert got[user].deadline_met


class TestCircuitBreaker:
    def test_breaker_opens_restarts_and_probe_recovers(
            self, world, reference):
        model, index, dataset = world
        users, expected = reference
        # Shard 0 stalls forever: only the breaker-triggered restart
        # (which clears the injected plan) can bring it back.
        plan = ChaosPlan(windows=[
            WindowFault.slow_shard(0, 0, FOREVER, 10.0)])
        config = ResilienceConfig(
            deadline_ms=2_000.0, hop_timeout_ms=60.0, hedge_after_ms=20.0,
            poll_interval_ms=2.0, breaker_failure_threshold=1,
            breaker_probe_backoff_ms=30.0, breaker_restart_shard=True)
        with ShardRouter(model, index, dataset, TARGET, num_shards=2,
                         fault_plan=plan, supervision=_supervision(),
                         resilience=config) as router:
            # First wave: the stalled slice times out, the breaker
            # trips, and the supervisor replaces the shard.
            first = router.recommend_resilient(users[:4], k=K)
            mid = router.resilience_stats()
            assert mid["breaker_opens"] >= 1
            assert mid["breaker_restarts"] >= 1
            # Later waves: the half-open probe hits the restarted
            # (fault-free) incarnation, succeeds, and closes the
            # breaker again.
            import time
            deadline = time.perf_counter() + 10.0
            while time.perf_counter() < deadline:
                last = router.recommend_resilient(users[:4], k=K)
                state = router.resilience_stats()["breakers"][0]["state"]
                if state == "closed":
                    break
                time.sleep(0.05)
            final = router.resilience_stats()
            assert final["breakers"][0]["state"] == "closed"
            assert router.stats()["faults"]["restarts"] >= 1
        # Every wave answered every user within its (generous) budget.
        for got in (first, last):
            assert set(got) == set(users[:4])
            for response in got.values():
                assert response.quality in QUALITY_TIERS
        # And the recovered fleet is back to bit-identical answers.
        assert {u: r.items for u, r in last.items()} == {
            u: expected[u] for u in users[:4]}
        assert not mp.active_children()


class TestLoadShedding:
    def test_overflow_is_shed_flagged_and_counted(self, world):
        model, index, dataset = world
        users = sorted(dataset.users)
        config = ResilienceConfig(
            deadline_ms=10_000.0, hop_timeout_ms=5_000.0,
            hedge_after_ms=2_000.0, admission_queue_limit=1)
        with ShardRouter(model, index, dataset, TARGET, num_shards=2,
                         resilience=config) as router:
            got = router.recommend_resilient(users[:5], k=K)
            stats = router.resilience_stats()
        shed = [r for r in got.values() if r.shed]
        served = [r for r in got.values() if not r.shed]
        assert len(served) == 1 and len(shed) == 4
        assert all(r.shed_reason == "queue_full" for r in shed)
        # Shed requests are still *answered* (from the fallback chain),
        # just not at full quality.
        assert all(r.quality in (QUALITY_CACHED, QUALITY_FALLBACK)
                   for r in shed)
        assert all(r.items for r in shed)       # popularity tier is on
        assert stats["admission"]["shed"] == 4
        assert stats["admission"]["shed_by_reason"]["queue_full"] == 4


class TestFallbackChain:
    def test_total_fleet_loss_degrades_instead_of_raising(
            self, world, reference):
        model, index, dataset = world
        users, expected = reference
        probe = users[0]
        # Both shards crash on their first request and the respawn
        # budget is zero: the fleet is permanently empty.
        plan = ChaosPlan(windows=[
            WindowFault.crash_under_load(0, 0, FOREVER),
            WindowFault.crash_under_load(1, 0, FOREVER)])
        config = ResilienceConfig(
            deadline_ms=2_000.0, hop_timeout_ms=500.0,
            hedge_after_ms=100.0, breaker_restart_shard=False)
        with ShardRouter(model, index, dataset, TARGET, num_shards=2,
                         fault_plan=plan,
                         supervision=_supervision(max_respawns=0),
                         resilience=config) as router:
            # Warm the result cache while the fleet is still up?  No —
            # it is already doomed; this request rides the fallbacks.
            got = router.recommend_resilient([probe], k=K)
            assert got[probe].quality == QUALITY_FALLBACK
            assert got[probe].items        # popularity is always there
            # A second round still answers (and still does not raise).
            again = router.recommend_resilient(users[:3], k=K)
            assert all(r.quality in (QUALITY_CACHED, QUALITY_FALLBACK)
                       for r in again.values())
        assert not mp.active_children()

    def test_cached_tier_beats_popularity_after_fleet_loss(
            self, world, reference):
        model, index, dataset = world
        users, expected = reference
        probe = users[0]
        # Crash on the *second* request: the first warms the cache.
        plan = ChaosPlan(windows=[
            WindowFault.crash_under_load(0, 1, FOREVER)])
        config = ResilienceConfig(
            deadline_ms=2_000.0, hop_timeout_ms=500.0,
            hedge_after_ms=100.0, breaker_restart_shard=False,
            cache_ttl_seconds=60.0)
        with ShardRouter(model, index, dataset, TARGET, num_shards=1,
                         fault_plan=plan,
                         supervision=_supervision(max_respawns=0),
                         resilience=config) as router:
            warm = router.recommend_resilient([probe], k=K)
            assert warm[probe].quality == QUALITY_FULL
            got = router.recommend_resilient([probe], k=K)
            assert got[probe].quality == QUALITY_CACHED
            # The cached ranking is the previously exact one.
            assert got[probe].items == expected[probe]


class TestDeadlineBounds:
    def test_p99_bounded_by_deadline_not_fault_duration(
            self, world, reference):
        model, index, dataset = world
        users, expected = reference
        # A 2s stall against a 150ms budget: answers must come from
        # hedges/fallbacks near the deadline, never from waiting out
        # the stall.
        plan = ChaosPlan(windows=[
            WindowFault.slow_shard(0, 0, FOREVER, 2.0)])
        config = ResilienceConfig(
            deadline_ms=150.0, hop_timeout_ms=60.0, hedge_after_ms=20.0,
            poll_interval_ms=2.0, finalize_margin_ms=5.0,
            breaker_restart_shard=False)
        with ShardRouter(model, index, dataset, TARGET, num_shards=2,
                         fault_plan=plan, supervision=_supervision(),
                         resilience=config) as router:
            got = router.recommend_resilient(users[:6], k=K)
        assert set(got) == set(users[:6])
        for response in got.values():
            # Far below the 2000ms stall; slack covers scheduler noise.
            assert response.latency_ms < 1_000.0
            assert response.quality in QUALITY_TIERS

    def test_expired_deadline_is_shed_at_the_door(self, world):
        model, index, dataset = world
        users = sorted(dataset.users)
        import time
        config = _generous()
        with ShardRouter(model, index, dataset, TARGET, num_shards=1,
                         resilience=config) as router:
            from repro.resilience import Deadline
            spent = Deadline(1.0, start=time.perf_counter() - 1.0)
            got = router.recommend_resilient([users[0]], k=K,
                                             deadlines=[spent])
        response = got[users[0]]
        assert response.shed and response.shed_reason == "expired"
        assert not response.deadline_met


class TestChaosLoop:
    def test_availability_holds_under_slow_plus_crash(self, world):
        model, index, dataset = world
        users = sorted(dataset.users)
        plan = ChaosPlan(windows=[
            WindowFault.slow_shard(0, 2, FOREVER, 0.4),
            WindowFault.crash_under_load(1, 4, 5)])
        config = ResilienceConfig(
            deadline_ms=200.0, hop_timeout_ms=80.0, hedge_after_ms=25.0,
            poll_interval_ms=2.0, finalize_margin_ms=4.0,
            breaker_failure_threshold=2, breaker_probe_backoff_ms=100.0)
        with ShardRouter(model, index, dataset, TARGET, num_shards=2,
                         fault_plan=plan, supervision=_supervision(),
                         resilience=config) as router:
            result = run_chaos_loop(router, users, rate=60.0,
                                    duration_s=1.5, k=K,
                                    deadline_ms=200.0, seed=11)
            faults = router.stats()["faults"]
        assert result.offered > 0
        # The injected crash landed: availability held through a real
        # fault, not because the plan never fired.
        assert faults["crashes"] >= 1
        assert result.availability >= 0.99
        assert result.answered == sum(result.quality_counts.values())
        assert set(result.quality_counts) <= set(QUALITY_TIERS)
        assert not mp.active_children()
