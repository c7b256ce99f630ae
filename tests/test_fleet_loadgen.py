"""Open-loop load generation: schedules, Zipf skew, and the harness."""

import numpy as np
import pytest

from repro.fleet.loadgen import (
    LoadPhase,
    ZipfUserSampler,
    poisson_schedule,
    run_open_loop,
)
from repro.obs.metrics import MetricsRegistry


class StubBackend:
    """Records recommend_many calls; unknown users are skipped."""

    def __init__(self, known=frozenset(range(100))):
        self.known = known
        self.calls = []

    def recommend_many(self, user_ids, k=10, exclude_visited=True):
        self.calls.append(list(user_ids))
        return {u: [(0, 1.0)] * k for u in user_ids if u in self.known}


class TestLoadPhase:
    def test_validation(self):
        with pytest.raises(ValueError):
            LoadPhase(0.0)
        with pytest.raises(ValueError):
            LoadPhase(1.0, rate_multiplier=-0.5)
        assert LoadPhase(1.0, 0.0).rate_multiplier == 0.0


class TestPoissonSchedule:
    def test_sorted_and_bounded(self):
        rng = np.random.default_rng(0)
        phases = [LoadPhase(1.0), LoadPhase(0.5, 3.0)]
        times = poisson_schedule(100.0, phases, rng)
        assert np.all(np.diff(times) >= 0)
        assert times[0] >= 0 and times[-1] < 1.5

    def test_seeded_determinism(self):
        phases = [LoadPhase(2.0)]
        a = poisson_schedule(50.0, phases, np.random.default_rng(5))
        b = poisson_schedule(50.0, phases, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_burst_phase_raises_arrival_density(self):
        rng = np.random.default_rng(1)
        phases = [LoadPhase(2.0), LoadPhase(2.0, 3.0)]
        times = poisson_schedule(200.0, phases, rng)
        steady = np.count_nonzero(times < 2.0)
        burst = np.count_nonzero(times >= 2.0)
        assert burst > 2 * steady

    def test_zero_rate_phase_emits_nothing(self):
        rng = np.random.default_rng(2)
        times = poisson_schedule(
            100.0, [LoadPhase(1.0, 0.0), LoadPhase(1.0)], rng)
        assert times.min() >= 1.0

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            poisson_schedule(0.0, [LoadPhase(1.0)], rng)
        with pytest.raises(ValueError):
            poisson_schedule(10.0, [], rng)


class TestZipfUserSampler:
    def test_samples_only_population_ids(self):
        ids = [7, 11, 13, 17, 19]
        sampler = ZipfUserSampler(ids, exponent=1.2, seed=3)
        drawn = sampler.sample(500)
        assert set(drawn.tolist()) <= set(ids)

    def test_seeded_determinism(self):
        ids = list(range(50))
        a = ZipfUserSampler(ids, seed=9).sample(200)
        b = ZipfUserSampler(ids, seed=9).sample(200)
        np.testing.assert_array_equal(a, b)

    def test_skew_concentrates_on_hot_users(self):
        ids = list(range(200))
        drawn = ZipfUserSampler(ids, exponent=1.3, seed=0).sample(5000)
        _unique, counts = np.unique(drawn, return_counts=True)
        top_share = np.sort(counts)[-10:].sum() / counts.sum()
        # 10 of 200 users (5%) should carry far more than 5% of traffic.
        assert top_share > 0.25

    def test_zero_exponent_is_uniformish(self):
        ids = list(range(10))
        drawn = ZipfUserSampler(ids, exponent=0.0, seed=0).sample(5000)
        _unique, counts = np.unique(drawn, return_counts=True)
        assert counts.min() > 300

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfUserSampler([])
        with pytest.raises(ValueError):
            ZipfUserSampler([1], exponent=-1.0)


class TestRunOpenLoop:
    def test_serves_offered_load_and_records_metrics(self):
        backend = StubBackend()
        registry = MetricsRegistry()
        result = run_open_loop(backend, list(range(100)), rate=2000.0,
                               duration_s=0.25, k=5, seed=0,
                               registry=registry)
        assert result.offered > 0
        assert result.served == result.offered
        assert result.batches <= result.offered
        assert result.p50_ms >= 0 and result.p99_ms >= result.p50_ms
        assert registry.counter("fleet.load.offered").value == \
            result.offered
        assert registry.counter("fleet.load.served").value == result.served
        hist = registry.histogram("fleet.load.latency_ms")
        assert hist.count == result.offered

    def test_unknown_users_reduce_served_not_offered(self):
        backend = StubBackend(known=frozenset(range(50)))
        result = run_open_loop(backend, list(range(100)), rate=2000.0,
                               duration_s=0.2, seed=1)
        assert result.served < result.offered

    def test_burst_phases_flow_through(self):
        backend = StubBackend()
        phases = [LoadPhase(0.1), LoadPhase(0.05, 3.0), LoadPhase(0.1)]
        result = run_open_loop(backend, list(range(20)), rate=1000.0,
                               phases=phases, seed=2)
        assert result.phases == phases
        assert result.offered > 0

    def test_requires_duration_or_phases(self):
        with pytest.raises(ValueError):
            run_open_loop(StubBackend(), [1], rate=10.0)

    def test_to_dict_round_numbers(self):
        backend = StubBackend()
        result = run_open_loop(backend, list(range(10)), rate=500.0,
                               duration_s=0.1, seed=3)
        d = result.to_dict()
        assert d["offered"] == result.offered
        assert d["served_rate"] == pytest.approx(result.served_rate)

