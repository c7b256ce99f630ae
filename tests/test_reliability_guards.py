"""Gradient-guard and divergence-detector tests."""

import numpy as np
import pytest

from repro.perf.transport import GradientLayout
from repro.reliability import DivergenceDetector, GradientGuard

LAYOUT = GradientLayout.build([("w", (2,), "float64"),
                               ("b", (1,), "float64")])


class TestGradientGuard:
    def test_accepts_finite(self):
        guard = GradientGuard()
        assert guard.check(np.ones(3), 0.5, LAYOUT)
        assert guard.steps_skipped == 0

    def test_rejects_nan_gradient_and_counts(self):
        guard = GradientGuard()
        assert not guard.check(np.array([1.0, np.nan, 1.0]), 0.5, LAYOUT)
        assert guard.last_bad_names == ["w"]
        assert not guard.check(np.array([1.0, 1.0, np.inf]), 0.5, LAYOUT)
        assert guard.steps_checked == guard.steps_skipped == 2
        assert guard.last_bad_names == ["b"]

    def test_rejects_nonfinite_loss(self):
        guard = GradientGuard()
        assert not guard.check(np.ones(3), float("nan"), LAYOUT)
        assert guard.last_bad_names == ["<loss>"]


class TestDivergenceDetector:
    def test_steady_losses_never_trip(self):
        detector = DivergenceDetector(factor=10.0, patience=2)
        assert not any(detector.update(loss)
                       for loss in [1.0, 0.9, 0.8, 0.85, 0.7])

    def test_explosion_trips_after_patience(self):
        detector = DivergenceDetector(factor=10.0, patience=2, warmup=0)
        assert not detector.update(1.0)
        assert not detector.update(50.0)     # strike 1
        assert detector.update(60.0)         # strike 2 -> diverged

    def test_single_spike_is_forgiven(self):
        detector = DivergenceDetector(factor=10.0, patience=2, warmup=0)
        detector.update(1.0)
        assert not detector.update(50.0)
        assert not detector.update(0.9)      # recovery resets strikes
        assert not detector.update(55.0)

    def test_nan_loss_counts_as_strike(self):
        detector = DivergenceDetector(factor=10.0, patience=1, warmup=0)
        detector.update(1.0)
        assert detector.update(float("nan"))

    def test_warmup_suppresses_early_chaos(self):
        detector = DivergenceDetector(factor=2.0, patience=1, warmup=3)
        assert not detector.update(1.0)
        assert not detector.update(100.0)    # within warmup
        assert not detector.update(0.5)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            DivergenceDetector(factor=1.0)
        with pytest.raises(ValueError):
            DivergenceDetector(patience=0)
        with pytest.raises(ValueError):
            DivergenceDetector(warmup=-1)
