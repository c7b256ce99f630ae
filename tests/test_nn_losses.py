"""Loss function tests: correctness and numerical stability."""

import numpy as np
import pytest

from tests.oracle import Tensor, bce_with_logits, mse, negative_sampling_loss


class TestBCEWithLogits:
    def test_matches_manual_formula(self):
        logits = np.array([0.3, -1.2, 2.0])
        labels = np.array([1.0, 0.0, 1.0])
        out = bce_with_logits(Tensor(logits), labels).item()
        p = 1 / (1 + np.exp(-logits))
        manual = -(labels * np.log(p) + (1 - labels) * np.log(1 - p)).mean()
        np.testing.assert_allclose(out, manual, rtol=1e-10)

    def test_extreme_logits_finite(self):
        logits = Tensor(np.array([1000.0, -1000.0]))
        out = bce_with_logits(logits, np.array([0.0, 1.0])).item()
        assert np.isfinite(out)
        assert out > 100  # hugely wrong predictions are hugely penalized

    def test_perfect_prediction_near_zero(self):
        out = bce_with_logits(Tensor(np.array([50.0, -50.0])),
                              np.array([1.0, 0.0])).item()
        assert out < 1e-10

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            bce_with_logits(Tensor(np.zeros(3)), np.zeros(4))

    def test_reductions(self):
        logits = Tensor(np.zeros(4))
        labels = np.ones(4)
        mean = bce_with_logits(logits, labels, reduction="mean").item()
        total = bce_with_logits(logits, labels, reduction="sum").item()
        none = bce_with_logits(logits, labels, reduction="none")
        np.testing.assert_allclose(total, mean * 4)
        assert none.shape == (4,)
        with pytest.raises(ValueError):
            bce_with_logits(logits, labels, reduction="bogus")

    def test_gradient_direction(self):
        logits = Tensor(np.array([0.0]), requires_grad=True)
        bce_with_logits(logits, np.array([1.0])).backward()
        # For a positive label, increasing the logit lowers the loss.
        assert logits.grad[0] < 0


class TestNegativeSamplingLoss:
    def test_matches_manual(self):
        pos = np.array([1.0, 2.0])
        neg = np.array([[0.5, -0.5], [1.0, 0.0]])
        out = negative_sampling_loss(Tensor(pos), Tensor(neg)).item()
        sig = lambda x: 1 / (1 + np.exp(-x))
        manual = (-np.log(sig(pos)) - np.log(sig(-neg)).sum(axis=1)).mean()
        np.testing.assert_allclose(out, manual, rtol=1e-10)

    def test_flat_negatives_supported(self):
        out = negative_sampling_loss(Tensor(np.zeros(3)),
                                     Tensor(np.zeros(6))).item()
        assert np.isfinite(out)

    def test_decreases_when_separation_grows(self):
        weak = negative_sampling_loss(Tensor(np.array([0.1])),
                                      Tensor(np.array([[-0.1]]))).item()
        strong = negative_sampling_loss(Tensor(np.array([5.0])),
                                        Tensor(np.array([[-5.0]]))).item()
        assert strong < weak


class TestMSE:
    def test_value(self):
        out = mse(Tensor(np.array([1.0, 2.0])), np.array([0.0, 0.0])).item()
        np.testing.assert_allclose(out, 2.5)

    def test_zero_at_target(self):
        pred = Tensor(np.array([1.0, 2.0]))
        assert mse(pred, np.array([1.0, 2.0])).item() == 0.0
