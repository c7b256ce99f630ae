"""Kernel and MMD estimator tests."""

import numpy as np
import pytest

from repro.nn.module import Parameter
from repro.nn.optim import Adam
from repro.transfer.kernels import (
    GaussianKernel,
    MultiGaussianKernel,
    median_heuristic_bandwidth,
)
from repro.transfer.mmd import MMDBatch
from tests.oracle import mmd_between_embeddings


def gram(kernel, x, y):
    return kernel.gram(np.asarray(x, dtype=np.float64),
                       np.asarray(y, dtype=np.float64)).K


class TestGaussianKernel:
    def test_self_similarity_is_one(self):
        k = GaussianKernel(1.0)
        x = np.random.default_rng(0).normal(size=(4, 3))
        np.testing.assert_allclose(np.diag(gram(k, x, x)), 1.0, atol=1e-9)

    def test_decreases_with_distance(self):
        k = GaussianKernel(1.0)
        near = gram(k, [[0.0]], [[0.1]]).item()
        far = gram(k, [[0.0]], [[3.0]]).item()
        assert near > far

    def test_known_value(self):
        k = GaussianKernel(2.0)
        value = gram(k, [[0.0]], [[2.0]]).item()
        np.testing.assert_allclose(value, np.exp(-4.0 / 8.0))

    def test_invalid_bandwidth(self):
        with pytest.raises(ValueError):
            GaussianKernel(0.0)


class TestMultiGaussianKernel:
    def test_geometric_bandwidths(self):
        k = MultiGaussianKernel(base_bandwidth=1.0, num_kernels=5, factor=2.0)
        np.testing.assert_allclose(k.bandwidths, [0.25, 0.5, 1.0, 2.0, 4.0])

    def test_average_of_components(self):
        multi = MultiGaussianKernel(1.0, num_kernels=3, factor=2.0)
        x = np.random.default_rng(1).normal(size=(3, 2))
        y = np.random.default_rng(2).normal(size=(4, 2))
        expected = sum(
            gram(GaussianKernel(bw), x, y) for bw in multi.bandwidths
        ) / 3
        np.testing.assert_allclose(gram(multi, x, y), expected)


class TestMedianHeuristic:
    def test_positive_scale(self):
        rng = np.random.default_rng(0)
        bw = median_heuristic_bandwidth(rng.normal(size=(30, 4)),
                                        rng.normal(size=(30, 4)))
        assert 1.0 < bw < 6.0

    def test_degenerate_fallback(self):
        assert median_heuristic_bandwidth(np.zeros((2, 2)),
                                          np.zeros((2, 2))) == 1.0


class TestMMDEstimators:
    @pytest.fixture(scope="class")
    def samples(self):
        rng = np.random.default_rng(0)
        same_a = rng.normal(size=(150, 6))
        same_b = rng.normal(size=(150, 6))
        shifted = rng.normal(loc=1.5, size=(150, 6))
        return same_a, same_b, shifted

    def test_quadratic_separates(self, samples):
        a, b, shifted = samples
        k = GaussianKernel(2.0)
        assert MMDBatch(a, b, k).loss < 0.05
        assert MMDBatch(a, shifted, k).loss > 0.1

    def test_unbiased_near_zero_for_same(self, samples):
        a, b, _ = samples
        value = MMDBatch(a, b, GaussianKernel(2.0), "unbiased").loss
        assert abs(value) < 0.02  # can be slightly negative

    def test_linear_tracks_quadratic(self, samples):
        a, _, shifted = samples
        k = GaussianKernel(2.0)
        lin = MMDBatch(a, shifted, k, "linear").loss
        quad = MMDBatch(a, shifted, k).loss
        assert abs(lin - quad) < 0.15
        assert lin > 0.1

    def test_shape_validation(self):
        k = GaussianKernel(1.0)
        with pytest.raises(ValueError):
            MMDBatch(np.zeros((3, 2)), np.zeros((3, 5)), k)
        with pytest.raises(ValueError):
            MMDBatch(np.zeros((1, 2)), np.zeros((1, 2)), k, "linear")
        with pytest.raises(ValueError):
            MMDBatch(np.zeros((1, 2)), np.zeros((1, 2)), k, "unbiased")

    def test_dispatch(self, samples):
        a, b, _ = samples
        k = GaussianKernel(1.0)
        for est in ("quadratic", "unbiased", "linear"):
            assert np.isfinite(MMDBatch(a, b, k, est).loss)
        with pytest.raises(ValueError):
            MMDBatch(a, b, k, "bogus")

    @pytest.mark.parametrize("kernel", [GaussianKernel(1.5),
                                        MultiGaussianKernel(1.5)])
    @pytest.mark.parametrize("estimator",
                             ["quadratic", "unbiased", "linear"])
    def test_loss_matches_tape(self, samples, estimator, kernel):
        """Forward-only callers read ``loss``: the tape's bits."""
        a, _, shifted = samples
        want = mmd_between_embeddings(a, shifted, kernel, estimator)
        got = MMDBatch(a, shifted, kernel, estimator).loss
        assert np.asarray(got).tobytes() == want.data.tobytes()

    def test_minimizing_mmd_aligns_distributions(self):
        rng = np.random.default_rng(1)
        x = Parameter(rng.normal(loc=2.0, size=(60, 3)))
        y = rng.normal(size=(60, 3))
        k = GaussianKernel(2.0)
        opt = Adam([x], lr=0.05)
        start = MMDBatch(x.data, y, k).loss
        for _ in range(80):
            batch = MMDBatch(x.data, y, k)
            x.grad, _ = batch.backward(np.ones(()))
            opt.step()
        assert MMDBatch(x.data, y, k).loss < start * 0.3
