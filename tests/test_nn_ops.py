"""The tape's multi-input functional ops: concat, rowwise_dot, distances."""

import numpy as np
import pytest

from tests.oracle import Tensor, concat, pairwise_sq_dists, rowwise_dot
from tests.test_nn_tensor import assert_grad_matches


class TestConcat:
    def test_values_axis1(self):
        a = Tensor(np.ones((2, 2)))
        b = Tensor(np.zeros((2, 3)))
        out = concat([a, b], axis=1)
        assert out.shape == (2, 5)
        np.testing.assert_array_equal(out.data[:, :2], 1.0)
        np.testing.assert_array_equal(out.data[:, 2:], 0.0)

    def test_grad_splits_between_parents(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        assert_grad_matches(lambda: (concat([a, b], axis=1) ** 2).sum(), a, b)

    def test_negative_axis(self):
        a = Tensor(np.ones((2, 2)))
        assert concat([a, a], axis=-1).shape == (2, 4)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            concat([])

    def test_three_way_grad(self):
        rng = np.random.default_rng(1)
        parts = [Tensor(rng.normal(size=(2, i + 1)), requires_grad=True)
                 for i in range(3)]
        assert_grad_matches(
            lambda: (concat(parts, axis=1) ** 2).sum(), *parts
        )


class TestRowwiseDot:
    def test_matches_manual(self):
        rng = np.random.default_rng(3)
        a_data = rng.normal(size=(4, 5))
        b_data = rng.normal(size=(4, 5))
        out = rowwise_dot(Tensor(a_data), Tensor(b_data))
        np.testing.assert_allclose(out.data, (a_data * b_data).sum(axis=1))

    def test_grad(self):
        rng = np.random.default_rng(4)
        a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        assert_grad_matches(lambda: rowwise_dot(a, b).sum(), a, b)


class TestPairwiseSqDists:
    def test_matches_direct_computation(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, 3))
        y = rng.normal(size=(4, 3))
        out = pairwise_sq_dists(Tensor(x), Tensor(y)).data
        direct = ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_allclose(out, direct, atol=1e-10)

    def test_self_distance_zero_diag(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(5, 3))
        out = pairwise_sq_dists(Tensor(x), Tensor(x)).data
        np.testing.assert_allclose(np.diag(out), 0.0, atol=1e-9)

    def test_never_negative(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(20, 2)) * 1e-8
        out = pairwise_sq_dists(Tensor(x), Tensor(x)).data
        assert (out >= 0).all()

    def test_grad(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        y = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        assert_grad_matches(
            lambda: (pairwise_sq_dists(x, y) * 0.3).sum(), x, y
        )
