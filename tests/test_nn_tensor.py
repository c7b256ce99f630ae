"""Autograd engine tests: values, gradients, and graph mechanics."""

import numpy as np
import pytest

from repro.nn.backend import active_backend
from tests.oracle import Tensor


def numerical_grad(f, x, eps=1e-6):
    """Central-difference gradient of scalar f() w.r.t. array x."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        f_plus = f()
        x[idx] = orig - eps
        f_minus = f()
        x[idx] = orig
        grad[idx] = (f_plus - f_minus) / (2 * eps)
        it.iternext()
    return grad


def assert_grad_matches(build, *tensors, tol=1e-5):
    """Backward gradient of ``build()`` must match numerical gradient."""
    for t in tensors:
        t.zero_grad()
    loss = build()
    loss.backward()
    for t in tensors:
        expected = numerical_grad(lambda: build().item(), t.data)
        assert t.grad is not None
        np.testing.assert_allclose(t.grad, expected, atol=tol, rtol=tol)


class TestConstruction:
    def test_int_data_promoted_to_float(self):
        t = Tensor([1, 2, 3])
        assert np.issubdtype(t.data.dtype, np.floating)

    def test_shape_ndim_size(self):
        t = Tensor(np.zeros((2, 3)))
        assert t.shape == (2, 3)
        assert t.ndim == 2
        assert t.size == 6

    def test_repr_mentions_grad_flag(self):
        assert "requires_grad" in repr(Tensor(1.0, requires_grad=True))
        assert "requires_grad" not in repr(Tensor(1.0))

    def test_item_on_scalar(self):
        assert Tensor(3.5).item() == 3.5

    def test_detach_cuts_graph(self):
        a = Tensor([1.0], requires_grad=True)
        b = (a * 2).detach()
        assert b.is_leaf
        assert not b.requires_grad

    def test_zeros_ones_constructors(self):
        assert Tensor.zeros(2, 3).shape == (2, 3)
        assert Tensor.ones(4).data.sum() == 4.0


class TestArithmeticValues:
    def test_add_broadcast(self):
        a = Tensor(np.ones((2, 3)))
        b = Tensor(np.ones(3))
        np.testing.assert_array_equal((a + b).data, np.full((2, 3), 2.0))

    def test_radd_scalar(self):
        t = 1.0 + Tensor([1.0, 2.0])
        np.testing.assert_array_equal(t.data, [2.0, 3.0])

    def test_sub_and_rsub(self):
        a = Tensor([3.0])
        np.testing.assert_array_equal((a - 1.0).data, [2.0])
        np.testing.assert_array_equal((5.0 - a).data, [2.0])

    def test_mul_div(self):
        a = Tensor([2.0, 4.0])
        np.testing.assert_array_equal((a * 3).data, [6.0, 12.0])
        np.testing.assert_array_equal((a / 2).data, [1.0, 2.0])
        np.testing.assert_array_equal((8.0 / a).data, [4.0, 2.0])

    def test_pow_scalar_only(self):
        a = Tensor([2.0])
        np.testing.assert_array_equal((a ** 3).data, [8.0])
        with pytest.raises(TypeError):
            a ** Tensor([2.0])

    def test_matmul_matrix_matrix(self):
        a = Tensor(np.arange(6).reshape(2, 3))
        b = Tensor(np.arange(12).reshape(3, 4))
        np.testing.assert_array_equal((a @ b).data, a.data @ b.data)

    def test_matmul_matrix_vector(self):
        a = Tensor(np.arange(6).reshape(2, 3))
        v = Tensor(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal((a @ v).data, a.data @ v.data)


class TestGradients:
    def test_add_mul_chain(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        assert_grad_matches(lambda: ((a + b) * a).sum(), a, b)

    def test_broadcast_add_grad(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4,)), requires_grad=True)
        assert_grad_matches(lambda: ((a + b) ** 2).sum(), a, b)

    def test_div_grad(self):
        rng = np.random.default_rng(2)
        a = Tensor(rng.normal(size=(5,)) + 3.0, requires_grad=True)
        b = Tensor(rng.normal(size=(5,)) + 3.0, requires_grad=True)
        assert_grad_matches(lambda: (a / b).sum(), a, b)

    def test_matmul_grad(self):
        rng = np.random.default_rng(3)
        a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        assert_grad_matches(lambda: (a @ b).sum(), a, b)

    def test_matvec_grad(self):
        rng = np.random.default_rng(4)
        a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        v = Tensor(rng.normal(size=(3,)), requires_grad=True)
        assert_grad_matches(lambda: (a @ v).sum(), a, v)

    @pytest.mark.parametrize("op", ["exp", "log", "tanh", "sigmoid",
                                    "log_sigmoid", "relu", "abs", "sqrt"])
    def test_unary_grads(self, op):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(6,))
        if op in ("log", "sqrt"):
            data = np.abs(data) + 0.5
        if op in ("relu", "abs"):
            # keep away from the kink where the derivative jumps
            data = data + np.sign(data) * 0.2
        a = Tensor(data, requires_grad=True)
        assert_grad_matches(lambda: getattr(a, op)().sum(), a)

    def test_clip_grad_masks_outside(self):
        a = Tensor(np.array([-2.0, 0.5, 2.0]), requires_grad=True)
        a.clip(-1.0, 1.0).sum().backward()
        np.testing.assert_array_equal(a.grad, [0.0, 1.0, 0.0])

    def test_sum_axis_keepdims_grad(self):
        rng = np.random.default_rng(6)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        assert_grad_matches(
            lambda: (a.sum(axis=0, keepdims=True) ** 2).sum(), a
        )

    def test_mean_grad(self):
        rng = np.random.default_rng(7)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        assert_grad_matches(lambda: (a.mean(axis=1) ** 2).sum(), a)

    def test_max_grad_splits_ties(self):
        a = Tensor(np.array([[1.0, 1.0, 0.0]]), requires_grad=True)
        a.max(axis=1).sum().backward()
        np.testing.assert_allclose(a.grad, [[0.5, 0.5, 0.0]])

    def test_reshape_transpose_grad(self):
        rng = np.random.default_rng(8)
        a = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
        assert_grad_matches(
            lambda: (a.reshape(3, 4).transpose() ** 2).sum(), a
        )

    def test_getitem_grad_scatter(self):
        a = Tensor(np.arange(5.0), requires_grad=True)
        (a[np.array([0, 0, 2])] ** 1.0).sum().backward()
        np.testing.assert_array_equal(a.grad, [2.0, 0.0, 1.0, 0.0, 0.0])

    def test_gather_rows_grad_accumulates_repeats(self):
        a = Tensor(np.ones((4, 2)), requires_grad=True)
        a.gather_rows(np.array([1, 1, 3])).sum().backward()
        np.testing.assert_array_equal(
            a.grad, [[0, 0], [2, 2], [0, 0], [1, 1]]
        )

    def test_diamond_graph_accumulates_once_per_path(self):
        # y = a*a + a  (a used twice): dy/da = 2a + 1
        a = Tensor(np.array([3.0]), requires_grad=True)
        ((a * a) + a).backward()
        np.testing.assert_array_equal(a.grad, [7.0])

    def test_grad_accumulates_across_backward_calls(self):
        a = Tensor(np.array([1.0]), requires_grad=True)
        (a * 2).backward()
        (a * 2).backward()
        np.testing.assert_array_equal(a.grad, [4.0])
        a.zero_grad()
        assert a.grad is None


class TestShapeOpsExtra:
    def test_transpose_explicit_perm_grad(self):
        rng = np.random.default_rng(11)
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        assert_grad_matches(
            lambda: (a.transpose(2, 0, 1) ** 2).sum(), a
        )

    def test_getitem_slice_grad(self):
        a = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        (a[1:, :2] * 2).sum().backward()
        expected = np.zeros((3, 4))
        expected[1:, :2] = 2.0
        np.testing.assert_array_equal(a.grad, expected)

    def test_mean_axis_tuple(self):
        rng = np.random.default_rng(12)
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        out = a.mean(axis=(0, 2))
        assert out.shape == (3,)
        np.testing.assert_allclose(out.data, a.data.mean(axis=(0, 2)))
        assert_grad_matches(lambda: (a.mean(axis=(0, 2)) ** 2).sum(), a)

    def test_sum_negative_axis_grad(self):
        rng = np.random.default_rng(13)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        assert_grad_matches(lambda: (a.sum(axis=-1) ** 2).sum(), a)

    def test_flatten_grad(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        (a.flatten() * np.arange(6)).sum().backward()
        np.testing.assert_array_equal(a.grad,
                                      np.arange(6.0).reshape(2, 3))

    def test_max_keepdims(self):
        a = Tensor(np.array([[1.0, 3.0], [2.0, 0.0]]))
        out = a.max(axis=1, keepdims=True)
        assert out.shape == (2, 1)


class TestBackwardErrors:
    def test_backward_without_grad_flag(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_non_scalar_needs_seed(self):
        a = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError):
            (a * 2).backward()
        (a * 2).backward(np.ones(3))
        np.testing.assert_array_equal(a.grad, [2.0, 2.0, 2.0])

    def test_deep_chain_does_not_recurse(self):
        # 3000-op chain would blow the recursion limit if backward were
        # recursive.
        a = Tensor(np.array([1.0]), requires_grad=True)
        out = a
        for _ in range(3000):
            out = out + 1.0
        out.backward()
        np.testing.assert_array_equal(a.grad, [1.0])


class TestStableHelpers:
    def test_stable_sigmoid_extremes(self):
        out = active_backend().stable_sigmoid(np.array([-1000.0, 0.0, 1000.0]))
        np.testing.assert_allclose(out, [0.0, 0.5, 1.0], atol=1e-12)
        assert np.all(np.isfinite(out))

    def test_softplus_extremes(self):
        out = active_backend().softplus(np.array([-1000.0, 0.0, 1000.0]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out[1], np.log(2.0))
        np.testing.assert_allclose(out[2], 1000.0)

    def test_log_sigmoid_no_overflow(self):
        t = Tensor(np.array([-800.0, 800.0]))
        out = t.log_sigmoid().data
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out[1], 0.0, atol=1e-12)
