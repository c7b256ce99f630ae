"""Optimizer tests: convergence, weight decay, state, fused steps."""

import numpy as np
import pytest

from repro.nn.module import Parameter
from repro.nn.optim import Adam


def quadratic_grad(param: Parameter) -> None:
    """Set the gradient of ``sum((param - 3)²)``, a convex bowl with its
    minimum at 3.0 per coordinate."""
    param.grad = 2.0 * (param.data - 3.0)


class TestAdam:
    def test_converges_on_quadratic(self):
        p = Parameter(np.zeros(4))
        opt = Adam([p], lr=0.1)
        for _ in range(300):
            opt.zero_grad()
            quadratic_grad(p)
            opt.step()
        np.testing.assert_allclose(p.data, 3.0, atol=1e-3)

    def test_bias_correction_first_step(self):
        # After one step with gradient g, Adam moves by ~lr * sign(g).
        p = Parameter(np.array([0.0]))
        opt = Adam([p], lr=0.1)
        opt.zero_grad()
        quadratic_grad(p)
        opt.step()
        np.testing.assert_allclose(abs(p.data[0]), 0.1, rtol=1e-4)

    def test_invalid_betas(self):
        p = Parameter(np.ones(1))
        with pytest.raises(ValueError):
            Adam([p], betas=(1.0, 0.999))
        with pytest.raises(ValueError):
            Adam([p], betas=(0.9, -0.1))

    def test_weight_decay_pulls_toward_zero(self):
        p = Parameter(np.full(1, 5.0))
        opt = Adam([p], lr=0.05, weight_decay=10.0)
        for _ in range(200):
            opt.zero_grad()
            # loss that is flat: only decay acts
            p.grad = np.zeros_like(p.data)
            opt.step()
        assert abs(p.data[0]) < 1.0

    def test_zero_grad_clears(self):
        p = Parameter(np.zeros(1))
        opt = Adam([p])
        quadratic_grad(p)
        opt.zero_grad()
        assert p.grad is None


def quadratic_step(opt, p):
    opt.zero_grad()
    quadratic_grad(p)
    opt.step()


class TestStateDict:
    def test_adam_round_trip_bit_identical(self):
        p1 = Parameter(np.array([3.0, -2.0]))
        opt1 = Adam([p1], lr=0.1)
        for _ in range(5):
            quadratic_step(opt1, p1)
        saved_state = opt1.state_dict()
        saved_params = p1.data.copy()
        quadratic_step(opt1, p1)
        expected = p1.data.copy()

        p2 = Parameter(saved_params.copy())
        opt2 = Adam([p2], lr=0.1)
        opt2.load_state_dict(saved_state)
        quadratic_step(opt2, p2)
        np.testing.assert_array_equal(p2.data, expected)

    def test_adam_state_dict_copies(self):
        p = Parameter(np.ones(2))
        opt = Adam([p])
        quadratic_step(opt, p)
        state = opt.state_dict()
        state["m"][0][...] = 99.0
        assert not np.any(opt._m[0] == 99.0)

    def test_adam_shape_mismatch_rejected(self):
        p = Parameter(np.ones(2))
        opt = Adam([p])
        bad = {"step_count": 1, "m": [np.zeros(3)], "v": [np.zeros(2)]}
        with pytest.raises(ValueError, match="shape"):
            opt.load_state_dict(bad)

    def test_adam_count_mismatch_rejected(self):
        p = Parameter(np.ones(2))
        opt = Adam([p])
        bad = {"step_count": 1, "m": [], "v": []}
        with pytest.raises(ValueError, match="expected 1 arrays"):
            opt.load_state_dict(bad)


SHAPES = [(6, 4), (4, 3), (3,), (5, 1)]


def _params(seed=0, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return [Parameter(rng.standard_normal(shape).astype(dtype))
            for shape in SHAPES]


def _grad_vectors(steps, dtype=np.float64, seed=1):
    size = sum(int(np.prod(shape)) for shape in SHAPES)
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((steps, size)).astype(dtype)
    vectors[:, :8] = 0.0            # rows that never see a gradient
    return [row.copy() for row in vectors]


def _set_grads(params, flat, tiled: bool):
    """Point every ``p.grad`` at its part of ``flat`` (views when tiled,
    private copies otherwise)."""
    start = 0
    for p in params:
        part = flat[start:start + p.data.size].reshape(p.data.shape)
        p.grad = part if tiled else part.copy()
        start += p.data.size


def _bytes(arrays):
    return [np.asarray(a).tobytes() for a in arrays]


class TestFusedAdam:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("weight_decay", [0.0, 3e-4])
    def test_fused_step_byte_equal_to_per_parameter(self, dtype,
                                                    weight_decay):
        runs = {}
        for tiled in (True, False):
            params = _params(dtype=dtype)
            opt = Adam(params, lr=1e-2, weight_decay=weight_decay)
            fused = []
            original = opt._step_fused
            opt._step_fused = lambda *a: (fused.append(1), original(*a))
            for flat in _grad_vectors(5, dtype):
                _set_grads(params, flat, tiled)
                opt.step()
            assert len(fused) == (5 if tiled else 0)
            state = opt.state_dict()
            runs[tiled] = (_bytes(p.data for p in params),
                           _bytes(state["m"]), _bytes(state["v"]))
        assert runs[True] == runs[False]

    def test_moments_are_views_of_one_buffer(self):
        params = _params()
        opt = Adam(params)
        for m, v, p in zip(opt._m, opt._v, params):
            assert m.base is opt._m_flat and v.base is opt._v_flat
            assert m.shape == p.data.shape

    def test_out_of_order_views_take_the_per_parameter_path(self):
        params = _params()
        opt = Adam(params)
        flat = _grad_vectors(1)[0]
        _set_grads(params, flat, tiled=True)
        params[0].grad, params[1].grad = \
            params[0].grad.copy(), params[1].grad.copy()
        assert opt._tiled_grad() is None
        _set_grads(params, flat, tiled=True)
        assert opt._tiled_grad() is flat

    def test_state_dict_round_trip_keeps_fused_resume_bit_exact(self):
        vectors = _grad_vectors(6)
        params = _params()
        opt = Adam(params, lr=1e-2, weight_decay=1e-3)
        for flat in vectors[:3]:
            _set_grads(params, flat, tiled=True)
            opt.step()
        saved = opt.state_dict()
        saved_params = [p.data.copy() for p in params]
        for flat in vectors[3:]:
            _set_grads(params, flat, tiled=True)
            opt.step()

        resumed = [Parameter(d.copy())
                   for d in saved_params]
        opt2 = Adam(resumed, lr=1e-2, weight_decay=1e-3)
        opt2.load_state_dict(saved)
        for m in opt2._m:
            assert m.base is opt2._m_flat     # loaded into the buffer
        for flat in vectors[3:]:
            _set_grads(resumed, flat, tiled=True)
            opt2.step()
        assert _bytes(p.data for p in resumed) == \
            _bytes(p.data for p in params)
        assert _bytes(opt2.state_dict()["m"]) == \
            _bytes(opt.state_dict()["m"])

    def test_mixed_dtypes_keep_separate_moments(self):
        params = [Parameter(np.ones(3)),
                  Parameter(np.ones(2, dtype=np.float32))]
        opt = Adam(params)
        assert opt._m_flat is None
        assert opt._m[1].dtype == np.float32
        for p in params:
            p.grad = np.ones_like(p.data)
        opt.step()
        assert np.all(params[0].data < 1.0)
