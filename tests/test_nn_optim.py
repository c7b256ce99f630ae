"""Optimizer tests: convergence, weight decay, state, fused steps."""

import contextlib

import numpy as np
import pytest

from repro.nn.backend import ArrayBackend
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


def _set_grads(params, flat, store=None):
    """Give every ``p.grad`` its part of ``flat``: written into its view
    of ``store``'s gradient buffer when given, else a private copy."""
    start = 0
    for i, p in enumerate(params):
        part = flat[start:start + p.data.size].reshape(p.data.shape)
        if store is None:
            p.grad = part.copy()
        else:
            p.grad = store.grads[i]
            p.grad[...] = part
        start += p.data.size


def _bytes(arrays):
    return [np.asarray(a).tobytes() for a in arrays]


@contextlib.contextmanager
def _fused_calls(store):
    """Record, per ``adam_update`` call, whether it stepped ``store``'s
    whole gradient buffer (the fused path)."""
    calls = []
    real = ArrayBackend.adam_update

    def spy(self, m, v, grad, *args, **kwargs):
        calls.append(grad is store.grad)
        return real(self, m, v, grad, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ArrayBackend, "adam_update", spy)
        yield calls


class TestFusedAdam:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("weight_decay", [0.0, 3e-4])
    def test_fused_step_byte_equal_to_per_parameter(self, dtype,
                                                    weight_decay):
        """One ``adam_update`` over the store, with the gradients in its
        buffer or copied in from private arrays, gives the bytes of one
        Adam per parameter."""
        vectors = _grad_vectors(5, dtype)
        runs = {}
        for in_store in (True, False):
            params = _params(dtype=dtype)
            opt = Adam(params, lr=1e-2, weight_decay=weight_decay)
            with _fused_calls(opt.store) as fused:
                for flat in vectors:
                    _set_grads(params, flat,
                               opt.store if in_store else None)
                    opt.step()
            assert fused == [True] * 5
            state = opt.state_dict()
            runs[in_store] = (_bytes(p.data for p in params),
                              _bytes(state["m"]), _bytes(state["v"]))
        params = _params(dtype=dtype)
        single = [Adam([p], lr=1e-2, weight_decay=weight_decay)
                  for p in params]
        for flat in vectors:
            _set_grads(params, flat)
            for opt in single:
                opt.step()
        states = [opt.state_dict() for opt in single]
        per_parameter = (_bytes(p.data for p in params),
                         _bytes(s["m"][0] for s in states),
                         _bytes(s["v"][0] for s in states))
        assert runs[True] == runs[False] == per_parameter

    def test_moments_are_views_of_one_buffer(self):
        params = _params()
        opt = Adam(params)
        start = 0
        for m, v, p in zip(opt._m_views, opt._v_views, params):
            assert m.base is opt._m and v.base is opt._v
            assert m.shape == p.data.shape
            assert p.data.base is opt.store.data
            assert np.shares_memory(p.data, opt.store.data[start:])
            start += p.data.size
        assert opt._m.shape == opt.store.data.shape

    def test_unreached_parameter_keeps_its_moments(self):
        """A partial step updates only the reached parameters' slices:
        the same bytes as stepping those alone."""
        params, alone = _params(), _params()
        opt = Adam(params, lr=1e-2, weight_decay=1e-3)
        solo = Adam(alone[1:], lr=1e-2, weight_decay=1e-3)
        untouched = params[0].data.copy()
        with _fused_calls(opt.store) as fused:
            for flat in _grad_vectors(3):
                _set_grads(params, flat, opt.store)
                _set_grads(alone, flat)
                params[0].grad = alone[0].grad = None
                opt.step()
                solo.step()
        assert fused and True not in fused
        assert params[0].data.tobytes() == untouched.tobytes()
        assert not opt.state_dict()["m"][0].any()
        assert _bytes(p.data for p in params[1:]) == \
            _bytes(p.data for p in alone[1:])
        assert _bytes(opt.state_dict()["v"][1:]) == \
            _bytes(solo.state_dict()["v"])

    def test_state_dict_round_trip_keeps_fused_resume_bit_exact(self):
        vectors = _grad_vectors(6)
        params = _params()
        opt = Adam(params, lr=1e-2, weight_decay=1e-3)
        for flat in vectors[:3]:
            _set_grads(params, flat, opt.store)
            opt.step()
        saved = opt.state_dict()
        saved_params = [p.data.copy() for p in params]
        for flat in vectors[3:]:
            _set_grads(params, flat, opt.store)
            opt.step()

        resumed = [Parameter(d.copy())
                   for d in saved_params]
        opt2 = Adam(resumed, lr=1e-2, weight_decay=1e-3)
        opt2.load_state_dict(saved)
        for m in opt2._m_views:
            assert m.base is opt2._m          # loaded into the buffer
        with _fused_calls(opt2.store) as fused:
            for flat in vectors[3:]:
                _set_grads(resumed, flat, opt2.store)
                opt2.step()
        assert fused == [True] * 3
        assert _bytes(p.data for p in resumed) == \
            _bytes(p.data for p in params)
        assert _bytes(opt2.state_dict()["m"]) == \
            _bytes(opt.state_dict()["m"])

    def test_mixed_dtypes_are_refused(self):
        params = [Parameter(np.ones(3)),
                  Parameter(np.ones(2, dtype=np.float32))]
        with pytest.raises(ValueError,
                           match="param0: float64, param1: float32"):
            Adam(params)
