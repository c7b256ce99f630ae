"""Precision-policy tests: one coercion rule, f32 end to end.

Covers the dtype policy of ``repro.nn.dtypes`` (resolve / default /
scoped override), the single :func:`~repro.nn.dtypes.coerce` promotion
rule that replaced the seed's scattered ``astype(np.float64)`` calls,
f32 dtype preservation through the autograd graph (the NEP 50 scalar
hazard), loss numerical stability at extreme logits in both precisions,
and the profiler's true-byte allocation accounting.
"""

import numpy as np
import pytest

from repro.core.model import apply_dropout
from repro.nn import dtypes, init
from repro.nn.backend import active_backend
from repro.nn.dtypes import coerce, default_dtype, using_dtype
from repro.nn.layers import MLP, Dropout, Embedding, Linear
from repro.nn.optim import Adam
from repro.nn.profile import profile_ops
from repro.text.skipgram import SkipgramBatch
from tests.oracle import Tensor, bce_with_logits, negative_sampling_loss


class TestResolve:
    def test_names(self):
        assert dtypes.resolve("f64") == np.float64
        assert dtypes.resolve("f32") == np.float32

    def test_numpy_dtypes_pass_through(self):
        assert dtypes.resolve(np.float32) == np.float32
        assert dtypes.resolve(np.dtype(np.float64)) == np.float64

    def test_none_is_current_default(self):
        assert dtypes.resolve(None) == default_dtype()
        with using_dtype("f32"):
            assert dtypes.resolve(None) == np.float32

    def test_unsupported_rejected(self):
        with pytest.raises(ValueError):
            dtypes.resolve("f16")
        with pytest.raises(ValueError):
            dtypes.resolve(np.int64)

    def test_precision_name_round_trips(self):
        for name in dtypes.PRECISIONS:
            assert dtypes.precision_name(dtypes.resolve(name)) == name


class TestUsingDtype:
    def test_scoped_and_restored(self):
        before = default_dtype()
        with using_dtype("f32"):
            assert default_dtype() == np.float32
        assert default_dtype() == before

    def test_restored_on_exception(self):
        before = default_dtype()
        with pytest.raises(RuntimeError):
            with using_dtype("f32"):
                raise RuntimeError("boom")
        assert default_dtype() == before


class TestCoerce:
    def test_integers_promote_to_policy_default(self):
        assert coerce([1, 2, 3]).dtype == np.float64
        with using_dtype("f32"):
            assert coerce([1, 2, 3]).dtype == np.float32
            assert coerce(np.arange(4)).dtype == np.float32
            assert coerce(np.array([True, False])).dtype == np.float32

    def test_floating_arrays_keep_their_dtype(self):
        with using_dtype("f32"):
            assert coerce(np.zeros(3, dtype=np.float64)).dtype == np.float64
        assert coerce(np.zeros(3, dtype=np.float32)).dtype == np.float32

    def test_explicit_target_always_wins(self):
        assert coerce(np.zeros(3), dtype="f32").dtype == np.float32
        assert coerce(np.zeros(3, np.float32), dtype="f64").dtype \
            == np.float64

    def test_no_copy_when_dtype_matches(self):
        arr = np.zeros(3)
        assert coerce(arr) is arr
        assert coerce(arr, dtype="f64") is arr


class TestTensorPolicy:
    def test_integer_data_promotes_to_policy(self):
        with using_dtype("f32"):
            assert Tensor([1, 2, 3]).data.dtype == np.float32
        assert Tensor([1, 2, 3]).data.dtype == np.float64

    def test_zeros_ones_follow_policy(self):
        with using_dtype("f32"):
            assert Tensor.zeros(2, 3).data.dtype == np.float32
            assert Tensor.ones(4).data.dtype == np.float32

    def test_scalar_ops_do_not_promote_f32(self):
        # NEP 50: a 0-d float64 array is a "strong" operand; the ops
        # must coerce it to the graph dtype instead.
        x = Tensor(np.ones(4, dtype=np.float32), requires_grad=True)
        for y in (x * 2.0, x + 1, x - 0.5, x / 3.0, 2.0 * x, 1.0 - x,
                  1.0 / x, x * np.float64(2.0), x + np.asarray(1.0)):
            assert y.data.dtype == np.float32, y.data.dtype

    def test_reductions_and_nonlinearities_stay_f32(self):
        x = Tensor(np.linspace(-2, 2, 8, dtype=np.float32),
                   requires_grad=True)
        for y in (x.mean(), x.sum(), x.relu(), x.tanh(), x.sigmoid(),
                  x.log_sigmoid(), x.exp(), (x * x).max()):
            assert y.data.dtype == np.float32, y.data.dtype

    def test_f32_backward_grads_are_f32(self):
        x = Tensor(np.ones((3, 2), dtype=np.float32), requires_grad=True)
        loss = ((x * 2.0 + 1.0).tanh()).mean()
        loss.backward()
        assert x.grad.dtype == np.float32

    def test_f64_reference_path_unchanged(self):
        x = Tensor(np.linspace(-1, 1, 6), requires_grad=True)
        y = (x * 2.0 + 1).sigmoid().mean()
        y.backward()
        assert y.data.dtype == np.float64
        assert x.grad.dtype == np.float64


class TestInitPolicy:
    def test_init_follows_policy(self):
        with using_dtype("f32"):
            assert init.normal((3, 4), rng=0).dtype == np.float32
            assert init.he_normal((3, 4), rng=0).dtype == np.float32
            assert init.xavier_uniform((3, 4), rng=0).dtype == np.float32
            assert init.zeros((3,)).dtype == np.float32

    def test_f32_draws_same_stream_as_f64(self):
        # Draw-then-downcast: the f32 parameters are the bitwise
        # downcast of the f64 reference draws, so cross-precision runs
        # start from the same point.
        ref = init.normal((5, 3), rng=42)
        fast = init.normal((5, 3), rng=42, dtype="f32")
        np.testing.assert_array_equal(ref.astype(np.float32), fast)

    def test_layers_inherit_policy(self):
        with using_dtype("f32"):
            assert Linear(4, 2, rng=0).weight.data.dtype == np.float32
            assert Embedding(10, 4, rng=0).weight.data.dtype == np.float32
            mlp = MLP(4, [3, 2], rng=0)
            assert all(p.data.dtype == np.float32
                       for p in mlp.parameters())

    def test_dropout_mask_follows_input(self):
        d = Dropout(0.5, rng=0)
        d.train()
        out, mask = apply_dropout(d, np.ones(64, dtype=np.float32))
        assert out.dtype == mask.dtype == np.float32


class TestOptimizerPolicy:
    def test_adam_moments_match_param_dtype(self):
        with using_dtype("f32"):
            lin = Linear(4, 2, rng=0)
        opt = Adam(list(lin.parameters()), lr=1e-2)
        for p in lin.parameters():
            p.grad = np.ones_like(p.data)
        opt.step()
        state = opt.state_dict()
        assert all(m.dtype == np.float32 for m in state["m"])
        assert all(v.dtype == np.float32 for v in state["v"])
        assert lin.weight.data.dtype == np.float32


EXTREME_LOGITS = [-100.0, -30.0, 30.0, 100.0]


class TestLossStability:
    """log-sigmoid/BCE at extreme logits: finite values, finite grads.

    f32 overflows at ``exp(89)`` (f64 at ``exp(710)``), so the stable
    formulations must never exponentiate a large positive argument in
    either precision.
    """

    @pytest.mark.parametrize("precision", ["f64", "f32"])
    def test_stable_helpers_finite(self, precision):
        dt = dtypes.resolve(precision)
        x = np.asarray(EXTREME_LOGITS, dtype=dt)
        be = active_backend()
        assert np.all(np.isfinite(be.stable_sigmoid(x)))
        assert np.all(np.isfinite(be.softplus(x)))
        assert be.stable_sigmoid(x).dtype == dt
        assert be.softplus(x).dtype == dt

    @pytest.mark.parametrize("precision", ["f64", "f32"])
    def test_log_sigmoid_finite_with_finite_grad(self, precision):
        dt = dtypes.resolve(precision)
        x = Tensor(np.asarray(EXTREME_LOGITS, dtype=dt),
                   requires_grad=True)
        y = x.log_sigmoid().sum()
        y.backward()
        assert np.isfinite(y.item())
        assert np.all(np.isfinite(x.grad))
        assert x.grad.dtype == dt

    @pytest.mark.parametrize("precision", ["f64", "f32"])
    def test_bce_finite_with_finite_grad(self, precision):
        dt = dtypes.resolve(precision)
        logits = Tensor(np.asarray(EXTREME_LOGITS, dtype=dt),
                        requires_grad=True)
        labels = np.array([0, 1, 0, 1])
        loss = bce_with_logits(logits, labels)
        loss.backward()
        assert np.isfinite(loss.item())
        assert loss.data.dtype == dt
        assert np.all(np.isfinite(logits.grad))

    @pytest.mark.parametrize("precision", ["f64", "f32"])
    def test_negative_sampling_loss_finite(self, precision):
        dt = dtypes.resolve(precision)
        pos = Tensor(np.asarray(EXTREME_LOGITS, dtype=dt),
                     requires_grad=True)
        neg = Tensor(np.asarray([EXTREME_LOGITS] * 2, dtype=dt).T,
                     requires_grad=True)
        loss = negative_sampling_loss(pos, neg)
        loss.backward()
        assert np.isfinite(loss.item())
        assert np.all(np.isfinite(pos.grad))
        assert np.all(np.isfinite(neg.grad))


class TestProfilerBytes:
    def _profile(self, dtype):
        rng = np.random.default_rng(0)
        pois = rng.standard_normal((20, 8)).astype(dtype)
        words = rng.standard_normal((30, 8)).astype(dtype)
        with profile_ops() as prof:
            batch = SkipgramBatch(pois, words, np.arange(16) % 20,
                                  np.arange(16),
                                  (np.arange(48) % 30).reshape(16, 3))
            batch.backward(np.ones((), dtype=dtype))
        return prof

    def test_f32_allocations_halved(self):
        f64_bytes = self._profile(np.float64).total_bytes_allocated
        f32_bytes = self._profile(np.float32).total_bytes_allocated
        assert f64_bytes > 0 and f32_bytes * 2 == f64_bytes

    def test_backward_grads_are_counted(self):
        stat = self._profile(np.float64).stats["SkipgramBatch"]
        # The POI, positive-word and negative-word rows: (16, 8),
        # (16, 8) and (48, 8) float64 gradients.
        assert stat.bytes_allocated == (16 + 16 + 48) * 8 * 8
