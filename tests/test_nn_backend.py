"""Gates for the pluggable array backend (``repro.nn.backend``).

Three layers of guarantee:

1. **Reference bit-identity** — the ``"reference"`` backend reproduces
   the frozen pre-refactor golden outputs (``tests/data/backend_golden
   .npz``) *bit for bit*, in both precision policies, for the nn-level
   workload and a full train-step + checkpoint run.
2. **Optimized agreement** — the ``"optimized"`` backend reproduces the
   same goldens within the documented tolerances (its scatter kernels
   and fused losses re-associate float sums), while its Adam chain,
   sigmoid/softplus and dropout kernels stay bit-identical to the
   reference.
3. **Plumbing** — registry semantics, scoped/process selection,
   ``REPRO_BACKEND`` fallback, ``PerfConfig`` integration, dtype-policy
   interaction, and the profiler's counted-once scratch accounting.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import backend as backend_mod
from repro.nn.backend import (
    ArrayBackend,
    OptimizedBackend,
    active_backend,
    available_backends,
    backend_name,
    get_backend,
    register_backend,
    set_default_backend,
    using_backend,
)
from repro.nn.dtypes import using_dtype
from repro.nn.losses import bce_with_logits, negative_sampling_loss
from repro.nn.tensor import Tensor, softplus, stable_sigmoid
from tests.golden_backend import GOLDEN_PATH, nn_case, train_step_case

# Documented agreement gates for the optimized backend (see
# docs/performance.md).
TOLERANCES = {
    "f64": dict(rtol=1e-9, atol=1e-12),
    "f32": dict(rtol=1e-4, atol=1e-6),
}

CASES = {"nn": nn_case, "train": train_step_case}


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN_PATH, allow_pickle=False) as archive:
        return {key: np.array(archive[key]) for key in archive.files}


def _golden_slice(golden, case, precision):
    prefix = f"{case}/{precision}/"
    out = {k[len(prefix):]: v for k, v in golden.items()
           if k.startswith(prefix)}
    assert out, f"no golden arrays under {prefix!r}"
    return out


# ----------------------------------------------------------------------
# 1. Reference backend: bit-identical to the pre-refactor capture
# ----------------------------------------------------------------------
@pytest.mark.parametrize("precision", ["f64", "f32"])
@pytest.mark.parametrize("case", ["nn", "train"])
def test_reference_backend_is_bit_identical_to_golden(
        golden, case, precision):
    with using_backend("reference"):
        actual = CASES[case](precision)
    expected = _golden_slice(golden, case, precision)
    assert set(actual) == set(expected)
    for name in sorted(expected):
        a, e = np.asarray(actual[name]), expected[name]
        assert a.dtype == e.dtype, f"{case}/{precision}/{name}: dtype"
        assert a.shape == e.shape, f"{case}/{precision}/{name}: shape"
        assert a.tobytes() == e.tobytes(), \
            f"{case}/{precision}/{name}: bits differ"


# ----------------------------------------------------------------------
# 2. Optimized backend: same goldens within documented tolerances
# ----------------------------------------------------------------------
@pytest.mark.parametrize("precision", ["f64", "f32"])
@pytest.mark.parametrize("case", ["nn", "train"])
def test_optimized_backend_matches_golden_within_tolerance(
        golden, case, precision):
    with using_backend("optimized"):
        actual = CASES[case](precision)
    expected = _golden_slice(golden, case, precision)
    tol = TOLERANCES[precision]
    assert set(actual) == set(expected)
    for name in sorted(expected):
        a, e = np.asarray(actual[name]), expected[name]
        assert a.dtype == e.dtype, f"{case}/{precision}/{name}: dtype"
        if not np.issubdtype(e.dtype, np.floating):
            assert np.array_equal(a, e), f"{case}/{precision}/{name}"
            continue
        np.testing.assert_allclose(
            a, e, err_msg=f"{case}/{precision}/{name}", **tol)


# ----------------------------------------------------------------------
# Kernel-level contracts between the two CPU backends
# ----------------------------------------------------------------------
@pytest.fixture
def ref():
    return get_backend("reference")


@pytest.fixture
def opt():
    return get_backend("optimized")


def test_adam_update_bit_identical(ref, opt):
    rng = np.random.default_rng(0)
    shape = (7, 5)
    grad = rng.normal(size=shape)
    param = rng.normal(size=shape)
    for weight_decay in (0.0, 1e-3):
        m_r, v_r = np.zeros(shape), np.zeros(shape)
        m_o, v_o = np.zeros(shape), np.zeros(shape)
        for step in range(1, 6):
            bias1 = 1.0 - 0.9 ** step
            bias2 = 1.0 - 0.999 ** step
            dec_r = ref.adam_update(m_r, v_r, grad, 1e-2, 0.9, 0.999,
                                    1e-8, bias1, bias2,
                                    weight_decay=weight_decay, param=param)
            dec_o = opt.adam_update(m_o, v_o, grad, 1e-2, 0.9, 0.999,
                                    1e-8, bias1, bias2,
                                    weight_decay=weight_decay, param=param)
            assert dec_r.tobytes() == dec_o.tobytes()
            assert m_r.tobytes() == m_o.tobytes()
            assert v_r.tobytes() == v_o.tobytes()


def test_sigmoid_softplus_dropout_bit_identical(ref, opt):
    x = np.linspace(-40.0, 40.0, 101)
    assert ref.stable_sigmoid(x).tobytes() == \
        opt.stable_sigmoid(x).tobytes()
    assert ref.softplus(x).tobytes() == opt.softplus(x).tobytes()
    mask_r = ref.dropout_mask(np.random.default_rng(3), (16, 8), 0.8,
                              np.float64)
    mask_o = opt.dropout_mask(np.random.default_rng(3), (16, 8), 0.8,
                              np.float64)
    assert mask_r.tobytes() == mask_o.tobytes()


def test_fused_kernels_return_owned_arrays(opt):
    """Kernel outputs that feed the autograd graph must not alias
    scratch — a later call with different data must not mutate them."""
    x = np.linspace(-3.0, 3.0, 33)
    first = opt.stable_sigmoid(x)
    snapshot = first.copy()
    opt.stable_sigmoid(x + 1.0)
    assert np.array_equal(first, snapshot)

    vals, dz = opt.bce_terms(x, np.ones_like(x))
    vals_snap, dz_snap = vals.copy(), dz.copy()
    opt.bce_terms(x - 2.0, np.zeros_like(x))
    assert np.array_equal(vals, vals_snap)
    assert np.array_equal(dz, dz_snap)


def test_scatter_add_matches_reference_within_tolerance(ref, opt):
    rng = np.random.default_rng(7)
    ids = rng.integers(0, 11, size=64)
    rows = rng.normal(size=(64, 6))

    t_ref = np.zeros((11, 6))
    t_opt = np.zeros((11, 6))
    ref.add_at(t_ref, ids, rows)
    opt.add_at(t_opt, ids, rows)
    np.testing.assert_allclose(t_opt, t_ref, rtol=1e-9, atol=1e-12)

    u_ref, s_ref = ref.coalesce_rows(ids, rows)
    u_opt, s_opt = opt.coalesce_rows(ids, rows)
    assert np.array_equal(u_ref, u_opt)
    np.testing.assert_allclose(s_opt, s_ref, rtol=1e-9, atol=1e-12)


def test_optimized_add_at_fallback_paths(opt):
    # Boolean-mask index: not the row-gather pattern -> np.add.at path.
    target = np.zeros(10)
    mask = np.zeros(10, dtype=bool)
    mask[[1, 4, 4]] = True
    expected = target.copy()
    np.add.at(expected, mask, 2.5)
    opt.add_at(target, mask, 2.5)
    assert np.array_equal(target, expected)

    # Tuple (fancy 2-d) index.
    target = np.zeros((4, 4))
    idx = (np.array([0, 0, 3]), np.array([1, 1, 2]))
    expected = target.copy()
    np.add.at(expected, idx, np.array([1.0, 2.0, 3.0]))
    opt.add_at(target, idx, np.array([1.0, 2.0, 3.0]))
    assert np.array_equal(target, expected)

    # Empty index: must be a no-op, not a crash.
    target = np.zeros((5, 3))
    opt.add_at(target, np.array([], dtype=np.int64), np.zeros((0, 3)))
    assert not target.any()


def _add_at_into_zeros(ids, rows, num_rows):
    out = np.zeros((num_rows,) + rows.shape[ids.ndim:], dtype=rows.dtype)
    with np.errstate(invalid="ignore"):
        np.add.at(out, ids, rows)
    return out


def _scatter_cases():
    """``(label, ids, rows, num_rows)`` covering the kernel's edge cases."""
    rng = np.random.default_rng(21)
    special = rng.normal(size=(9, 4))
    special[0, :] = -0.0
    special[1, 0], special[2, 0] = np.nan, -np.nan
    special[3, 1], special[4, 1] = np.inf, -np.inf
    special[5, 2] = np.inf              # meets +inf above: stays +inf
    return [
        ("duplicates", rng.integers(0, 5, size=200),
         rng.normal(size=(200, 7)), 5),
        ("negative_zero", np.array([1, 1, 3]), np.full((3, 2), -0.0), 4),
        ("nan_inf", np.array([0, 0, 0, 1, 1, 1, 2, 2, 2]), special, 3),
        ("negative_ids", np.array([-1, 0, -3, 2, -1]),
         rng.normal(size=(5, 3)), 3),
        ("empty", np.array([], dtype=np.int64), np.zeros((0, 6)), 4),
        ("one_row", np.zeros(6, dtype=np.int64),
         rng.normal(size=(6, 5)), 1),
        ("2d_index", rng.integers(0, 8, size=(12, 3)),
         rng.normal(size=(12, 3, 4)), 8),
    ]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("case", _scatter_cases(), ids=lambda c: c[0])
def test_reference_scatter_rows_bytes_equal_add_at(ref, case, dtype):
    _, ids, rows, num_rows = case
    rows = rows.astype(dtype)
    expected = _add_at_into_zeros(ids, rows, num_rows)
    with np.errstate(invalid="ignore"):
        actual = ref.scatter_rows(ids, rows, num_rows)
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    itype = np.int64 if dtype == np.float64 else np.int32
    assert np.array_equal(actual.view(itype), expected.view(itype))


@pytest.mark.parametrize("case", _scatter_cases(), ids=lambda c: c[0])
def test_optimized_scatter_rows_within_band(opt, case):
    _, ids, rows, num_rows = case
    expected = _add_at_into_zeros(ids, rows, num_rows)
    with np.errstate(invalid="ignore"):
        actual = opt.scatter_rows(ids, rows, num_rows)
    assert actual.shape == expected.shape
    np.testing.assert_allclose(actual, expected, equal_nan=True,
                               **TOLERANCES["f64"])


def test_reference_scatter_rows_rejects_out_of_range(ref):
    rows = np.ones((2, 3))
    for bad in (np.array([0, 4]), np.array([-5, 0])):
        with pytest.raises(IndexError):
            ref.scatter_rows(bad, rows, 4)


def test_fused_losses_match_reference_graph(ref, opt):
    rng = np.random.default_rng(13)
    logits = rng.normal(scale=4.0, size=24)
    labels = (rng.random(24) < 0.5).astype(np.float64)

    results = {}
    for name in ("reference", "optimized"):
        with using_backend(name):
            t = Tensor(logits.copy(), requires_grad=True)
            loss = bce_with_logits(t, labels)
            loss.backward()
            pos = Tensor(rng_scores(0), requires_grad=True)
            neg = Tensor(rng_scores(1).reshape(4, 5), requires_grad=True)
            ns = negative_sampling_loss(pos, neg)
            ns.backward()
            results[name] = (float(loss.data), np.array(t.grad),
                             float(ns.data), np.array(pos.grad),
                             np.array(neg.grad))
    for a, b in zip(results["reference"], results["optimized"]):
        np.testing.assert_allclose(b, a, rtol=1e-9, atol=1e-12)


def rng_scores(salt: int) -> np.ndarray:
    return np.random.default_rng(40 + salt).normal(scale=3.0,
                                                   size=(20 if salt else 4))


# ----------------------------------------------------------------------
# dtype-policy interaction
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["reference", "optimized"])
def test_backend_respects_dtype_policy(name):
    be = get_backend(name)
    with using_dtype("f32"):
        assert be.coerce([1, 2, 3]).dtype == np.float32
    with using_dtype("f64"):
        assert be.coerce([1, 2, 3]).dtype == np.float64
    # The kernels preserve the (already policy-coerced) input width.
    x32 = np.array([-1.0, 0.0, 2.0], dtype=np.float32)
    assert be.stable_sigmoid(x32).dtype == np.float32
    assert be.softplus(x32).dtype == np.float32


@pytest.mark.parametrize("name", ["reference", "optimized"])
def test_f32_training_step_stays_f32(name):
    with using_backend(name), using_dtype("f32"):
        t = Tensor(np.linspace(-2.0, 2.0, 12, dtype=np.float32),
                   requires_grad=True)
        loss = bce_with_logits(t, np.zeros(12))
        loss.backward()
        assert t.data.dtype == np.float32
        assert np.asarray(t.grad).dtype == np.float32


# ----------------------------------------------------------------------
# Profiler accounting: scratch counted once, reuse is free
# ----------------------------------------------------------------------
def test_scratch_bytes_counted_exactly_once():
    be = OptimizedBackend()
    buf = be.scratch("unit", (8, 4), np.float64)
    assert be.array_bytes(buf) == buf.nbytes      # creation: counted
    assert be.array_bytes(buf) == 0               # reuse: free
    again = be.scratch("unit", (8, 4), np.float64)
    assert again is buf
    assert be.array_bytes(again) == 0
    fresh = np.zeros((8, 4))
    assert be.array_bytes(fresh) == fresh.nbytes  # unpooled: plain nbytes


def test_scratch_pool_is_bounded_and_thread_local():
    import threading

    be = OptimizedBackend()
    for i in range(backend_mod._SCRATCH_SHAPES_PER_TAG + 5):
        be.scratch("bound", (i + 1,), np.float64)
    stats = be.scratch_stats()
    assert stats["buffers_created"] == backend_mod._SCRATCH_SHAPES_PER_TAG + 5
    assert len(be._pool._by_tag["bound"]) == \
        backend_mod._SCRATCH_SHAPES_PER_TAG

    main_buf = be.scratch("tl", (4,), np.float64)
    seen = {}

    def worker():
        seen["buf"] = be.scratch("tl", (4,), np.float64)

    t = threading.Thread(target=worker)
    t.start()
    t.join()
    assert seen["buf"] is not main_buf


def test_reference_array_bytes_is_nbytes():
    be = get_backend("reference")
    arr = np.zeros((3, 3))
    assert be.array_bytes(arr) == arr.nbytes
    assert be.array_bytes(arr) == arr.nbytes      # never "counted once"


# ----------------------------------------------------------------------
# Registry / selection plumbing
# ----------------------------------------------------------------------
def test_builtin_backends_listed_first():
    names = available_backends()
    assert names[0] == "reference"
    assert names[1] == "optimized"


def test_get_backend_unknown_name_errors():
    with pytest.raises(ValueError, match="unknown array backend"):
        get_backend("definitely-not-a-backend")


def test_get_backend_caches_instances():
    assert get_backend("optimized") is get_backend("optimized")
    assert isinstance(get_backend("reference"), ArrayBackend)


def test_register_backend_rejects_duplicates():
    with pytest.raises(ValueError, match="already registered"):
        register_backend("reference", ArrayBackend)


@pytest.fixture
def custom_backend_name():
    name = "test-custom"
    yield name
    with backend_mod._lock:
        backend_mod._FACTORIES.pop(name, None)
        backend_mod._INSTANCES.pop(name, None)


def test_custom_backend_dispatch(custom_backend_name):
    calls = []

    class SpyBackend(ArrayBackend):
        name = custom_backend_name

        def exp(self, x, *args, **kwargs):
            calls.append(np.shape(x))
            return np.exp(x, *args, **kwargs)

    register_backend(custom_backend_name, SpyBackend)
    assert custom_backend_name in available_backends()
    with using_backend(custom_backend_name):
        out = Tensor(np.array([0.0, 1.0])).exp()
    assert calls == [(2,)]
    np.testing.assert_allclose(out.data, np.exp([0.0, 1.0]))


def test_using_backend_restores_previous():
    before = backend_name()
    with using_backend("optimized") as be:
        assert be is active_backend()
        assert backend_name() == "optimized"
        with using_backend("reference"):
            assert backend_name() == "reference"
        assert backend_name() == "optimized"
    assert backend_name() == before


def test_set_default_backend_returns_previous():
    before = backend_name()
    try:
        assert set_default_backend("optimized") == before
        assert backend_name() == "optimized"
        assert active_backend() is get_backend("optimized")
    finally:
        set_default_backend(before)


def test_env_var_fallback_warns(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "no-such-backend")
    with pytest.warns(RuntimeWarning, match="unknown backend"):
        assert backend_mod._initial_name() == "reference"
    monkeypatch.setenv("REPRO_BACKEND", "optimized")
    assert backend_mod._initial_name() == "optimized"
    monkeypatch.delenv("REPRO_BACKEND")
    assert backend_mod._initial_name() == "reference"


# ----------------------------------------------------------------------
# PerfConfig integration
# ----------------------------------------------------------------------
def test_perf_config_validates_backend():
    from repro.perf.config import PerfConfig

    with pytest.raises(ValueError, match="backend"):
        PerfConfig(backend="no-such-backend")
    assert PerfConfig(backend="optimized").backend_name == "optimized"
    assert PerfConfig.reference().backend == "reference"


def test_perf_config_none_backend_tracks_process_default():
    from repro.perf.config import PerfConfig

    config = PerfConfig()
    assert config.backend is None
    assert config.backend_name == backend_name()
    with using_backend("optimized"):
        assert config.backend_name == "optimized"
