"""Gates for the array namespace (``repro.nn.backend``).

* **Bit-identity** — the backend reproduces the frozen pre-refactor
  golden outputs (``tests/data/backend_golden.npz``) *bit for bit*, in
  both precision policies, for the nn-level workload and a full
  train-step + checkpoint run.
* **Kernels** — ``scatter_rows`` is byte-equal to ``np.add.at`` into
  zeros on every edge case and rejects out-of-range rows; the kernels
  honor the dtype policy and an f32 training step stays f32.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.backend import active_backend
from repro.nn.dtypes import using_dtype
from tests.golden_backend import GOLDEN_PATH, nn_case, train_step_case
from tests.oracle import Tensor, bce_with_logits

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
# Bit-identical to the pre-refactor capture
# ----------------------------------------------------------------------
@pytest.mark.parametrize("precision", ["f64", "f32"])
@pytest.mark.parametrize("case", ["nn", "train"])
def test_reference_backend_is_bit_identical_to_golden(
        golden, case, precision):
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
# scatter_rows
# ----------------------------------------------------------------------
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
def test_reference_scatter_rows_bytes_equal_add_at(case, dtype):
    _, ids, rows, num_rows = case
    rows = rows.astype(dtype)
    expected = _add_at_into_zeros(ids, rows, num_rows)
    with np.errstate(invalid="ignore"):
        actual = active_backend().scatter_rows(ids, rows, num_rows)
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    itype = np.int64 if dtype == np.float64 else np.int32
    assert np.array_equal(actual.view(itype), expected.view(itype))


def test_reference_scatter_rows_rejects_out_of_range():
    rows = np.ones((2, 3))
    for bad in (np.array([0, 4]), np.array([-5, 0])):
        with pytest.raises(IndexError):
            active_backend().scatter_rows(bad, rows, 4)


# ----------------------------------------------------------------------
# stable_sigmoid
# ----------------------------------------------------------------------
def _masked_sigmoid(x):
    """The two boolean-masked passes ``stable_sigmoid`` replaced."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _nan(bits, dtype):
    """A NaN with the given bit pattern (sign and payload)."""
    itype = np.uint64 if dtype == np.float64 else np.uint32
    return np.array([bits], dtype=itype).view(dtype)[0]


def _sigmoid_cases(dtype):
    """``(label, x)`` covering the kernel's edge cases in ``dtype``."""
    info = np.finfo(dtype)
    rng = np.random.default_rng(31)
    specials = np.array(
        [0.0, -0.0, np.inf, -np.inf, info.tiny, -info.tiny,
         info.smallest_subnormal, -info.smallest_subnormal,
         info.smallest_subnormal * 7, info.max, -info.max, 1.0, -1.0,
         info.eps, -info.eps, 30.0, -30.0, 90.0, -90.0, 750.0, -750.0],
        dtype=dtype)
    quiet, payload, negative = (
        (0x7FF8000000000000, 0x7FF800000000BEEF, 0xFFF8000000000001)
        if dtype == np.float64 else (0x7FC00000, 0x7FC0BEEF, 0xFFC00001))
    with_nans = np.concatenate([specials, np.array(
        [_nan(bits, dtype) for bits in (quiet, payload, negative)])])
    return [
        ("specials", specials),
        ("nan_payloads", with_nans),
        ("only_nan", np.array([_nan(payload, dtype)] * 3)),
        ("wide", (rng.standard_normal(4000) * 40).astype(dtype)),
        ("unit", rng.standard_normal((37, 11)).astype(dtype)),
        ("subnormals", (rng.random(64) * info.tiny).astype(dtype)
         * np.where(rng.random(64) < 0.5, -1, 1).astype(dtype)),
        ("strided", rng.standard_normal((9, 8)).astype(dtype)[:, ::3]),
        ("zero_d_neg", np.array(-3.25, dtype=dtype)),
        ("zero_d_pos", np.array(0.0, dtype=dtype)),
        ("zero_d_nan", np.array(_nan(payload, dtype))),
        ("empty", np.empty(0, dtype=dtype)),
        ("empty_2d", np.empty((3, 0), dtype=dtype)),
    ]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize(
    "label", [label for label, _x in _sigmoid_cases(np.float64)])
def test_stable_sigmoid_bytes_equal_the_masked_formula(label, dtype):
    x = dict(_sigmoid_cases(dtype))[label]
    before = x.tobytes()
    with np.errstate(invalid="ignore", over="ignore"):
        expected = _masked_sigmoid(x)
        actual = active_backend().stable_sigmoid(x)
    assert x.tobytes() == before, "input was modified"
    assert type(actual) is np.ndarray
    assert actual.dtype == expected.dtype == np.dtype(dtype)
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes(), label


# ----------------------------------------------------------------------
# dtype-policy interaction
# ----------------------------------------------------------------------
def test_backend_respects_dtype_policy():
    be = active_backend()
    with using_dtype("f32"):
        assert be.coerce([1, 2, 3]).dtype == np.float32
    with using_dtype("f64"):
        assert be.coerce([1, 2, 3]).dtype == np.float64
    # The kernels preserve the (already policy-coerced) input width.
    x32 = np.array([-1.0, 0.0, 2.0], dtype=np.float32)
    assert be.stable_sigmoid(x32).dtype == np.float32
    assert be.softplus(x32).dtype == np.float32


def test_f32_training_step_stays_f32():
    with using_dtype("f32"):
        t = Tensor(np.linspace(-2.0, 2.0, 12, dtype=np.float32),
                   requires_grad=True)
        loss = bce_with_logits(t, np.zeros(12))
        loss.backward()
        assert t.data.dtype == np.float32
        assert np.asarray(t.grad).dtype == np.float32
