"""Maximum Mean Discrepancy estimators (Section 2.1, Eqs. 2 & 10).

:class:`MMDBatch` estimates ``D_H(P, Q) = ||μ_P − μ_Q||²_H`` between two
sample arrays with one of three estimators:

* ``quadratic`` — the V-statistic of Eq. 2 / Eq. 10 (all-pairs kernel
  sums), O(n²) but exact; the default for the batch sizes used in
  training.
* ``unbiased`` — the U-statistic, the ``i ≠ j`` version of Eq. 2 (it
  can be slightly negative on small samples).
* ``linear`` — the O(n) streaming estimator the paper adopts from Long
  et al.'s joint adaptation networks [16], pairing samples
  (x_{2i-1}, x_{2i}) so each kernel evaluation is used once.

Its backward, in closed numpy, carries the gradient into both sample
matrices: minimizing the estimate shapes the POI embedding
distributions toward each other, which is the transfer step that
eliminates city-dependent features.  Forward-only callers read
:attr:`MMDBatch.loss`.
"""

from __future__ import annotations

from functools import reduce
from typing import List, Tuple

import numpy as np

from repro.nn.backend import active_backend as _xp
from repro.nn.dtypes import coerce


class MMDBatch:
    """The MMD² estimate between two sample arrays, with its backward.

    Construction computes the estimate (:attr:`loss`, a 0-d value in
    the samples' dtype) through the kernel's :meth:`gram` closed form;
    :meth:`backward` returns the gradient of each sample matrix.  Both
    replay the numpy operations of the estimator built from autograd
    tape ops (``tests/oracle/mmd.py``) in the tape's order, Gram by
    Gram, and add each Gram's contributions into a sample matrix in the
    tape's topological order (f64 addition is not associative), so the
    results carry the tape's bits.  Supports the ``quadratic``,
    ``unbiased`` and ``linear`` estimators over kernels that have a
    ``gram`` method (:class:`~repro.transfer.kernels.GaussianKernel`,
    :class:`~repro.transfer.kernels.MultiGaussianKernel`).
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, kernel,
                 estimator: str = "quadratic") -> None:
        if estimator not in ("quadratic", "unbiased", "linear"):
            raise ValueError(f"unknown MMD estimator {estimator!r}")
        self._x, self._y = x, y
        self._estimator = estimator
        dtype = x.dtype
        self._two = coerce(2.0, dtype=dtype)
        n, m = x.shape[0], y.shape[0]
        if estimator == "linear":
            half = (min(n, m) // 2) * 2
            if half < 2:
                raise ValueError(
                    "linear MMD needs at least 2 samples per side")
            self._odd, self._even = slice(0, half, 2), slice(1, half, 2)
            x_odd, x_even = x[self._odd], x[self._even]
            y_odd, y_even = y[self._odd], y[self._even]
            self._grams = [kernel.gram(x_odd, x_even),
                           kernel.gram(y_odd, y_even),
                           kernel.gram(x_odd, y_even),
                           kernel.gram(x_even, y_odd)]
            self._diag = np.arange(half // 2)
            k1, k2, k3, k4 = (gram.K[self._diag, self._diag]
                              for gram in self._grams)
            self._scales = [coerce(1.0 / (half // 2), dtype=dtype)]
            self.loss = (k1 + k2 - k3 - k4).sum() * self._scales[0]
            return
        if estimator == "unbiased" and (n < 2 or m < 2):
            raise ValueError(
                "unbiased MMD needs at least 2 samples per side")
        self._grams = [kernel.gram(x, x), kernel.gram(y, y),
                       kernel.gram(x, y)]
        k_xx, k_yy, k_xy = (gram.K for gram in self._grams)
        scale_xy = coerce(1.0 / k_xy.size, dtype=dtype)
        term_xy = k_xy.sum() * scale_xy * self._two
        if estimator == "quadratic":
            self._scales = [coerce(1.0 / k_xx.size, dtype=dtype),
                            coerce(1.0 / k_yy.size, dtype=dtype), scale_xy]
            term_xx = k_xx.sum() * self._scales[0]
            term_yy = k_yy.sum() * self._scales[1]
        else:
            self._scales = [coerce(1.0 / (n * (n - 1)), dtype=dtype),
                            coerce(1.0 / (m * (m - 1)), dtype=dtype),
                            scale_xy]
            term_xx = (k_xx.sum() - k_xx[np.arange(n), np.arange(n)].sum()) \
                * self._scales[0]
            term_yy = (k_yy.sum() - k_yy[np.arange(m), np.arange(m)].sum()) \
                * self._scales[1]
        self.loss = term_xx + term_yy - term_xy

    def backward(self, grad) -> Tuple[np.ndarray, np.ndarray]:
        """Gradients of ``x`` and ``y`` for an upstream gradient ``grad``
        (0-d) on :attr:`loss`."""
        if self._estimator == "linear":
            return self._backward_linear(grad)
        g_xx = grad * self._scales[0]
        g_yy = grad * self._scales[1]
        g_xy = ((-grad) * self._two) * self._scales[2]
        if self._estimator == "unbiased":
            g_xx = g_xx + _diagonal(-g_xx, self._grams[0].K.shape[0])
            g_yy = g_yy + _diagonal(-g_yy, self._grams[1].K.shape[0])
        xx, yy, xy = (gram.backward(g) for gram, g in
                      zip(self._grams, (g_xx, g_yy, g_xy)))
        return (_fold(_self_parts(*xx) + xy[0]),
                _fold(_self_parts(*yy) + xy[1]))

    def _backward_linear(self, grad) -> Tuple[np.ndarray, np.ndarray]:
        g = grad * self._scales[0]
        h = self._diag.size
        signs = (g, g, -g, -g)
        (x_odd1, x_even1), (y_odd2, y_even2), (x_odd3, y_even3), \
            (x_even4, y_odd4) = (
                gram.backward(_diagonal(sign, h))
                for gram, sign in zip(self._grams, signs))
        g_x = (_sliced(self._x, self._odd, x_odd1 + x_odd3)
               + _sliced(self._x, self._even, x_even1 + x_even4))
        g_y = (_sliced(self._y, self._even, y_even2 + y_even3)
               + _sliced(self._y, self._odd, y_odd2 + y_odd4))
        return g_x, g_y


def _fold(parts: List[np.ndarray]) -> np.ndarray:
    """Add gradient contributions left to right, as the tape does."""
    return reduce(np.add, parts)


def _self_parts(x_parts: List[np.ndarray], y_parts: List[np.ndarray]
                ) -> List[np.ndarray]:
    """Tape order of a Gram's contributions when ``x`` is ``y``."""
    return x_parts[:2] + y_parts[:2] + [x_parts[2], y_parts[2]]


def _diagonal(value, n: int) -> np.ndarray:
    """The backward of ``gram[idx, idx]``: ``value`` scattered onto the
    diagonal of an ``(n, n)`` zero matrix."""
    xp = _xp()
    vec = xp.full(n, value)
    out = xp.zeros((n, n), dtype=vec.dtype)
    idx = np.arange(n)
    xp.add_at(out, (idx, idx), vec)
    return out


def _sliced(like: np.ndarray, index: slice, parts: List[np.ndarray]
            ) -> np.ndarray:
    """The backward of ``like[index]`` for the slice's contributions."""
    xp = _xp()
    out = xp.zeros_like(like)
    xp.add_at(out, index, _fold(parts))
    return out
