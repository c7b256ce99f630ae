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
:attr:`MMDBatch.loss`.  The linear estimator evaluates only the
``n/2`` paired kernel values it reads, in ``O(n·d)``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.nn.backend import active_backend as _xp
from repro.nn.dtypes import coerce


class MMDBatch:
    """The MMD² estimate between two sample arrays, with its backward.

    Construction computes the estimate (:attr:`loss`, a 0-d value in
    the samples' dtype) through the kernel's :meth:`gram` closed form
    (:meth:`paired` for ``linear``); :meth:`backward` returns the
    gradient of each sample matrix.  The quadratic and unbiased losses
    run the numpy operations of the estimator built from autograd tape
    ops (``tests/oracle/mmd.py``) in the tape's order, so they carry the
    tape's bits; the linear loss and every backward match the tape
    within the band of ``docs/performance.md``.  Each backward is one
    weighted matrix per Gram (:meth:`Gram.backward`), with a self-Gram's
    two operands computed once.  Supports the ``quadratic``,
    ``unbiased`` and ``linear`` estimators over kernels that have
    ``gram`` and ``paired`` methods
    (:class:`~repro.transfer.kernels.GaussianKernel`,
    :class:`~repro.transfer.kernels.MultiGaussianKernel`).
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, kernel,
                 estimator: str = "quadratic") -> None:
        if estimator not in ("quadratic", "unbiased", "linear"):
            raise ValueError(f"unknown MMD estimator {estimator!r}")
        self._x, self._y = x, y
        self._estimator = estimator
        dtype = x.dtype
        n, m = x.shape[0], y.shape[0]
        if estimator == "linear":
            half = (min(n, m) // 2) * 2
            if half < 2:
                raise ValueError(
                    "linear MMD needs at least 2 samples per side")
            self._odd, self._even = slice(0, half, 2), slice(1, half, 2)
            x_odd, x_even = x[self._odd], x[self._even]
            y_odd, y_even = y[self._odd], y[self._even]
            self._pairs = [kernel.paired(x_odd, x_even),
                           kernel.paired(y_odd, y_even),
                           kernel.paired(x_odd, y_even),
                           kernel.paired(x_even, y_odd)]
            k1, k2, k3, k4 = (pair.k for pair in self._pairs)
            self._scale = coerce(1.0 / (half // 2), dtype=dtype)
            self.loss = (k1 + k2 - k3 - k4).sum() * self._scale
            return
        if estimator == "unbiased" and (n < 2 or m < 2):
            raise ValueError(
                "unbiased MMD needs at least 2 samples per side")
        self._grams = [kernel.gram(x, x), kernel.gram(y, y),
                       kernel.gram(x, y)]
        k_xx, k_yy, k_xy = (gram.K for gram in self._grams)
        scale_xy = coerce(1.0 / k_xy.size, dtype=dtype)
        term_xy = k_xy.sum() * scale_xy * coerce(2.0, dtype=dtype)
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
        (0-d) on :attr:`loss`.

        The unbiased estimator drops a self-Gram's diagonal, whose
        entries ``k(x_i, x_i) = 1`` do not depend on ``x``; so both
        estimators weight every entry of a Gram alike.
        """
        if self._estimator == "linear":
            return self._backward_linear(grad)
        xx, yy, xy = self._grams
        g_xy_x, g_xy_y = xy.backward(
            grad * coerce(-2.0, dtype=self._x.dtype) * self._scales[2])
        g_x = xx.backward_self(grad * self._scales[0])
        g_x += g_xy_x
        g_y = yy.backward_self(grad * self._scales[1])
        g_y += g_xy_y
        return g_x, g_y

    def _backward_linear(self, grad) -> Tuple[np.ndarray, np.ndarray]:
        g = grad * self._scale
        xx, yy, xy, yx = (pair.backward(sign) for pair, sign in
                          zip(self._pairs, (g, g, -g, -g)))
        xp = _xp()
        g_x, g_y = xp.zeros_like(self._x), xp.zeros_like(self._y)
        g_x[self._odd] = xx + xy
        g_x[self._even] = yx - xx
        g_y[self._odd] = yy - yx
        g_y[self._even] = -(yy + xy)
        return g_x, g_y
