"""Maximum Mean Discrepancy estimators (Section 2.1, Eqs. 2 & 10).

Two estimators of ``D_H(P, Q) = ||μ_P − μ_Q||²_H``:

* :func:`mmd_quadratic` — the V-statistic of Eq. 2 / Eq. 10 (all-pairs
  kernel sums), O(n²) but exact; the default for the batch sizes used
  in training.
* :func:`mmd_linear` — the O(n) streaming estimator the paper adopts
  from Long et al.'s joint adaptation networks [16], pairing samples
  (x_{2i-1}, x_{2i}) so each kernel evaluation is used once.

Both are differentiable end-to-end: minimizing them shapes the POI
embedding distributions toward each other, which is the transfer step
that eliminates city-dependent features.  :class:`MMDBatch` is
:func:`mmd_between_embeddings` on arrays with its backward in closed
numpy, bit-identical to the tape; the trainer's joint step uses it.
"""

from __future__ import annotations

from functools import reduce
from typing import Callable, List, Tuple, Union

import numpy as np

from repro.nn.backend import active_backend as _xp
from repro.nn.dtypes import coerce
from repro.nn.tensor import Tensor
from repro.transfer.kernels import GaussianKernel

KernelFn = Callable[[Tensor, Tensor], Tensor]


def _coerce(x: Union[Tensor, np.ndarray]) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x))


def mmd_quadratic(x: Union[Tensor, np.ndarray], y: Union[Tensor, np.ndarray],
                  kernel: KernelFn = None) -> Tensor:
    """Biased (V-statistic) quadratic-time MMD² estimate (Eq. 2).

    ``(1/n²) ΣΣ k(x,x') + (1/m²) ΣΣ k(y,y') − (2/nm) ΣΣ k(x,y)``

    Parameters
    ----------
    x, y:
        Sample matrices of shape ``(n, d)`` and ``(m, d)``.
    kernel:
        Kernel callable; defaults to a unit-bandwidth Gaussian.
    """
    x, y = _coerce(x), _coerce(y)
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
        raise ValueError(
            f"expected (n, d) and (m, d) samples, got {x.shape} and {y.shape}"
        )
    kernel = kernel or GaussianKernel(1.0)
    k_xx = kernel(x, x).mean()
    k_yy = kernel(y, y).mean()
    k_xy = kernel(x, y).mean()
    return k_xx + k_yy - k_xy * 2.0


def mmd_unbiased(x: Union[Tensor, np.ndarray], y: Union[Tensor, np.ndarray],
                 kernel: KernelFn = None) -> Tensor:
    """Unbiased U-statistic MMD² (diagonal terms excluded).

    Matches the estimator in the paper's preliminary (the ``i ≠ j``
    version of Eq. 2); can be slightly negative on small samples, which
    is expected for a U-statistic.
    """
    x, y = _coerce(x), _coerce(y)
    n, m = x.shape[0], y.shape[0]
    if n < 2 or m < 2:
        raise ValueError("unbiased MMD needs at least 2 samples per side")
    kernel = kernel or GaussianKernel(1.0)
    k_xx = kernel(x, x)
    k_yy = kernel(y, y)
    k_xy = kernel(x, y)
    # Remove the diagonal from the within-sample sums.
    sum_xx = k_xx.sum() - _diag_sum(k_xx, n)
    sum_yy = k_yy.sum() - _diag_sum(k_yy, m)
    term_xx = sum_xx * (1.0 / (n * (n - 1)))
    term_yy = sum_yy * (1.0 / (m * (m - 1)))
    term_xy = k_xy.mean() * 2.0
    return term_xx + term_yy - term_xy


def _diag_sum(gram: Tensor, n: int) -> Tensor:
    idx = np.arange(n)
    return gram[idx, idx].sum()


def mmd_linear(x: Union[Tensor, np.ndarray], y: Union[Tensor, np.ndarray],
               kernel: KernelFn = None) -> Tensor:
    """Linear-time MMD² estimator (Gretton et al. 2012, Lemma 14).

    Uses consecutive pairs:
    ``(2/n) Σ_i h((x_{2i-1}, y_{2i-1}), (x_{2i}, y_{2i}))`` with
    ``h = k(x,x') + k(y,y') − k(x,y') − k(x',y)``.

    Requires equal sample counts; an odd trailing sample is dropped.
    This is the O(D) technique the paper cites to keep each training
    iteration linear in the number of check-ins.
    """
    x, y = _coerce(x), _coerce(y)
    n = min(x.shape[0], y.shape[0])
    if n < 2:
        raise ValueError("linear MMD needs at least 2 samples per side")
    half = (n // 2) * 2
    x_odd, x_even = x[0:half:2], x[1:half:2]
    y_odd, y_even = y[0:half:2], y[1:half:2]
    kernel = kernel or GaussianKernel(1.0)
    k = kernel
    # Row-wise kernel values via 1-sample-per-row Gram diag trick: build
    # (h, d) tensors and evaluate k pairwise, taking the diagonal.
    idx = np.arange(half // 2)
    term = (
        k(x_odd, x_even)[idx, idx]
        + k(y_odd, y_even)[idx, idx]
        - k(x_odd, y_even)[idx, idx]
        - k(x_even, y_odd)[idx, idx]
    )
    return term.mean()


def mmd_between_embeddings(source: Tensor, target: Tensor,
                           kernel: KernelFn = None,
                           estimator: str = "quadratic") -> Tensor:
    """Dispatch helper used by the training loop.

    Parameters
    ----------
    estimator:
        ``"quadratic"`` (default), ``"unbiased"`` or ``"linear"``.
    """
    if estimator == "quadratic":
        return mmd_quadratic(source, target, kernel)
    if estimator == "unbiased":
        return mmd_unbiased(source, target, kernel)
    if estimator == "linear":
        return mmd_linear(source, target, kernel)
    raise ValueError(f"unknown MMD estimator {estimator!r}")


class MMDBatch:
    """Tape-free :func:`mmd_between_embeddings` between two sample arrays.

    Construction computes the estimate (:attr:`loss`, a 0-d value in
    the samples' dtype) through the kernel's :meth:`gram` closed form;
    :meth:`backward` returns the gradient of each sample matrix.  Both
    replay the tape's numpy operations in the tape's order, Gram by
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
