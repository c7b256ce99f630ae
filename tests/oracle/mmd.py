"""The MMD estimators and the kernels' Gram matrices on the tape.

:class:`repro.transfer.mmd.MMDBatch` is the package's MMD: a closed
form over the kernels' :meth:`gram`.  The functions here are the same
estimators built from tape ops, the reference its byte tests run.
"""

from __future__ import annotations

from typing import Callable, Union

import numpy as np

from repro.transfer.kernels import GaussianKernel, MultiGaussianKernel
from tests.oracle.ops import pairwise_sq_dists
from tests.oracle.tensor import Tensor

KernelFn = Callable[[Tensor, Tensor], Tensor]


def gaussian(kernel: GaussianKernel, x: Tensor, y: Tensor) -> Tensor:
    """Gram matrix ``K[i, j] = k(x_i, y_j)`` of shape ``(n, m)``."""
    gamma = 1.0 / (2.0 * kernel.bandwidth**2)
    return (pairwise_sq_dists(x, y) * (-gamma)).exp()


def multi_gaussian(kernel: MultiGaussianKernel, x: Tensor,
                   y: Tensor) -> Tensor:
    """Gram matrix of the bandwidth mixture, ``(n, m)``."""
    sq = pairwise_sq_dists(x, y)
    total = None
    for bw in kernel.bandwidths:
        gamma = 1.0 / (2.0 * bw**2)
        term = (sq * (-gamma)).exp()
        total = term if total is None else total + term
    return total * (1.0 / len(kernel.bandwidths))


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
    kernel = _tape_kernel(kernel)
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
    kernel = _tape_kernel(kernel)
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
    kernel = _tape_kernel(kernel)
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


def _tape_kernel(kernel) -> KernelFn:
    """``kernel`` (a unit-bandwidth Gaussian when ``None``) as a tape
    function of ``(x, y)``; any other callable is used as is."""
    kernel = kernel or GaussianKernel(1.0)
    if isinstance(kernel, GaussianKernel):
        return lambda x, y: gaussian(kernel, x, y)
    if isinstance(kernel, MultiGaussianKernel):
        return lambda x, y: multi_gaussian(kernel, x, y)
    return kernel
