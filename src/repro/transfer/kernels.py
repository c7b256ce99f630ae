"""Kernels for the MMD transfer-learning layer.

The paper uses a Gaussian kernel with fixed bandwidth
``k_σ(x, y) = exp(-||x - y||² / 2σ²)`` (Section 3.1.4).  We additionally
provide the multi-bandwidth mixture popularized by deep-transfer work
(the paper's MMD reference [16]) and a median-heuristic bandwidth
selector, both useful in practice and exercised by ablation benches.

A kernel's :meth:`gram` is its Gram matrix on two sample arrays, and
its :meth:`paired` the kernel values of paired rows, each with the
backward in closed numpy (:class:`Gram`, :class:`PairedKernel`) that
carries the MMD loss's gradient into the POI embeddings;
:class:`~repro.transfer.mmd.MMDBatch` builds on them.  A Gram matrix
carries the bits of the same kernel built from autograd-tape ops (the
reference in ``tests/oracle/mmd.py``); the backwards and the paired
values match it within the band of ``docs/performance.md``.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.nn.dtypes import coerce
from repro.utils.validation import check_positive


class GaussianKernel:
    """Fixed-bandwidth Gaussian (RBF) kernel.

    Parameters
    ----------
    bandwidth:
        σ in ``exp(-d² / 2σ²)``.
    """

    def __init__(self, bandwidth: float = 1.0) -> None:
        check_positive("bandwidth", bandwidth)
        self.bandwidth = float(bandwidth)

    def gram(self, x: np.ndarray, y: np.ndarray) -> "Gram":
        """Gram matrix ``K[i, j] = k(x_i, y_j)`` of shape ``(n, m)``,
        with its closed-form backward."""
        return Gram(x, y, [self.bandwidth])

    def paired(self, a: np.ndarray, b: np.ndarray) -> "PairedKernel":
        """The ``(h,)`` values ``k(a_i, b_i)``, with their backward."""
        return PairedKernel(a, b, [self.bandwidth])

    def __repr__(self) -> str:
        return f"GaussianKernel(bandwidth={self.bandwidth})"


class MultiGaussianKernel:
    """Mixture of Gaussian kernels at geometrically spaced bandwidths.

    ``k(x, y) = (1/m) Σ_i exp(-d² / 2σ_i²)`` with
    ``σ_i = base · factor^(i - m//2)``; matching statistics at several
    scales is more robust than a single fixed bandwidth when embedding
    norms change during training.
    """

    def __init__(self, base_bandwidth: float = 1.0, num_kernels: int = 5,
                 factor: float = 2.0) -> None:
        check_positive("base_bandwidth", base_bandwidth)
        check_positive("num_kernels", num_kernels)
        check_positive("factor", factor)
        center = num_kernels // 2
        self.bandwidths = [
            base_bandwidth * factor ** (i - center) for i in range(num_kernels)
        ]

    def gram(self, x: np.ndarray, y: np.ndarray) -> "Gram":
        """The mixture's Gram matrix, with its closed-form backward."""
        return Gram(x, y, self.bandwidths, mixture=True)

    def paired(self, a: np.ndarray, b: np.ndarray) -> "PairedKernel":
        """The mixture's values ``k(a_i, b_i)``, with their backward."""
        return PairedKernel(a, b, self.bandwidths, mixture=True)

    def __repr__(self) -> str:
        return f"MultiGaussianKernel(bandwidths={self.bandwidths})"


class Gram:
    """A Gaussian Gram matrix ``K`` (or a mixture of them) and its backward.

    ``K[i, j] = exp(-γ d²_ij)`` for one bandwidth; with ``mixture=True``,
    the mean of one such term per bandwidth, summed in bandwidth order.
    ``d²`` is built in one clipped pass, ``max(|x|² + |y|² − 2 x·yᵀ,
    0)``, in the order the tape's ``pairwise_sq_dists`` adds it (so
    ``K`` carries the tape's bits), then each term is one in-place
    ``exp``.

    :meth:`backward` takes a scalar gradient ``g`` on every entry of
    ``K``.  With ``W = Σ_b γ_b K_b``, the gradient of ``g · ΣK`` is
    ``c (rowsum(W)·x − W @ y)`` for ``x`` and ``c (colsum(W)·y − Wᵀ @
    x)`` for ``y``, where ``c = −2g`` (times ``1/m`` for a mixture): one
    weighted matrix and one matmul per operand instead of the tape's
    per-operation passes.  For one bandwidth ``W`` is ``K`` itself and
    ``γ`` moves into ``c``.  The result
    matches the tape within the band of ``docs/performance.md``, not
    bit for bit.  The clip does not enter the backward: a clipped entry
    has ``x_i ≈ y_j``, so its term ``x_i − y_j`` is zero up to rounding.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray,
                 bandwidths: Sequence[float], mixture: bool = False) -> None:
        self.x, self.y = x, y
        dtype = x.dtype
        x_sq = (x * x).sum(axis=1, keepdims=True)
        y_sq = x_sq.T if y is x else (y * y).sum(axis=1, keepdims=True).T
        cross = x @ y.T
        cross *= coerce(2.0, dtype=dtype)
        d = x_sq + y_sq
        d -= cross
        # fmax, like the tape's np.where(d > 0, d, 0), maps NaN to 0.
        np.fmax(d, 0.0, out=d)
        self._gammas = [coerce(1.0 / (2.0 * bw**2), dtype=dtype)
                        for bw in bandwidths]
        self._terms = [d * (-gamma) for gamma in self._gammas]
        for term in self._terms:
            np.exp(term, out=term)
        total = self._terms[0]
        for term in self._terms[1:]:
            total = total + term
        self._mean = (coerce(1.0 / len(self._terms), dtype=dtype)
                      if mixture else None)
        #: The ``(n, m)`` kernel matrix.
        self.K = total if self._mean is None else total * self._mean

    def _weights(self, grad) -> Tuple[np.ndarray, np.ndarray]:
        """``W`` and the 0-d coefficient ``c`` for a scalar ``grad``."""
        coef = grad * coerce(-2.0, dtype=self.K.dtype)
        if len(self._terms) == 1:
            weights = self._terms[0]
            coef = coef * self._gammas[0]
        else:
            weights = self._terms[0] * self._gammas[0]
            for term, gamma in zip(self._terms[1:], self._gammas[1:]):
                weights += term * gamma
        if self._mean is not None:
            coef = coef * self._mean
        return weights, coef

    def backward(self, grad) -> Tuple[np.ndarray, np.ndarray]:
        """Gradients of ``x`` and ``y`` for a scalar gradient ``grad``
        on every entry of ``K``."""
        w, coef = self._weights(grad)
        g_x = w.sum(axis=1, keepdims=True) * self.x
        g_x -= w @ self.y
        g_y = w.sum(axis=0, keepdims=True).T * self.y
        g_y -= w.T @ self.x
        g_x *= coef
        g_y *= coef
        return g_x, g_y

    def backward_self(self, grad) -> np.ndarray:
        """The gradient of ``x`` when ``y`` is ``x`` (a self-Gram), for a
        scalar ``grad`` on every entry: both operands give the same
        term (``W`` is symmetric), so it is computed once and doubled."""
        w, coef = self._weights(grad)
        g_x = w.sum(axis=1, keepdims=True) * self.x
        g_x -= w @ self.x
        g_x *= coef + coef
        return g_x


class PairedKernel:
    """Kernel values ``k(a_i, b_i)`` of paired rows, and their backward.

    The linear-time MMD reads one kernel value per pair of samples, so
    this is ``O(n·d)``: ``k_i = exp(-γ |a_i − b_i|²)`` (the mean over
    bandwidths for a mixture), with the gradient of ``Σ g_i k_i``
    flowing to ``a_i`` as ``−2 g_i Σ_b γ_b k_bi (a_i − b_i)`` and to
    ``b_i`` with the opposite sign.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray,
                 bandwidths: Sequence[float], mixture: bool = False) -> None:
        dtype = a.dtype
        self._diff = a - b
        sq = (self._diff * self._diff).sum(axis=1)
        self._gammas = [coerce(1.0 / (2.0 * bw**2), dtype=dtype)
                        for bw in bandwidths]
        self._terms = [np.exp(sq * (-gamma)) for gamma in self._gammas]
        total = self._terms[0]
        for term in self._terms[1:]:
            total = total + term
        self._mean = (coerce(1.0 / len(self._terms), dtype=dtype)
                      if mixture else None)
        #: The ``(h,)`` kernel values.
        self.k = total if self._mean is None else total * self._mean

    def backward(self, grad) -> np.ndarray:
        """The gradient of ``a`` for a gradient ``grad`` (scalar or
        ``(h,)``) on :attr:`k`; ``b``'s is its negation."""
        weights = self._terms[0] * self._gammas[0]
        for term, gamma in zip(self._terms[1:], self._gammas[1:]):
            weights = weights + term * gamma
        if self._mean is not None:
            weights = weights * self._mean
        weights *= grad * coerce(-2.0, dtype=self.k.dtype)
        return weights[:, None] * self._diff


def median_heuristic_bandwidth(x: np.ndarray, y: np.ndarray) -> float:
    """Median pairwise distance between the pooled samples.

    The standard automatic bandwidth for kernel two-sample tests; used
    when no fixed σ is configured.
    """
    pooled = np.concatenate([np.asarray(x), np.asarray(y)], axis=0)
    if len(pooled) < 2:
        return 1.0
    diff = pooled[:, None, :] - pooled[None, :, :]
    dists = np.sqrt((diff**2).sum(axis=2))
    upper = dists[np.triu_indices(len(pooled), k=1)]
    med = float(np.median(upper))
    return med if med > 0 else 1.0
