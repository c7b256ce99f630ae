"""Kernels for the MMD transfer-learning layer.

The paper uses a Gaussian kernel with fixed bandwidth
``k_σ(x, y) = exp(-||x - y||² / 2σ²)`` (Section 3.1.4).  We additionally
provide the multi-bandwidth mixture popularized by deep-transfer work
(the paper's MMD reference [16]) and a median-heuristic bandwidth
selector, both useful in practice and exercised by ablation benches.

A kernel's :meth:`gram` is its Gram matrix on two sample arrays, with
the backward in closed numpy (:class:`Gram`) that carries the MMD loss's
gradient into the POI embeddings; :class:`~repro.transfer.mmd.MMDBatch`
builds on it.  Every array carries the bits of the same kernel built
from autograd-tape ops (the reference in ``tests/oracle/mmd.py``).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.nn.backend import active_backend as _xp
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

    def __repr__(self) -> str:
        return f"MultiGaussianKernel(bandwidths={self.bandwidths})"


class PairwiseSqDists:
    """All-pairs squared Euclidean distances ``||x_i - y_j||²`` of
    ``(n, d)`` and ``(m, d)`` samples, with the backward.

    Clipped at zero against negative values from floating-point
    cancellation.  The forward and :meth:`backward` run the tape's
    numpy operations in the tape's order: the unfactorised ``|x|² +
    |y|² − 2 x·yᵀ``, the ``np.where`` clip at zero, and in backward
    ``g @ y`` and ``(xᵀ @ g)ᵀ`` for the cross term, so every array
    carries the tape's bits.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray) -> None:
        self.x, self.y = x, y
        self._two = coerce(2.0, dtype=x.dtype)
        x_sq = (x * x).sum(axis=1, keepdims=True)
        y_sq = (y * y).sum(axis=1, keepdims=True).T
        cross = x @ y.T
        cross *= self._two
        d = x_sq + y_sq
        d -= cross
        self._mask = d > 0
        #: The ``(n, m)`` squared distances.
        self.out = _xp().where(self._mask, d, 0.0)

    def backward(self, grad: np.ndarray
                 ) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        """The gradient contributions to ``x`` and to ``y``.

        Each list holds the three terms the tape adds into its operand,
        in the tape's order: two from the squared norm's ``v * v`` and
        one from the cross product.  When ``x`` and ``y`` are the same
        node the tape's order over both lists is ``x[:2] + y[:2] +
        [x[2], y[2]]``.  (In-place updates and ``g * -2`` for the tape's
        ``(-g) * 2`` are the same IEEE operations, hence the same bits.)
        """
        grad = grad * self._mask
        g_cross = grad * -self._two
        t_x = grad.sum(axis=1, keepdims=True) * self.x
        t_y = grad.sum(axis=0, keepdims=True).T * self.y
        return ([t_x, t_x, g_cross @ self.y],
                [t_y, t_y, (self.x.T @ g_cross).T])


class Gram:
    """A Gaussian Gram matrix ``K`` (or a mixture of them) and its backward.

    ``K = exp(-γ d²)`` over :class:`PairwiseSqDists` for one bandwidth;
    with ``mixture=True``, the mean of one such term per bandwidth,
    summed in bandwidth order.  The operations are those of the kernel
    on the tape, in the tape's order, so ``K`` and :meth:`backward`
    carry the tape's bits.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray,
                 bandwidths: Sequence[float], mixture: bool = False) -> None:
        self._dists = PairwiseSqDists(x, y)
        dtype = x.dtype
        self._scales = [coerce(-(1.0 / (2.0 * bw**2)), dtype=dtype)
                        for bw in bandwidths]
        self._terms = [self._dists.out * scale for scale in self._scales]
        for term in self._terms:
            np.exp(term, out=term)
        total = self._terms[0]
        for term in self._terms[1:]:
            total = total + term
        self._mean = (coerce(1.0 / len(self._terms), dtype=dtype)
                      if mixture else None)
        #: The ``(n, m)`` kernel matrix.
        self.K = total if self._mean is None else total * self._mean

    def backward(self, grad) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        """Contributions to ``x`` and ``y`` for a gradient on ``K``
        (array or scalar); see :meth:`PairwiseSqDists.backward`."""
        if self._mean is not None:
            grad = grad * self._mean
        g_dists = None
        for term, scale in zip(self._terms, self._scales):
            part = grad * term
            part *= scale
            if g_dists is None:
                g_dists = part
            else:
                g_dists += part
        return self._dists.backward(g_dists)


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
