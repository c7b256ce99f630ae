"""Kernels for the MMD transfer-learning layer.

The paper uses a Gaussian kernel with fixed bandwidth
``k_σ(x, y) = exp(-||x - y||² / 2σ²)`` (Section 3.1.4).  We additionally
provide the multi-bandwidth mixture popularized by deep-transfer work
(the paper's MMD reference [16]) and a median-heuristic bandwidth
selector, both useful in practice and exercised by ablation benches.

All kernels operate on autograd :class:`~repro.nn.tensor.Tensor` inputs
so the MMD loss back-propagates into the POI embeddings.  Each kernel's
:meth:`gram` is the same Gram matrix on plain arrays with its backward
in closed numpy (:class:`Gram`), bit-identical to the tape; the
trainer's joint step uses it.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.nn.dtypes import coerce
from repro.nn.ops import PairwiseSqDists, pairwise_sq_dists
from repro.nn.tensor import Tensor
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

    def __call__(self, x: Tensor, y: Tensor) -> Tensor:
        """Gram matrix ``K[i, j] = k(x_i, y_j)`` of shape ``(n, m)``."""
        gamma = 1.0 / (2.0 * self.bandwidth**2)
        return (pairwise_sq_dists(x, y) * (-gamma)).exp()

    def gram(self, x: np.ndarray, y: np.ndarray) -> "Gram":
        """:meth:`__call__` on arrays, with its closed-form backward."""
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

    def __call__(self, x: Tensor, y: Tensor) -> Tensor:
        sq = pairwise_sq_dists(x, y)
        total = None
        for bw in self.bandwidths:
            gamma = 1.0 / (2.0 * bw**2)
            term = (sq * (-gamma)).exp()
            total = term if total is None else total + term
        return total * (1.0 / len(self.bandwidths))

    def gram(self, x: np.ndarray, y: np.ndarray) -> "Gram":
        """:meth:`__call__` on arrays, with its closed-form backward."""
        return Gram(x, y, self.bandwidths, mixture=True)

    def __repr__(self) -> str:
        return f"MultiGaussianKernel(bandwidths={self.bandwidths})"


class Gram:
    """A Gaussian Gram matrix ``K`` (or a mixture of them) and its backward.

    ``K = exp(-γ d²)`` over :class:`~repro.nn.ops.PairwiseSqDists` for
    one bandwidth; with ``mixture=True``, the mean of one such term per
    bandwidth, summed in bandwidth order.  The operations are those of
    :class:`GaussianKernel` and :class:`MultiGaussianKernel` on the
    tape, in the tape's order, so ``K`` and :meth:`backward` carry the
    tape's bits.
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
