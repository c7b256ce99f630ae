"""Functional ops that combine several tensors (concat, dots).

These complement the methods on :class:`~tests.oracle.tensor.Tensor` with the
multi-input operations the ST-TransRec architecture needs: concatenating
user and POI embeddings (Eq. 11 feeds ``[x_u, x_v]`` into the MLP tower)
and row-wise dot products for the skipgram objective (Eq. 4).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.backend import active_backend as _xp
from tests.oracle.tensor import Tensor


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient splitting."""
    if not tensors:
        raise ValueError("concat requires at least one tensor")
    parents = tuple(Tensor._coerce(t) for t in tensors)
    datas = [p.data for p in parents]
    out_data = _xp().concatenate(datas, axis=axis)
    ax = axis % out_data.ndim
    sizes = [d.shape[ax] for d in datas]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray):
        pieces = []
        for i in range(len(parents)):
            sl = [slice(None)] * grad.ndim
            sl[ax] = slice(offsets[i], offsets[i + 1])
            pieces.append(grad[tuple(sl)])
        return tuple(pieces)

    return Tensor._child(out_data, parents, backward)


def rowwise_dot(a: Tensor, b: Tensor) -> Tensor:
    """Per-row inner product: ``(a * b).sum(axis=-1)``.

    Used by the skipgram loss to score (POI, word) pairs.
    """
    return (a * b).sum(axis=-1)


def pairwise_sq_dists(x: Tensor, y: Tensor) -> Tensor:
    """All-pairs squared Euclidean distances, differentiable.

    For ``x`` of shape ``(n, d)`` and ``y`` of shape ``(m, d)``, returns a
    ``(n, m)`` tensor of ``||x_i - y_j||^2``, computed via the expansion
    ``|x|^2 + |y|^2 - 2 x.y`` so the graph stays small.  Clipped at zero
    to guard against negative values from floating-point cancellation.
    """
    x_sq = (x * x).sum(axis=1, keepdims=True)           # (n, 1)
    y_sq = (y * y).sum(axis=1, keepdims=True).T         # (1, m)
    cross = x @ y.T                                     # (n, m)
    d = x_sq + y_sq - cross * 2.0
    return d.relu()
