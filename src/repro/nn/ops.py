"""Functional ops that combine several tensors (concat, stack, dots).

These complement the methods on :class:`~repro.nn.tensor.Tensor` with the
multi-input operations the ST-TransRec architecture needs: concatenating
user and POI embeddings (Eq. 11 feeds ``[x_u, x_v]`` into the MLP tower)
and row-wise dot products for the skipgram objective (Eq. 4).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.nn.backend import active_backend as _xp
from repro.nn.dtypes import coerce
from repro.nn.tensor import Tensor, _unbroadcast


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


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack same-shaped tensors along a new ``axis``."""
    if not tensors:
        raise ValueError("stack requires at least one tensor")
    parents = tuple(Tensor._coerce(t) for t in tensors)
    out_data = _xp().stack([p.data for p in parents], axis=axis)
    ax = axis % out_data.ndim

    def backward(grad: np.ndarray):
        xp = _xp()
        return tuple(xp.take(grad, i, axis=ax) for i in range(len(parents)))

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


class PairwiseSqDists:
    """:func:`pairwise_sq_dists` on arrays, with its backward, no graph.

    The forward and :meth:`backward` run the tape's numpy operations in
    the tape's order: the unfactorised ``|x|² + |y|² − 2 x·yᵀ``, the
    ``np.where`` clip at zero, and in backward ``g @ y`` and
    ``(xᵀ @ g)ᵀ`` for the cross term, so every array carries the
    tape's bits.
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
        n, m = grad.shape
        g_cross = grad * -self._two
        t_x = _unbroadcast(grad, (n, 1)) * self.x
        t_y = _unbroadcast(grad, (1, m)).T * self.y
        return ([t_x, t_x, g_cross @ self.y],
                [t_y, t_y, (self.x.T @ g_cross).T])
