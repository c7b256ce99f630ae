"""The array namespace of the ``repro.nn`` stack.

Every array operation the training passes perform routes through one
namespace object, ``xp`` in Array-API parlance, obtained from
:func:`active_backend`.  The namespace covers the standard surface the
codebase uses (elementwise math, reductions, ``matmul``, shape
manipulation, sorting/searching) plus the handful of non-standard ops a
recommender hot path needs: scatter-add (``add_at``, and
``scatter_rows`` into a zero table), row gather
(``take``), ``searchsorted``, RNG draws and the Adam recurrence.  The
floating-point promotion policy of :mod:`repro.nn.dtypes` is folded in
as :meth:`ArrayBackend.coerce`.

:class:`ArrayBackend` is plain numpy: every method is either a numpy
function or the exact arithmetic the seed performed.  The golden-output
gate in ``tests/test_nn_backend.py`` pins that bitwise, in f64 and f32,
against ``tests/data/backend_golden.npz``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import dtypes

__all__ = ["ArrayBackend", "active_backend"]


class ArrayBackend:
    """The ``xp`` namespace: plain numpy, bit-for-bit the seed.

    Everything on this class either *is* a numpy function or reproduces
    the pre-backend arithmetic exactly; the golden tests depend on that.
    """

    # -- creation ------------------------------------------------------
    asarray = staticmethod(np.asarray)
    ascontiguousarray = staticmethod(np.ascontiguousarray)
    arange = staticmethod(np.arange)
    zeros = staticmethod(np.zeros)
    ones = staticmethod(np.ones)
    empty = staticmethod(np.empty)
    full = staticmethod(np.full)
    zeros_like = staticmethod(np.zeros_like)
    ones_like = staticmethod(np.ones_like)
    empty_like = staticmethod(np.empty_like)
    full_like = staticmethod(np.full_like)

    # -- elementwise ---------------------------------------------------
    add = staticmethod(np.add)
    subtract = staticmethod(np.subtract)
    multiply = staticmethod(np.multiply)
    divide = staticmethod(np.divide)
    negative = staticmethod(np.negative)
    power = staticmethod(np.power)
    exp = staticmethod(np.exp)
    log = staticmethod(np.log)
    log1p = staticmethod(np.log1p)
    sqrt = staticmethod(np.sqrt)
    tanh = staticmethod(np.tanh)
    abs = staticmethod(np.abs)
    sign = staticmethod(np.sign)
    maximum = staticmethod(np.maximum)
    minimum = staticmethod(np.minimum)
    clip = staticmethod(np.clip)
    where = staticmethod(np.where)
    isfinite = staticmethod(np.isfinite)
    isnan = staticmethod(np.isnan)

    # -- reductions ----------------------------------------------------
    sum = staticmethod(np.sum)
    mean = staticmethod(np.mean)
    max = staticmethod(np.max)
    min = staticmethod(np.min)
    prod = staticmethod(np.prod)
    any = staticmethod(np.any)
    all = staticmethod(np.all)

    # -- linalg / shape ------------------------------------------------
    matmul = staticmethod(np.matmul)
    concatenate = staticmethod(np.concatenate)
    stack = staticmethod(np.stack)
    broadcast_to = staticmethod(np.broadcast_to)
    expand_dims = staticmethod(np.expand_dims)
    reshape = staticmethod(np.reshape)
    transpose = staticmethod(np.transpose)
    tile = staticmethod(np.tile)
    repeat = staticmethod(np.repeat)

    # -- sorting / searching / indexing --------------------------------
    argsort = staticmethod(np.argsort)
    sort = staticmethod(np.sort)
    searchsorted = staticmethod(np.searchsorted)
    unique = staticmethod(np.unique)
    flatnonzero = staticmethod(np.flatnonzero)
    take = staticmethod(np.take)

    # -- dtype policy --------------------------------------------------
    #: The single array-promotion rule — see :func:`repro.nn.dtypes.coerce`.
    coerce = staticmethod(dtypes.coerce)

    # -- RNG draws -----------------------------------------------------
    # Draws take an explicit numpy Generator so seeded streams stay
    # reproducible.
    @staticmethod
    def random(rng: np.random.Generator, size=None):
        return rng.random(size)

    @staticmethod
    def normal(rng: np.random.Generator, loc=0.0, scale=1.0, size=None):
        return rng.normal(loc, scale, size=size)

    @staticmethod
    def uniform(rng: np.random.Generator, low=0.0, high=1.0, size=None):
        return rng.uniform(low, high, size=size)

    @staticmethod
    def integers(rng: np.random.Generator, low, high=None, size=None):
        return rng.integers(low, high, size=size)

    @staticmethod
    def permutation(rng: np.random.Generator, n):
        return rng.permutation(n)

    # ------------------------------------------------------------------
    # Non-standard hot ops
    # ------------------------------------------------------------------
    def add_at(self, target: np.ndarray, index, values) -> None:
        """Unbuffered scatter-add: ``target[index] += values`` with
        duplicate indices accumulating (``np.add.at`` semantics)."""
        np.add.at(target, index, values)

    def scatter_rows(self, index, rows, num_rows: int,
                     out: Optional[np.ndarray] = None) -> np.ndarray:
        """Scatter-add ``rows`` into a zero table of ``num_rows``.

        Returns an array of shape ``(num_rows,) + rows.shape[index.ndim:]``
        in ``rows.dtype`` (or ``out``, C-contiguous, zeroed first),
        byte-identical to ``np.add.at`` into zeros.  It runs as
        ``np.add.at`` over the flattened table and flattened ``(row,
        column)`` keys, which adds into each cell in the same order and
        is several times faster than the row-wise call.  Rows holding a
        NaN keep the row-wise call: when two NaNs meet, the payload that
        survives depends on the operand order of the addition, which
        the two loops do not share.  Without an input NaN the only NaN
        is the default one ``inf - inf`` makes, and operand order cannot
        show.  Row ids may be negative, as in numpy indexing; ids outside
        ``[-num_rows, num_rows)`` raise ``IndexError``.
        """
        index = np.asarray(index)
        rows = np.asarray(rows)
        tail = rows.shape[index.ndim:]
        ids = index.reshape(-1).astype(np.int64, copy=False)
        if ids.size and (ids.min() < -num_rows or ids.max() >= num_rows):
            raise IndexError(
                f"row index out of range for {num_rows} rows: "
                f"min={ids.min()}, max={ids.max()}")
        if out is None:
            out = np.zeros((num_rows,) + tail, dtype=rows.dtype)
        else:
            out[...] = 0
        if np.isnan(rows).any():
            self.add_at(out, index, rows)
            return out
        cols = int(np.prod(tail, dtype=np.int64))
        ids = np.where(ids < 0, ids + num_rows, ids)
        keys = (ids[:, None] * cols + np.arange(cols)).reshape(-1)
        self.add_at(np.reshape(out, -1, copy=False), keys, rows.reshape(-1))
        return out

    def stable_sigmoid(self, x: np.ndarray) -> np.ndarray:
        """Logistic function computed without overflow for large |x|.

        ``1 / (1 + e)`` where ``x >= 0`` and ``e / (1 + e)`` elsewhere,
        with ``e = exp(min(x, -x))``: that minimum is bit for bit the
        argument each branch of two boolean-masked passes would use
        (``-x`` or ``x``; for a NaN, ``np.minimum`` returns its first
        operand, ``x``), and ``exp(±0)`` is exactly 1.  So one exp and
        one divide, with no mask and no ``np.where``, give the masked
        passes' bytes on every input.  Temporaries are reused in place:
        on a 128 × 510 batch a fresh array costs more than the math.
        """
        x = dtypes.coerce(x)
        e = np.negative(x, out=np.empty_like(x))
        np.minimum(x, e, out=e)
        np.exp(e, out=e)
        # e <= 1, so the numerator is 1 where x >= 0 and e elsewhere.
        out = np.maximum(e, x >= 0, out=np.empty_like(x))
        e += 1.0
        return np.divide(out, e, out=out)

    def softplus(self, x: np.ndarray) -> np.ndarray:
        """``log(1 + exp(x))`` computed without overflow."""
        x = dtypes.coerce(x)
        return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))

    def dropout_mask(self, rng: np.random.Generator, shape,
                     keep: float, dtype) -> np.ndarray:
        """Inverted-dropout mask: Bernoulli(keep) scaled by ``1/keep``."""
        return (rng.random(shape) < keep).astype(dtype) / keep

    def adam_update(self, m: np.ndarray, v: np.ndarray, grad: np.ndarray,
                    lr: float, beta1: float, beta2: float, eps: float,
                    bias1: float, bias2: float,
                    weight_decay: float = 0.0,
                    param: Optional[np.ndarray] = None) -> np.ndarray:
        """One Adam recurrence: updates ``m``/``v`` in place and returns
        the parameter *decrement* (caller subtracts it).

        This is the exact pre-backend arithmetic, operation for
        operation: ``m += (1 - β1)·g``, ``v += ((1 - β2)·g)·g`` and
        ``lr·m̂ / (√v̂ + ε)``, with temporaries updated in place and
        scalar products in either operand order (the same IEEE
        operations, so the same bits).
        """
        if weight_decay:
            grad = grad + weight_decay * param
        m *= beta1
        m += grad * (1.0 - beta1)
        v *= beta2
        step = grad * (1.0 - beta2)
        step *= grad
        v += step
        update = m / bias1
        update *= lr
        denom = v / bias2
        np.sqrt(denom, out=denom)
        denom += eps
        update /= denom
        return update


_INSTANCE = ArrayBackend()


def active_backend() -> ArrayBackend:
    """The process's one backend instance (the ``xp`` namespace).

    Every pass calls this, so it stays a plain global read.
    """
    return _INSTANCE
