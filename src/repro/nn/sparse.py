"""Sparse row gradients for embedding tables.

An embedding lookup touches a handful of rows per batch, yet the seed
``gather_rows`` backward materialized a dense ``num_embeddings × dim``
zero array per step — on the training hot path that dense scatter (and
everything downstream: guards, inter-process transport, optimizer
moment updates) dominated wall time for any realistically-sized table.
:class:`SparseRowGrad` replaces the dense array with the pair
``(ids, rows)``: the row indices a batch touched and their gradient
rows.  Everything that consumes gradients — the autograd accumulator,
:class:`~repro.nn.optim.Adam` / :class:`~repro.nn.optim.SGD`, the
gradient guard, and the shared-memory transport — understands both
representations.

Bit-exactness contract
----------------------
The sparse representation is an *encoding*, not an approximation:

* :meth:`SparseRowGrad.coalesce` sums duplicate ids in first-occurrence
  order, which is exactly the accumulation order of
  ``np.add.at(dense, ids, rows)`` — so ``coalesce().to_dense()`` is
  bit-identical to the dense scatter-add the seed performed;
* :meth:`SparseRowGrad.to_dense` runs the backend's ``scatter_rows``,
  the kernel the dense ``gather_rows`` backward runs, so the
  data-parallel worker writes the same bytes into its flat gradient
  slot whichever encoding its backward produced;
* the optimizers' sparse paths apply the same elementwise expressions
  the dense paths use, restricted to rows whose update can be nonzero.

These three properties are what make the ``repro.perf`` hot-path
switchable with no numeric consequence — verified bitwise in
``tests/test_nn_sparse.py`` and ``tests/test_perf_transport.py``.
"""

from __future__ import annotations

from typing import Sequence, Tuple, Union

import numpy as np

from repro.nn.backend import active_backend as _xp

__all__ = ["SparseRowGrad", "grad_values"]


class SparseRowGrad:
    """Gradient of a 2-D (or N-D) table where only some rows are nonzero.

    Parameters
    ----------
    shape:
        Full dense shape of the parameter the gradient belongs to.
    ids:
        Row indices along axis 0, any shape (flattened); duplicates
        allowed (they accumulate, like ``np.add.at``).
    rows:
        Gradient rows, reshaped to ``(len(ids),) + shape[1:]``.
    """

    # Keep numpy from absorbing us into object arrays: binary ufuncs on
    # ndarray return NotImplemented and defer to our __radd__/__rmul__.
    __array_ufunc__ = None
    __slots__ = ("shape", "ids", "rows")

    def __init__(self, shape: Sequence[int], ids, rows) -> None:
        self.shape: Tuple[int, ...] = tuple(int(s) for s in shape)
        ids = np.asarray(ids, dtype=np.int64).reshape(-1)
        rows = np.asarray(rows)
        self.ids = ids
        self.rows = rows.reshape((ids.size,) + self.shape[1:])

    # -- pickling (slots classes need explicit state) -------------------
    def __getstate__(self):
        return (self.shape, self.ids, self.rows)

    def __setstate__(self, state) -> None:
        self.shape, self.ids, self.rows = state

    # ------------------------------------------------------------------
    @property
    def nnz_rows(self) -> int:
        return int(self.ids.size)

    @property
    def nbytes(self) -> int:
        return int(self.ids.nbytes + self.rows.nbytes)

    @property
    def dtype(self) -> np.dtype:
        return self.rows.dtype

    def __repr__(self) -> str:
        return (f"SparseRowGrad(shape={self.shape}, "
                f"nnz_rows={self.nnz_rows})")

    def copy(self) -> "SparseRowGrad":
        return SparseRowGrad(self.shape, self.ids.copy(), self.rows.copy())

    def all_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.rows)))

    # ------------------------------------------------------------------
    def coalesce(self) -> "SparseRowGrad":
        """Sum duplicate ids; result has sorted unique ids.

        Per output row the contributions are added in first-occurrence
        order — the accumulation order of ``np.add.at`` — through the
        backend's ``coalesce_rows`` kernel.  Its dense image is
        bit-identical to a direct dense scatter.
        """
        if self.ids.size == 0:
            return self
        if self.ids.size == 1 or np.all(self.ids[1:] > self.ids[:-1]):
            return self                 # already coalesced and sorted
        unique, rows = _xp().coalesce_rows(self.ids, self.rows)
        return SparseRowGrad(self.shape, unique, rows)

    def to_dense(self) -> np.ndarray:
        """Materialize the dense gradient (the seed representation)."""
        return _xp().scatter_rows(self.ids, self.rows, self.shape[0])

    # ------------------------------------------------------------------
    # Arithmetic used by the autograd accumulator
    # ------------------------------------------------------------------
    def __add__(self, other) -> Union["SparseRowGrad", np.ndarray]:
        if isinstance(other, SparseRowGrad):
            if other.shape != self.shape:
                raise ValueError(
                    f"shape mismatch: {self.shape} vs {other.shape}")
            return SparseRowGrad(
                self.shape,
                np.concatenate([self.ids, other.ids]),
                np.concatenate([self.rows, other.rows]),
            )
        # Mixed with a dense gradient: mirror the dense accumulation
        # (`to_dense() + other`) exactly rather than scatter-adding into
        # a copy, so mixed paths round identically to all-dense ones.
        return self.to_dense() + np.asarray(other)

    def __radd__(self, other) -> np.ndarray:
        return np.asarray(other) + self.to_dense()

    def __neg__(self) -> "SparseRowGrad":
        return SparseRowGrad(self.shape, self.ids, -self.rows)

    def __mul__(self, factor) -> "SparseRowGrad":
        if not isinstance(factor, (int, float, np.floating)):
            return NotImplemented
        return SparseRowGrad(self.shape, self.ids, self.rows * factor)

    __rmul__ = __mul__


def grad_values(grad) -> np.ndarray:
    """The numeric payload of a gradient in either representation."""
    return grad.rows if isinstance(grad, SparseRowGrad) else grad
