"""Gradient-based optimizers: SGD and Adam.

The paper optimizes ST-TransRec with Adam, searching the learning rate in
``{1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3}``; Adam here follows Kingma & Ba
with bias correction.  All updates are in-place on parameter ``.data`` so
the tensors registered with modules keep their identity.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from repro.nn.backend import active_backend as _xp
from repro.nn.sparse import SparseRowGrad
from repro.nn.tensor import Tensor
from repro.utils.validation import check_non_negative, check_positive


class Optimizer:
    """Base optimizer over a fixed parameter list."""

    def __init__(self, params: Iterable[Tensor]) -> None:
        self.params: List[Tensor] = list(params)
        if not self.params:
            raise ValueError("optimizer needs at least one parameter")
        for p in self.params:
            if not p.requires_grad:
                raise ValueError("all optimized tensors must require grad")

    def zero_grad(self) -> None:
        """Clear gradients on all registered parameters."""
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    def state_dict(self) -> dict:
        """Snapshot of the optimizer's mutable state (copied arrays)."""
        return {}

    def load_state_dict(self, state: dict) -> None:
        """Restore state produced by :meth:`state_dict` in place."""
        if state:
            raise ValueError(f"unexpected optimizer state keys: "
                             f"{sorted(state)}")

    def _check_state_arrays(self, label: str, arrays) -> list:
        """Validate a per-parameter array list against the param shapes."""
        arrays = list(arrays)
        if len(arrays) != len(self.params):
            raise ValueError(
                f"{label}: expected {len(self.params)} arrays, "
                f"got {len(arrays)}")
        for i, (p, a) in enumerate(zip(self.params, arrays)):
            if np.shape(a) != p.data.shape:
                raise ValueError(
                    f"{label}[{i}]: shape {np.shape(a)} does not match "
                    f"parameter shape {p.data.shape}")
        return arrays


def _flat_zeros(params: List[Tensor]):
    """``(flat, views)``: one zero buffer and a per-parameter view of it.

    Parameters of mixed dtypes get separate arrays and ``flat=None``.
    """
    dtypes = {p.data.dtype for p in params}
    if len(dtypes) != 1:
        return None, [np.zeros_like(p.data) for p in params]
    flat = np.zeros(sum(p.data.size for p in params), dtype=dtypes.pop())
    views, start = [], 0
    for p in params:
        views.append(flat[start:start + p.data.size].reshape(p.data.shape))
        start += p.data.size
    return flat, views


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(self, params: Iterable[Tensor], lr: float = 0.01,
                 momentum: float = 0.0, weight_decay: float = 0.0) -> None:
        super().__init__(params)
        check_positive("lr", lr)
        check_non_negative("momentum", momentum)
        check_non_negative("weight_decay", weight_decay)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for p, vel in zip(self.params, self._velocity):
            if p.grad is None:
                continue
            grad = p.grad
            if isinstance(grad, SparseRowGrad):
                if self.momentum == 0.0 and self.weight_decay == 0.0:
                    # Plain SGD only reads the touched rows; untouched
                    # rows subtract an exact 0.0 in the dense path, i.e.
                    # they do not change bitwise.  Coalescing first sums
                    # duplicate ids in np.add.at order, so the per-row
                    # update is the same float the dense path computes.
                    g = grad.coalesce()
                    p.data[g.ids] -= self.lr * g.rows
                    continue
                # Momentum velocity / weight decay touch every row —
                # densify and fall through to the reference arithmetic.
                grad = grad.to_dense()
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self.momentum:
                vel *= self.momentum
                vel += grad
                update = vel
            else:
                update = grad
            p.data -= self.lr * update

    def state_dict(self) -> dict:
        return {"velocity": [v.copy() for v in self._velocity]}

    def load_state_dict(self, state: dict) -> None:
        velocity = self._check_state_arrays("velocity", state["velocity"])
        for own, saved in zip(self._velocity, velocity):
            own[...] = saved


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2015) with bias correction.

    Parameters match the common defaults; ``weight_decay`` applies plain
    L2 coupling (added to the gradient before the moment updates).

    Sparse gradients
    ----------------
    Parameters may receive a :class:`~repro.nn.sparse.SparseRowGrad`
    (embedding tables with ``sparse_grad=True``).  ``sparse_mode``
    selects how those are applied:

    * ``"exact"`` (default) — run the dense recurrence on the *ever
      active* rows only: rows whose moments are still exactly zero and
      that receive no gradient this step would be updated by exactly
      ``0.0`` in the dense path, so skipping them changes nothing
      bitwise.  With ``weight_decay > 0`` every row's gradient becomes
      nonzero, so the gradient is densified and the reference path
      runs — still bit-identical, just without the speedup.
    * ``"lazy"`` — TensorFlow LazyAdam semantics: moment decay and the
      update are applied to the *currently touched* rows only.  Faster
      once most rows have warm moments, but a documented approximation
      (untouched rows keep stale moments instead of decaying).
    * ``"dense"`` — always densify; the pre-sparse behavior.

    Fused step
    ----------
    ``m`` and ``v`` are per-parameter views of one flat buffer each, in
    parameter order.  When every gradient is a dense view of one flat
    vector in that same order — the data-parallel master averages its
    replicas into exactly that — :meth:`step` runs a single
    ``adam_update`` over the whole vector instead of one per parameter.
    Adam is elementwise, so the bits are those of the per-parameter
    step; in the ``"exact"`` mode the dense recurrence leaves never-active
    rows bit-identical too (their update is exactly ``0.0``).
    """

    def __init__(self, params: Iterable[Tensor], lr: float = 1e-3,
                 betas: tuple = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0,
                 sparse_mode: str = "exact") -> None:
        super().__init__(params)
        check_positive("lr", lr)
        beta1, beta2 = betas
        if not (0 <= beta1 < 1 and 0 <= beta2 < 1):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        check_positive("eps", eps)
        check_non_negative("weight_decay", weight_decay)
        if sparse_mode not in ("dense", "exact", "lazy"):
            raise ValueError(
                f"sparse_mode must be 'dense', 'exact' or 'lazy', "
                f"got {sparse_mode!r}")
        self.lr = lr
        self.beta1, self.beta2 = beta1, beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.sparse_mode = sparse_mode
        self._step_count = 0
        self._m_flat, self._m = _flat_zeros(self.params)
        self._v_flat, self._v = _flat_zeros(self.params)
        # Per-parameter boolean mask over axis-0 rows whose moments may
        # be nonzero ("ever active"); built lazily from the moments the
        # first time a sparse gradient arrives, so it survives
        # load_state_dict (which just resets it to None).
        self._active_rows: List[Optional[np.ndarray]] = \
            [None] * len(self.params)

    def step(self) -> None:
        self._step_count += 1
        t = self._step_count
        bias1 = 1.0 - self.beta1**t
        bias2 = 1.0 - self.beta2**t
        flat = self._tiled_grad()
        if flat is not None:
            self._step_fused(flat, bias1, bias2)
            return
        for i, (p, m, v) in enumerate(zip(self.params, self._m, self._v)):
            if p.grad is None:
                continue
            grad = p.grad
            if isinstance(grad, SparseRowGrad):
                if self.sparse_mode != "dense" and not self.weight_decay:
                    if self.sparse_mode == "exact":
                        self._step_sparse_exact(i, p, m, v, grad,
                                                bias1, bias2)
                    else:
                        self._step_sparse_lazy(p, m, v, grad, bias1, bias2)
                    continue
                grad = grad.to_dense()
            # The dense recurrence may light up any row's moments, so a
            # previously derived active-row mask would go stale.
            self._active_rows[i] = None
            p.data -= _xp().adam_update(
                m, v, grad, self.lr, self.beta1, self.beta2, self.eps,
                bias1, bias2, weight_decay=self.weight_decay, param=p.data)

    def _tiled_grad(self) -> Optional[np.ndarray]:
        """The flat vector the gradients are views of, if they tile one.

        Each ``p.grad`` must be a contiguous view of the same 1-D array,
        in parameter order, laid out exactly like the moment buffers.
        """
        flat = getattr(self.params[0].grad, "base", None)
        if self._m_flat is None or not isinstance(flat, np.ndarray) \
                or flat.shape != self._m_flat.shape \
                or flat.dtype != self._m_flat.dtype:
            return None
        address = flat.__array_interface__["data"][0]
        for p in self.params:
            g = p.grad
            if not isinstance(g, np.ndarray) or g.base is not flat \
                    or g.shape != p.data.shape \
                    or not g.flags.c_contiguous \
                    or g.__array_interface__["data"][0] != address:
                return None
            address += g.nbytes
        return flat

    def _step_fused(self, flat: np.ndarray, bias1: float,
                    bias2: float) -> None:
        """One ``adam_update`` over the whole tiled gradient vector."""
        param = None
        if self.weight_decay:
            param = np.concatenate([p.data.reshape(-1)
                                    for p in self.params])
        update = _xp().adam_update(
            self._m_flat, self._v_flat, flat, self.lr, self.beta1,
            self.beta2, self.eps, bias1, bias2,
            weight_decay=self.weight_decay, param=param)
        start = 0
        for p in self.params:
            p.data -= update[start:start + p.data.size].reshape(p.data.shape)
            start += p.data.size
        self._active_rows = [None] * len(self.params)

    def _step_sparse_exact(self, i: int, p: Tensor, m: np.ndarray,
                           v: np.ndarray, grad: SparseRowGrad,
                           bias1: float, bias2: float) -> None:
        """Dense Adam arithmetic restricted to the ever-active rows.

        A row with ``m == v == 0`` and zero gradient gets
        ``m_hat = v_hat = 0`` and an update of exactly
        ``lr * 0 / (sqrt(0) + eps) == 0.0`` in the dense path —
        subtracting that is a bitwise no-op, so only rows that ever
        accumulated a moment (or are touched now) need the recurrence.
        """
        active = self._active_rows[i]
        if active is None:
            tail = tuple(range(1, m.ndim))
            active = np.any(m != 0, axis=tail) | np.any(v != 0, axis=tail)
            self._active_rows[i] = active
        xp = _xp()
        g = grad.coalesce()
        active[g.ids] = True
        rows_idx = xp.flatnonzero(active)
        grad_rows = xp.zeros((rows_idx.size,) + g.shape[1:],
                             dtype=g.rows.dtype if g.rows.size else m.dtype)
        grad_rows[xp.searchsorted(rows_idx, g.ids)] = g.rows
        mr = m[rows_idx]
        vr = v[rows_idx]
        p.data[rows_idx] -= xp.adam_update(
            mr, vr, grad_rows, self.lr, self.beta1, self.beta2, self.eps,
            bias1, bias2)
        m[rows_idx] = mr
        v[rows_idx] = vr

    def _step_sparse_lazy(self, p: Tensor, m: np.ndarray, v: np.ndarray,
                          grad: SparseRowGrad,
                          bias1: float, bias2: float) -> None:
        """LazyAdam: decay and update only the rows touched this step."""
        g = grad.coalesce()
        ids = g.ids
        mr = m[ids]
        vr = v[ids]
        p.data[ids] -= _xp().adam_update(
            mr, vr, g.rows, self.lr, self.beta1, self.beta2, self.eps,
            bias1, bias2)
        m[ids] = mr
        v[ids] = vr

    def state_dict(self) -> dict:
        """Moment arrays + step count — everything resume needs for
        bit-identical continuation of the update sequence."""
        return {
            "step_count": self._step_count,
            "m": [m.copy() for m in self._m],
            "v": [v.copy() for v in self._v],
        }

    def load_state_dict(self, state: dict) -> None:
        m = self._check_state_arrays("m", state["m"])
        v = self._check_state_arrays("v", state["v"])
        for own, saved in zip(self._m, m):
            own[...] = saved
        for own, saved in zip(self._v, v):
            own[...] = saved
        self._step_count = int(state["step_count"])
        # Rebuild lazily from the restored moments on next sparse step.
        self._active_rows = [None] * len(self.params)
