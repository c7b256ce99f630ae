"""Gradient-based optimization: Adam.

The paper optimizes ST-TransRec with Adam, searching the learning rate in
``{1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3}``; Adam here follows Kingma & Ba
with bias correction.  All updates are in-place on parameter ``.data`` so
the arrays registered with modules keep their identity.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from repro.nn.backend import active_backend as _xp
from repro.nn.module import Parameter
from repro.utils.validation import check_non_negative, check_positive


class Optimizer:
    """Base optimizer over a fixed parameter list."""

    def __init__(self, params: Iterable[Parameter]) -> None:
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer needs at least one parameter")

    def zero_grad(self) -> None:
        """Clear gradients on all registered parameters."""
        for p in self.params:
            p.grad = None

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


def _flat_zeros(params: List[Parameter]):
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


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2015) with bias correction.

    Parameters match the common defaults; ``weight_decay`` applies plain
    L2 coupling (added to the gradient before the moment updates).

    Fused step
    ----------
    ``m`` and ``v`` are per-parameter views of one flat buffer each, in
    parameter order.  When every gradient is a dense view of one flat
    vector in that same order — the data-parallel master averages its
    replicas into exactly that — :meth:`step` runs a single
    ``adam_update`` over the whole vector instead of one per parameter.
    Adam is elementwise, so the bits are those of the per-parameter
    step.
    """

    def __init__(self, params: Iterable[Parameter], lr: float = 1e-3,
                 betas: tuple = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0) -> None:
        super().__init__(params)
        check_positive("lr", lr)
        beta1, beta2 = betas
        if not (0 <= beta1 < 1 and 0 <= beta2 < 1):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        check_positive("eps", eps)
        check_non_negative("weight_decay", weight_decay)
        self.lr = lr
        self.beta1, self.beta2 = beta1, beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m_flat, self._m = _flat_zeros(self.params)
        self._v_flat, self._v = _flat_zeros(self.params)

    def step(self) -> None:
        self._step_count += 1
        t = self._step_count
        bias1 = 1.0 - self.beta1**t
        bias2 = 1.0 - self.beta2**t
        flat = self._tiled_grad()
        if flat is not None:
            self._step_fused(flat, bias1, bias2)
            return
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            p.data -= _xp().adam_update(
                m, v, p.grad, self.lr, self.beta1, self.beta2, self.eps,
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
