"""Gradient-based optimization: Adam.

The paper optimizes ST-TransRec with Adam, searching the learning rate in
``{1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3}``; Adam here follows Kingma & Ba
with bias correction.  All updates are in place on the parameters' flat
store, so every ``Parameter.data`` stays a view of it.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from repro.nn.backend import active_backend as _xp
from repro.nn.module import Parameter
from repro.nn.store import ParameterStore
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


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2015) with bias correction.

    Parameters match the common defaults; ``weight_decay`` applies plain
    L2 coupling (added to the gradient before the moment updates).

    One flat step
    -------------
    The parameters live in one :class:`~repro.nn.store.ParameterStore`
    (:attr:`store`; the model's own when they are a model's, in its
    order), and ``m`` and ``v`` are flat buffers of its layout.  When
    every parameter has a gradient, :meth:`step` gathers them into the
    store's gradient buffer — a gradient already written into its view
    there is not copied — and runs one ``adam_update`` over the whole
    vector, in place on the store's data.  Adam is elementwise, so the
    bits are those of a step per parameter.  A parameter the step did
    not reach keeps ``grad=None``: the others are stepped one slice at
    a time and its moments stay as they were.
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
        self.store = ParameterStore.of(
            (f"param{i}", p) for i, p in enumerate(self.params))
        self._m = np.zeros_like(self.store.data)
        self._v = np.zeros_like(self.store.data)
        self._m_views = self.store.layout.views(self._m)
        self._v_views = self.store.layout.views(self._v)

    def step(self) -> None:
        store = self.store.fresh()
        self._step_count += 1
        t = self._step_count
        bias1 = 1.0 - self.beta1**t
        bias2 = 1.0 - self.beta2**t
        grads = [p.grad for p in self.params]
        if all(g is not None for g in grads):
            for g, view in zip(grads, store.grads):
                if g is not view:
                    view[...] = g
            store.data -= _xp().adam_update(
                self._m, self._v, store.grad, self.lr, self.beta1,
                self.beta2, self.eps, bias1, bias2,
                weight_decay=self.weight_decay, param=store.data)
            return
        for p, g, m, v in zip(self.params, grads, self._m_views,
                              self._v_views):
            if g is None:
                continue
            p.data -= _xp().adam_update(
                m, v, g, self.lr, self.beta1, self.beta2, self.eps,
                bias1, bias2, weight_decay=self.weight_decay, param=p.data)

    def state_dict(self) -> dict:
        """Moment arrays + step count — everything resume needs for
        bit-identical continuation of the update sequence."""
        return {
            "step_count": self._step_count,
            "m": [m.copy() for m in self._m_views],
            "v": [v.copy() for v in self._v_views],
        }

    def load_state_dict(self, state: dict) -> None:
        m = self._check_state_arrays("m", state["m"])
        v = self._check_state_arrays("v", state["v"])
        for own, saved in zip(self._m_views, m):
            own[...] = saved
        for own, saved in zip(self._v_views, v):
            own[...] = saved
        self._step_count = int(state["step_count"])
