"""Module base class: parameter registration, train/eval mode, state dict.

Mirrors the familiar torch-style container protocol so the model code in
``repro.core`` reads like the paper's TensorFlow/Keras description:
modules own named parameters and sub-modules, expose ``parameters()`` for
the optimizer, and toggle ``train()``/``eval()`` for dropout.

``trainable_only(*keep)`` scopes a freeze: inside it every parameter
but ``keep`` has ``requires_grad=False``, so forward passes build no
graph for the frozen ones and ``backward`` computes no gradient for
them.  The frozen parameters stay parameters: discovery, ``state_dict``
and ``load_state_dict`` list them throughout.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, FrozenSet, Iterator, Tuple

import numpy as np

from repro.nn.tensor import Tensor


class Module:
    """Base class for all neural network components.

    Subclasses assign :class:`Tensor` attributes (parameters) and
    :class:`Module` attributes (sub-modules) in ``__init__``; both are
    discovered automatically by attribute scanning, so there is no
    explicit registration step.
    """

    #: ids of this module's parameters frozen by an active
    #: :meth:`trainable_only` scope (a class-level empty default).
    _frozen_ids: FrozenSet[int] = frozenset()

    def __init__(self) -> None:
        self._training = True

    # ------------------------------------------------------------------
    # Discovery
    # ------------------------------------------------------------------
    def _is_parameter(self, value) -> bool:
        return isinstance(value, Tensor) and (
            value.requires_grad or id(value) in self._frozen_ids)

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Tensor]]:
        """Yield ``(dotted_name, tensor)`` for every parameter.

        A parameter is a tensor attribute with ``requires_grad=True``, or
        one that :meth:`trainable_only` has frozen for the moment.
        """
        for name, value in vars(self).items():
            if name.startswith("_"):
                continue
            full = f"{prefix}{name}"
            if self._is_parameter(value):
                yield full, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{full}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{full}.{i}.")
                    elif self._is_parameter(item):
                        yield f"{full}.{i}", item

    def parameters(self) -> list[Tensor]:
        """Return all trainable parameters (for the optimizer)."""
        return [p for _, p in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all sub-modules, depth-first."""
        yield self
        for name, value in vars(self).items():
            if name.startswith("_"):
                continue
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()

    # ------------------------------------------------------------------
    # Mode
    # ------------------------------------------------------------------
    @property
    def training(self) -> bool:
        return self._training

    def train(self) -> "Module":
        """Switch this module and all children into training mode."""
        for module in self.modules():
            module._training = True
        return self

    def eval(self) -> "Module":
        """Switch this module and all children into evaluation mode."""
        for module in self.modules():
            module._training = False
        return self

    # ------------------------------------------------------------------
    # Gradient bookkeeping
    # ------------------------------------------------------------------
    @contextmanager
    def trainable_only(self, *keep: Tensor) -> Iterator[None]:
        """Freeze every parameter except ``keep`` for the ``with`` block.

        Frozen parameters get ``requires_grad=False``: lookups and ops
        on them build no graph nodes, and ``backward`` computes no
        gradient for them.  Each module records its frozen parameters
        *before* the flags drop and forgets them only *after* the flags
        are restored, so ``named_parameters``/``state_dict`` never see
        a partial model, even from another thread.  The previous state
        is restored in ``finally``; nested scopes only narrow the
        trainable set.
        """
        keep_ids = {id(t) for t in keep}
        frozen = [p for p in self.parameters()
                  if p.requires_grad and id(p) not in keep_ids]
        frozen_ids = frozenset(id(p) for p in frozen)
        modules = list(self.modules())
        previous = [m._frozen_ids for m in modules]
        for module, before in zip(modules, previous):
            module._frozen_ids = before | frozen_ids
        try:
            for param in frozen:
                param.requires_grad = False
            yield
        finally:
            for param in frozen:
                param.requires_grad = True
            for module, before in zip(modules, previous):
                module._frozen_ids = before

    def zero_grad(self) -> None:
        """Clear gradients on all parameters."""
        for param in self.parameters():
            param.zero_grad()

    def num_parameters(self) -> int:
        """Total number of scalar trainable parameters."""
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Snapshot of all parameter values (copied)."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameter values in place; shapes must match exactly."""
        params = dict(self.named_parameters())
        missing = set(params) - set(state)
        unexpected = set(state) - set(params)
        if missing or unexpected:
            raise KeyError(
                f"state mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, value in state.items():
            target = params[name]
            if target.data.shape != value.shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"expected {target.data.shape}, got {value.shape}"
                )
            target.data[...] = value

    # Subclasses implement forward; __call__ dispatches to it.
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)
