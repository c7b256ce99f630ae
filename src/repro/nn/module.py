"""Module base class: parameter registration, train/eval mode, state dict.

Mirrors the familiar torch-style container protocol so the model code in
``repro.core`` reads like the paper's TensorFlow/Keras description:
modules own named parameters and sub-modules, expose ``parameters()`` for
the optimizer, and toggle ``train()``/``eval()`` for dropout.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

import numpy as np

from repro.nn.tensor import Tensor


class Module:
    """Base class for all neural network components.

    Subclasses assign :class:`Tensor` attributes (parameters) and
    :class:`Module` attributes (sub-modules) in ``__init__``; both are
    discovered automatically by attribute scanning, so there is no
    explicit registration step.
    """

    def __init__(self) -> None:
        self._training = True

    # ------------------------------------------------------------------
    # Discovery
    # ------------------------------------------------------------------
    def _is_parameter(self, value) -> bool:
        return isinstance(value, Tensor) and value.requires_grad

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Tensor]]:
        """Yield ``(dotted_name, tensor)`` for every parameter.

        A parameter is a tensor attribute with ``requires_grad=True``.
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
