"""Parameters and the module container: registration, train/eval mode,
state dict.

Mirrors the familiar torch-style container protocol so the model code in
``repro.core`` reads like the paper's TensorFlow/Keras description:
modules own named parameters and sub-modules, expose ``parameters()`` for
the optimizer, and toggle ``train()``/``eval()`` for dropout.  Modules
compute nothing themselves: the closed-form passes (``TowerPass``,
``InteractionBCE``, ...) read their parameters' arrays.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.nn.store import ParameterStore


class Parameter:
    """A trainable array: ``data``, and the ``grad`` a step leaves for
    the optimizer (``None`` until a step reaches the parameter).

    Once packed, ``data`` is a view of its
    :class:`~repro.nn.store.ParameterStore`'s flat buffer (``_store``).
    """

    def __init__(self, data: np.ndarray) -> None:
        self.data: np.ndarray = data
        self.grad: Optional[np.ndarray] = None
        self._store: Optional[ParameterStore] = None


class Module:
    """Base class for all neural network components.

    Subclasses assign :class:`Parameter` attributes and
    :class:`Module` attributes (sub-modules) in ``__init__``; both are
    discovered automatically by attribute scanning, so there is no
    explicit registration step.
    """

    def __init__(self) -> None:
        self._training = True

    # ------------------------------------------------------------------
    # Discovery
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = ""
                         ) -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` for every parameter."""
        for name, value in vars(self).items():
            if name.startswith("_"):
                continue
            full = f"{prefix}{name}"
            if isinstance(value, Parameter):
                yield full, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{full}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{full}.{i}.")
                    elif isinstance(item, Parameter):
                        yield f"{full}.{i}", item

    def parameters(self) -> list[Parameter]:
        """Return all trainable parameters (for the optimizer)."""
        return [p for _, p in self.named_parameters()]

    def parameter_store(self) -> ParameterStore:
        """The flat buffer every parameter is a view of, packed on first
        use (see :class:`~repro.nn.store.ParameterStore`)."""
        return ParameterStore.of(self.named_parameters())

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
            param.grad = None

    def num_parameters(self) -> int:
        """Total number of scalar trainable parameters."""
        return sum(p.data.size for p in self.parameters())

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
