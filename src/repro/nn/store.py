"""One flat buffer per model: the parameter store and its layout.

:class:`ParameterStore` packs a model's parameters once, in parameter
order, into one vector that every ``Parameter.data`` is a view of, with
a gradient buffer alike: Adam steps it whole, the joint trainer writes
its gradients into it and the data-parallel exchange moves it as one
vector.  :class:`GradientLayout` says where each parameter sits; the
serving fleet's mixed-dtype block (:mod:`repro.fleet.params`) reuses it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class ParamSlot:
    """Where one parameter sits in a flat vector (or a shared block)."""

    name: str
    shape: Tuple[int, ...]
    dtype: str
    offset: int                 # bytes from the start of the block
    size: int                   # elements

    @property
    def nbytes(self) -> int:
        return self.size * np.dtype(self.dtype).itemsize

    @property
    def start(self) -> int:
        """First element of this parameter in a flat vector."""
        return self.offset // np.dtype(self.dtype).itemsize

    def view(self, flat: np.ndarray) -> np.ndarray:
        """This parameter's part of a flat vector, in its own shape."""
        return flat[self.start:self.start + self.size].reshape(self.shape)


@dataclass(frozen=True)
class GradientLayout:
    """Every parameter, in order, densely packed: byte offsets only.

    Pickled to every data-parallel worker and serving shard at spawn,
    together with the names of the shared blocks it describes, so
    attaching is a pure ``numpy.frombuffer`` view construction.
    """

    slots: Tuple[ParamSlot, ...]
    nbytes: int
    params_name: str = ""
    grad_names: Tuple[str, ...] = ()

    @staticmethod
    def build(param_specs: Sequence[Tuple[str, Tuple[int, ...], str]]
              ) -> "GradientLayout":
        slots: List[ParamSlot] = []
        offset = 0
        for name, shape, dtype in param_specs:
            size = int(np.prod(shape, dtype=np.int64))
            slots.append(ParamSlot(name, tuple(shape), str(np.dtype(dtype)),
                                   offset, size))
            offset += slots[-1].nbytes
        return GradientLayout(slots=tuple(slots), nbytes=offset)

    def with_names(self, params_name: str,
                   grad_names: Sequence[str]) -> "GradientLayout":
        return GradientLayout(self.slots, self.nbytes,
                              params_name, tuple(grad_names))

    @functools.cached_property
    def dtype(self) -> np.dtype:
        """The one dtype of a flat vector."""
        dtypes = {slot.dtype for slot in self.slots}
        if len(dtypes) != 1:
            raise ValueError(
                f"a flat gradient vector needs one dtype, got "
                f"{sorted(dtypes)}")
        return np.dtype(dtypes.pop())

    @functools.cached_property
    def size(self) -> int:
        """Elements of a flat vector."""
        return sum(slot.size for slot in self.slots)

    def vector(self, buf) -> np.ndarray:
        """The flat vector a buffer (a shared block) holds, zero-copy."""
        return np.frombuffer(buf, dtype=self.dtype, count=self.size)

    def views(self, flat: np.ndarray) -> List[np.ndarray]:
        """Every parameter's part of ``flat``, in order."""
        return [slot.view(flat) for slot in self.slots]

    def nonfinite_names(self, flat: np.ndarray) -> List[str]:
        """Names of the parameters whose part of ``flat`` is not finite."""
        return [slot.name for slot in self.slots
                if not np.isfinite(slot.view(flat)).all()]


class ParameterStore:
    """A model's parameters as views of one flat buffer of one dtype.

    ``data`` holds every parameter in :attr:`layout` order and each
    ``Parameter.data`` is a view of it; ``grad`` is a gradient buffer of
    the same layout, ``grads`` its per-parameter views.  Use
    :meth:`of` rather than the constructor: a second optimizer over the
    same parameters must share the store, not pack them again under the
    first.

    A deep copy or an unpickled copy of a model holds parameters that
    are private arrays, no longer views; so does a parameter whose
    ``data`` was rebound.  :meth:`fresh` notices and packs the current
    values into new buffers (same layout, so moments kept in it stay
    valid) before anything steps them: read ``data``, ``grad`` and
    ``grads`` after :meth:`fresh`, not before.
    """

    def __init__(self, named: Iterable[Tuple[str, "Parameter"]]) -> None:
        named = list(named)
        dtypes = {p.data.dtype for _, p in named}
        if len(dtypes) != 1:
            raise ValueError(
                "parameters of one store need one dtype, got "
                + ", ".join(f"{name}: {p.data.dtype}" for name, p in named))
        self.params = [p for _, p in named]
        self.layout = GradientLayout.build(
            [(name, p.data.shape, p.data.dtype) for name, p in named])
        self._pack()

    @classmethod
    def of(cls, named: Iterable[Tuple[str, "Parameter"]]
           ) -> "ParameterStore":
        """The store these parameters, in this order, already live in;
        a fresh one when they live in none (or in another order)."""
        named = list(named)
        store = getattr(named[0][1], "_store", None) if named else None
        if store is None or len(store.params) != len(named) or any(
                p is not q for (_, p), q in zip(named, store.params)):
            return cls(named)
        return store.fresh()

    def fresh(self) -> "ParameterStore":
        """This store, packed again first if a parameter is no longer a
        view of :attr:`data`."""
        for p, view in zip(self.params, self._views):
            if p.data is not view or view.base is not self.data:
                self._pack()
                break
        return self

    def _pack(self) -> None:
        self.data = np.empty(self.layout.size, dtype=self.layout.dtype)
        self._views = self.layout.views(self.data)
        self.grad = np.zeros(self.layout.size, dtype=self.layout.dtype)
        self.grads = self.layout.views(self.grad)
        for p, slot, view in zip(self.params, self.layout.slots,
                                 self._views):
            if p.data.shape != view.shape or p.data.dtype != view.dtype:
                raise ValueError(
                    f"parameter {slot.name} is now {p.data.dtype}"
                    f"{p.data.shape}, its store holds {view.dtype}"
                    f"{view.shape}")
            view[...] = p.data
            p.data = view
            p._store = self
