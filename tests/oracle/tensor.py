"""Reverse-mode automatic differentiation on numpy arrays: the oracle.

The shipped package trains and scores through closed-form numpy passes
(``TowerPass``, ``InteractionBCE``, ``SkipgramBatch``, ``MMDBatch``,
...).  This tape is the reference they are checked against, byte for
byte.  A :class:`Tensor` wraps a ``numpy.ndarray`` and records the
operations applied to it; :meth:`Tensor.backward` walks the recorded
graph in reverse topological order and accumulates gradients into every
*leaf* tensor created with ``requires_grad=True``.  :func:`leaf` makes
a model's :class:`~repro.nn.module.Parameter` such a leaf, so a tape
backward fills the parameter's ``.grad`` for the package's optimizer.

The op set is exactly what the paper's model needs — dense layers,
embedding lookup, elementwise nonlinearities, reductions, concatenation,
and a numerically stable log-sigmoid for the binary cross-entropy and
skipgram losses — plus the usual arithmetic with full numpy broadcasting.

Design notes
------------
* Each differentiable op attaches a ``_backward`` closure to its output
  that maps the output gradient to a tuple of gradients, one per parent,
  in parent order.  ``backward()`` owns all accumulation, so op closures
  stay pure functions of the upstream gradient.
* A closure may return ``None`` for a parent that does not require grad.
  The binary arithmetic ops and ``@`` do, so a constant operand costs no
  gradient arithmetic.  The gradients that are computed are the same
  expressions either way, so they keep their bits.
* Gradients of broadcast operations are un-broadcast by summing over the
  broadcast axes, so shapes always round-trip correctly.
* ``.grad`` is populated on leaf tensors only; interior nodes are
  transient.  Call :meth:`backward` once per graph.
"""

from __future__ import annotations

import weakref
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.nn.backend import active_backend as _xp
from repro.nn.dtypes import coerce, default_dtype
from repro.nn.module import Parameter

ArrayLike = Union[np.ndarray, float, int, Sequence]
BackwardFn = Callable[[np.ndarray], Tuple[Optional[np.ndarray], ...]]


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array with reverse-mode autograd.

    Parameters
    ----------
    data:
        Array data; anything ``np.asarray`` accepts.  Non-floating input
        (ints, bools) is promoted to the policy default dtype — float64
        unless an f32 precision policy is active (see
        :mod:`repro.nn.dtypes`); floating input keeps its dtype.
    requires_grad:
        If True and the tensor is a leaf, :meth:`backward` accumulates a
        gradient into ``.grad``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        _backward: Optional[BackwardFn] = None,
    ) -> None:
        self.data: np.ndarray = coerce(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad)
        self._parents: Tuple[Tensor, ...] = _parents
        self._backward: Optional[BackwardFn] = _backward

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def is_leaf(self) -> bool:
        return self._backward is None

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_flag})"

    def item(self) -> float:
        """Return the scalar value of a single-element tensor."""
        return float(self.data.item())

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a new leaf tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce(value: ArrayLike, dtype=None) -> "Tensor":
        """Wrap ``value`` as a Tensor, following ``dtype`` when given.

        Binary ops pass their tensor operand's dtype: scalars (0-d) and
        non-floating arrays are cast to it, so a python ``2.0`` or an
        integer label array cannot NEP-50-promote an f32 graph to f64.
        Floating *arrays* keep their own dtype — explicitly-typed data
        wins over the operand, exactly as in the seed's f64-only world.
        """
        if isinstance(value, Tensor):
            return value
        arr = np.asarray(value)
        if dtype is not None and arr.dtype != dtype and (
                arr.ndim == 0 or
                not np.issubdtype(arr.dtype, np.floating)):
            arr = arr.astype(dtype)
        return Tensor(arr)

    @staticmethod
    def _child(
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward: BackwardFn,
    ) -> "Tensor":
        if any(p.requires_grad for p in parents):
            return Tensor(data, requires_grad=True, _parents=parents,
                          _backward=backward)
        return Tensor(data)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other, self.data.dtype)
        a, b = self, other

        def backward(grad: np.ndarray):
            return (_unbroadcast(grad, a.shape) if a.requires_grad else None,
                    _unbroadcast(grad, b.shape) if b.requires_grad else None)

        return self._child(a.data + b.data, (a, b), backward)

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(other)

    def __neg__(self) -> "Tensor":
        return self._child(-self.data, (self,), lambda grad: (-grad,))

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other, self.data.dtype)
        a, b = self, other

        def backward(grad: np.ndarray):
            return (_unbroadcast(grad, a.shape) if a.requires_grad else None,
                    _unbroadcast(-grad, b.shape) if b.requires_grad else None)

        return self._child(a.data - b.data, (a, b), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other, self.data.dtype).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other, self.data.dtype)
        a, b = self, other

        def backward(grad: np.ndarray):
            return (
                _unbroadcast(grad * b.data, a.shape)
                if a.requires_grad else None,
                _unbroadcast(grad * a.data, b.shape)
                if b.requires_grad else None,
            )

        return self._child(a.data * b.data, (a, b), backward)

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other, self.data.dtype)
        a, b = self, other

        def backward(grad: np.ndarray):
            return (
                _unbroadcast(grad / b.data, a.shape)
                if a.requires_grad else None,
                _unbroadcast(-grad * a.data / (b.data**2), b.shape)
                if b.requires_grad else None,
            )

        return self._child(a.data / b.data, (a, b), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other, self.data.dtype).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("Tensor.__pow__ supports scalar exponents only")
        a = self

        def backward(grad: np.ndarray):
            return (grad * exponent * a.data ** (exponent - 1),)

        return self._child(self.data**exponent, (self,), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other, self.data.dtype)
        a, b = self, other
        out_data = a.data @ b.data

        def backward(grad: np.ndarray):
            a_arr, b_arr = a.data, b.data
            # Promote to 2-D so one code path covers vec/mat combinations.
            a2 = a_arr if a_arr.ndim >= 2 else a_arr[None, :]
            b2 = b_arr if b_arr.ndim >= 2 else b_arr[:, None]
            g = grad
            if a_arr.ndim == 1:
                g = g[None, ...]
            if b_arr.ndim == 1:
                g = g[..., None]
            grad_a = grad_b = None
            if a.requires_grad:
                grad_a = (g @ b2.swapaxes(-1, -2)).reshape(a_arr.shape)
            if b.requires_grad:
                grad_b = _unbroadcast(a2.swapaxes(-1, -2) @ g,
                                      b2.shape).reshape(b_arr.shape)
            return (grad_a, grad_b)

        return self._child(out_data, (a, b), backward)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = _xp().exp(self.data)
        return self._child(out_data, (self,), lambda grad: (grad * out_data,))

    def log(self) -> "Tensor":
        a = self
        return self._child(_xp().log(self.data), (self,),
                           lambda grad: (grad / a.data,))

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def tanh(self) -> "Tensor":
        out_data = _xp().tanh(self.data)
        return self._child(out_data, (self,),
                           lambda grad: (grad * (1.0 - out_data**2),))

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = _xp().where(mask, self.data, 0.0)
        return self._child(out_data, (self,), lambda grad: (grad * mask,))

    def sigmoid(self) -> "Tensor":
        out_data = _xp().stable_sigmoid(self.data)
        return self._child(
            out_data, (self,),
            lambda grad: (grad * out_data * (1.0 - out_data),),
        )

    def log_sigmoid(self) -> "Tensor":
        """log(sigmoid(x)), computed as -softplus(-x) for stability."""
        out_data = -_xp().softplus(-self.data)
        sig = _xp().stable_sigmoid(self.data)
        return self._child(out_data, (self,), lambda grad: (grad * (1.0 - sig),))

    def clip(self, low: float, high: float) -> "Tensor":
        mask = (self.data >= low) & (self.data <= high)
        return self._child(_xp().clip(self.data, low, high), (self,),
                           lambda grad: (grad * mask,))

    def abs(self) -> "Tensor":
        sign = _xp().sign(self.data)
        return self._child(_xp().abs(self.data), (self,),
                           lambda grad: (grad * sign,))

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None,
            keepdims: bool = False) -> "Tensor":
        a = self
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray):
            xp = _xp()
            g = xp.asarray(grad)
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                for ax in sorted(x % a.ndim for x in axes):
                    g = xp.expand_dims(g, ax)
            return (xp.broadcast_to(g, a.shape).copy(),)

        return self._child(out_data, (self,), backward)

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None,
             keepdims: bool = False) -> "Tensor":
        if axis is None:
            denom = self.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            denom = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / denom)

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        a = self
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray):
            xp = _xp()
            g = xp.asarray(grad)
            full = a.data.max(axis=axis, keepdims=True)
            mask = (a.data == full).astype(a.data.dtype)
            mask /= mask.sum(axis=axis, keepdims=True)
            if axis is not None and not keepdims:
                g = xp.expand_dims(g, axis)
            return (mask * g,)

        return self._child(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Shape manipulation and indexing
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        return self._child(self.data.reshape(shape), (self,),
                           lambda grad: (grad.reshape(a.shape),))

    def flatten(self) -> "Tensor":
        return self.reshape(-1)

    def transpose(self, *axes: int) -> "Tensor":
        perm = axes or None
        out_data = self.data.transpose(perm)
        inverse = None if perm is None else tuple(np.argsort(perm))
        return self._child(out_data, (self,),
                           lambda grad: (grad.transpose(inverse),))

    def __getitem__(self, index) -> "Tensor":
        a = self
        out_data = self.data[index]

        def backward(grad: np.ndarray):
            xp = _xp()
            full = xp.zeros_like(a.data)
            xp.add_at(full, index, grad)
            return (full,)

        return self._child(out_data, (self,), backward)

    def gather_rows(self, indices: ArrayLike) -> "Tensor":
        """Select rows ``indices`` (embedding lookup) with scatter-add grad."""
        idx = _xp().asarray(indices)
        a = self
        out_data = _xp().take(self.data, idx, axis=0)

        def backward(grad: np.ndarray):
            return (_xp().scatter_rows(idx, grad, a.data.shape[0]),)

        return self._child(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        ``grad`` defaults to 1 for scalar outputs; non-scalar outputs
        require an explicit seed gradient of matching shape.  After the
        call, every reachable leaf tensor with ``requires_grad=True`` has
        its ``.grad`` populated (accumulated across calls until
        :meth:`zero_grad`).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.size != 1:
                raise RuntimeError(
                    "backward() without an explicit gradient requires a scalar output"
                )
            seed = _xp().ones_like(self.data)
        else:
            seed = _xp().asarray(grad, dtype=self.data.dtype)
            if seed.shape != self.shape:
                seed = _xp().broadcast_to(seed, self.shape).copy()

        order = _topological_order(self)
        grads: dict[int, np.ndarray] = {id(self): seed}
        for node in order:
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node._backward is None:
                if node.requires_grad:
                    if node.grad is None:
                        node.grad = node_grad.copy()
                    else:
                        node.grad = node.grad + node_grad
                continue
            parent_grads = node._backward(node_grad)
            for parent, pg in zip(node._parents, parent_grads):
                if pg is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = _xp().asarray(pg)

    # Convenience constructors -----------------------------------------
    @staticmethod
    def zeros(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(_xp().zeros(shape, dtype=default_dtype()),
                      requires_grad=requires_grad)

    @staticmethod
    def ones(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(_xp().ones(shape, dtype=default_dtype()),
                      requires_grad=requires_grad)


def _topological_order(root: Tensor) -> list[Tensor]:
    """Return nodes reachable from ``root`` in reverse-execution order.

    Iterative post-order DFS (no recursion, so deep towers are safe),
    reversed so consumers precede producers.
    """
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    order.reverse()
    return order



class _Leaf(Tensor):
    """A :class:`~repro.nn.module.Parameter` as a tape leaf: its data is
    the parameter's, and backward accumulates into the parameter's
    ``.grad``."""

    def __init__(self, param: Parameter) -> None:
        self._param = param
        self.requires_grad = True
        self._parents = ()
        self._backward = None

    @property
    def data(self) -> np.ndarray:
        return self._param.data

    @property
    def grad(self) -> Optional[np.ndarray]:
        return self._param.grad

    @grad.setter
    def grad(self, value: Optional[np.ndarray]) -> None:
        self._param.grad = value


_LEAVES: "weakref.WeakKeyDictionary[Parameter, _Leaf]" = \
    weakref.WeakKeyDictionary()


def leaf(param: Parameter) -> Tensor:
    """The one tape leaf of ``param``.

    Every lookup of a parameter in a graph is the same node, so the
    tape sums its contributions in topological order before adding them
    to ``.grad``, as it does for a leaf tensor.
    """
    node = _LEAVES.get(param)
    if node is None:
        node = _LEAVES[param] = _Leaf(param)
    return node
