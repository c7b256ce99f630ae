"""Pluggable array backend for the ``repro.nn`` stack.

Every array operation the autograd layer performs now routes through a
single namespace object — ``xp`` in Array-API parlance — obtained from
:func:`active_backend`.  The namespace covers the standard surface the
codebase uses (elementwise math, reductions, ``matmul``, shape
manipulation, sorting/searching) plus the handful of non-standard ops a
recommender hot path needs: scatter-add (``add_at``, and
``scatter_rows`` into a fresh zero table), row gather
(``take``), ``searchsorted``, and RNG draws.  The floating-point
promotion policy of :mod:`repro.nn.dtypes` is folded in as
:meth:`ArrayBackend.coerce`, so "which array library" and "which float
width" are selected through one mechanism.

Two backends ship built in:

* ``"reference"`` (:class:`ArrayBackend`) — plain numpy, bit-for-bit
  the pre-backend behavior.  Every method is either a numpy function
  or the exact arithmetic the seed performed.  The golden-output suite
  in ``tests/test_nn_backend.py`` pins this bitwise, f64 and f32.
* ``"optimized"`` (:class:`OptimizedBackend`) — same semantics, faster
  on the measured hot path: the Adam recurrence runs as a fused
  ``out=`` chain over preallocated scratch buffers (zero temporaries
  per step), scatter-add/coalesce use a stable-sort +
  ``np.add.reduceat`` kernel instead of the buffered ``np.ufunc.at``,
  the logistic losses collapse to single fused forward/backward ops,
  and the stable sigmoid/softplus kernels reuse scratch.  The Adam
  chain, sigmoid/softplus, and dropout masks are bit-identical to the
  reference (same operation order); the scatter kernels and fused
  losses re-associate float sums and agree within the documented
  tolerances (see ``docs/performance.md``).

Further backends (an accelerator namespace, a test double) plug in
through :func:`register_backend`.

Selection: the process default comes from the ``REPRO_BACKEND``
environment variable (``"reference"`` if unset), and can be changed
with :func:`set_default_backend` or scoped with :func:`using_backend`.
Training runs select it through
:class:`repro.perf.PerfConfig(backend=...)` / ``repro train
--backend``; the serving engine accepts a ``backend=`` argument.

Thread-safety: scratch pools are kept in thread-local storage, so
concurrent serving threads never alias each other's buffers.
"""

from __future__ import annotations

import os
import threading
import warnings
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Optional, Tuple

import numpy as np

from repro.nn import dtypes

__all__ = [
    "ArrayBackend",
    "OptimizedBackend",
    "active_backend",
    "available_backends",
    "backend_name",
    "get_backend",
    "register_backend",
    "set_default_backend",
    "using_backend",
]

_ENV_VAR = "REPRO_BACKEND"

# Bounded per-tag scratch cache: a tag that sees more shapes than this
# recycles the oldest entry instead of growing without bound.  Sized to
# hold one buffer per distinct parameter shape of a typical model.
_SCRATCH_SHAPES_PER_TAG = 32


class ArrayBackend:
    """The reference backend: plain numpy, bit-for-bit the seed.

    Subclasses override the *hot-op* methods (``adam_update``,
    ``add_at``, ``scatter_rows``, ``coalesce_rows``, ``stable_sigmoid``,
    ``softplus``, ``dropout_mask``, the fused losses) while inheriting
    the plain namespace surface.  Everything on this class either *is*
    a numpy function or reproduces the pre-backend arithmetic exactly
    — the golden tests depend on that.
    """

    name = "reference"
    #: True when the loss functions should dispatch to the fused
    #: single-node implementations (``bce_terms`` / ``softplus_terms``).
    fused_losses = False

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

    # -- dtype policy (PR-5) -------------------------------------------
    #: The single array-promotion rule — see :func:`repro.nn.dtypes.coerce`.
    coerce = staticmethod(dtypes.coerce)

    # -- RNG draws -----------------------------------------------------
    # Draws take an explicit numpy Generator so seeded streams stay
    # identical across backends (an accelerator backend may *consume*
    # the host draw and transfer it).
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
    # Non-standard hot ops (reference implementations)
    # ------------------------------------------------------------------
    def add_at(self, target: np.ndarray, index, values) -> None:
        """Unbuffered scatter-add: ``target[index] += values`` with
        duplicate indices accumulating (``np.add.at`` semantics)."""
        np.add.at(target, index, values)

    def scatter_rows(self, index, rows, num_rows: int) -> np.ndarray:
        """Scatter-add ``rows`` into a fresh zero table of ``num_rows``.

        Returns an array of shape ``(num_rows,) + rows.shape[index.ndim:]``
        in ``rows.dtype``, byte-identical to ``np.add.at`` into zeros.  In
        f64 that runs as one ``np.bincount`` over flattened
        ``(row, column)`` keys: bincount visits its input in order and
        adds each weight to its cell, which starts at ``+0.0`` — the same
        sequence of IEEE additions ``np.add.at`` performs, several times
        faster.  Bincount accumulates in f64, so every other dtype keeps
        ``np.add.at``.  So do rows holding a NaN: when two NaNs meet,
        the payload that survives depends on the operand order of the
        addition, which bincount and ``np.add.at`` do not share.
        Without an input NaN the only NaN is the default one
        ``inf - inf`` makes, and operand order cannot show.

        Those other cases go through :meth:`add_at` into zeros, so a
        backend that overrides ``add_at`` keeps its own kernel there;
        the f64 bincount kernel is shared by every backend.
        """
        index = np.asarray(index)
        rows = np.asarray(rows)
        tail = rows.shape[index.ndim:]
        if rows.dtype != np.float64 or np.isnan(rows).any():
            out = np.zeros((num_rows,) + tail, dtype=rows.dtype)
            self.add_at(out, index, rows)
            return out
        ids = index.reshape(-1).astype(np.int64, copy=False)
        if ids.size and (ids.min() < -num_rows or ids.max() >= num_rows):
            raise IndexError(
                f"row index out of range for {num_rows} rows: "
                f"min={ids.min()}, max={ids.max()}")
        ids = np.where(ids < 0, ids + num_rows, ids)
        cols = int(np.prod(tail, dtype=np.int64))
        keys = (ids[:, None] * cols + np.arange(cols)).reshape(-1)
        out = np.bincount(keys, weights=rows.reshape(-1),
                          minlength=num_rows * cols)
        return out.astype(np.float64, copy=False).reshape(
            (num_rows,) + tail)

    def coalesce_rows(self, ids: np.ndarray, rows: np.ndarray
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """Sum duplicate row ids; returns ``(sorted_unique_ids, sums)``.

        Contributions to each output row are added in first-occurrence
        order — the accumulation order of ``np.add.at`` — so densifying
        the result is bit-identical to a direct dense scatter.
        """
        unique, inverse = np.unique(ids, return_inverse=True)
        return unique, self.scatter_rows(inverse, rows, unique.size)

    def stable_sigmoid(self, x: np.ndarray) -> np.ndarray:
        """Logistic function computed without overflow for large |x|."""
        x = dtypes.coerce(x)
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

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
        operation; the optimized override keeps the same operation
        order (hence the same bits) but runs it through ``out=`` kwargs
        on reusable scratch.
        """
        if weight_decay:
            grad = grad + weight_decay * param
        m *= beta1
        m += (1.0 - beta1) * grad
        v *= beta2
        v += (1.0 - beta2) * grad * grad
        m_hat = m / bias1
        v_hat = v / bias2
        return lr * m_hat / (np.sqrt(v_hat) + eps)

    # -- fused losses (optimized-only; reference keeps the graph) ------
    def bce_terms(self, logits: np.ndarray, labels: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-element BCE-from-logits values and d(loss)/d(logits).

        Only called when :attr:`fused_losses` is True.
        """
        raise NotImplementedError

    def softplus_terms(self, scores: np.ndarray, negate: bool
                       ) -> Tuple[np.ndarray, np.ndarray]:
        """``softplus(±scores)`` values and their d/d(scores).

        ``negate=True`` gives ``softplus(-s)`` (the positive-edge term
        of the skipgram loss), ``False`` gives ``softplus(s)`` (the
        negative-edge term).  Only called when :attr:`fused_losses` is
        True.
        """
        raise NotImplementedError

    # -- profiler integration ------------------------------------------
    def array_bytes(self, array) -> int:
        """Bytes *newly allocated* for ``array``, as the op profiler
        should account them.  The reference backend allocates every
        output, so this is simply ``nbytes``; buffer-reusing backends
        report a reused scratch buffer as 0 new bytes (counting its
        creation exactly once)."""
        return int(getattr(array, "nbytes", 0))

    def __repr__(self) -> str:
        return f"<ArrayBackend {self.name!r}>"


class _ScratchPool:
    """Per-thread (tag, shape, dtype)-keyed reusable buffers.

    Each tag holds a small bounded set of shapes; requesting a new
    shape beyond the bound recycles the oldest entry.  The pool keeps
    strong references to its buffers, so ``id(buf)`` is a stable key
    for the profiler's counted-once accounting.
    """

    def __init__(self) -> None:
        self._by_tag: Dict[str, Dict[Tuple, np.ndarray]] = {}
        # id(buffer) -> already counted by the profiler?
        self._registry: Dict[int, bool] = {}
        self.bytes_created = 0
        self.buffers_created = 0

    def get(self, tag: str, shape: Tuple[int, ...],
            dtype: np.dtype) -> np.ndarray:
        shapes = self._by_tag.setdefault(tag, {})
        key = (tuple(shape), np.dtype(dtype).str)
        buf = shapes.get(key)
        if buf is None:
            if len(shapes) >= _SCRATCH_SHAPES_PER_TAG:
                _evicted_key, evicted = shapes.popitem()
                self._registry.pop(id(evicted), None)
            buf = np.empty(shape, dtype=dtype)
            shapes[key] = buf
            self._registry[id(buf)] = False
            self.bytes_created += buf.nbytes
            self.buffers_created += 1
        return buf

    def account(self, array) -> Optional[int]:
        """Profiler bytes for ``array`` if it is pooled, else None."""
        counted = self._registry.get(id(array))
        if counted is None:
            return None
        if counted:
            return 0
        self._registry[id(array)] = True
        return int(array.nbytes)


class OptimizedBackend(ArrayBackend):
    """Buffer-reusing, fused-hot-op CPU backend.

    Semantics contract (gated in ``tests/test_nn_backend.py``):

    * ``adam_update`` / ``stable_sigmoid`` / ``softplus`` /
      ``dropout_mask`` preserve the reference operation order and are
      bit-identical;
    * ``add_at`` / ``scatter_rows`` / ``coalesce_rows`` sum each
      duplicate group through ``np.add.reduceat``, whose accumulation
      order differs from ``np.ufunc.at`` — same math, re-associated
      float sums;
    * the fused losses likewise re-associate the loss algebra.

    End to end the optimized backend agrees with the reference within
    rtol 1e-9 / atol 1e-12 (f64) and rtol 1e-4 / atol 1e-6 (f32) on
    the golden workloads.
    """

    name = "optimized"
    fused_losses = True

    def __init__(self) -> None:
        self._local = threading.local()

    @property
    def _pool(self) -> _ScratchPool:
        pool = getattr(self._local, "pool", None)
        if pool is None:
            pool = _ScratchPool()
            self._local.pool = pool
        return pool

    def scratch(self, tag: str, shape, dtype) -> np.ndarray:
        """A reusable uninitialized buffer (contents undefined)."""
        return self._pool.get(tag, tuple(shape), dtype)

    def scratch_stats(self) -> Dict[str, int]:
        pool = self._pool
        return {"buffers_created": pool.buffers_created,
                "bytes_created": pool.bytes_created}

    def array_bytes(self, array) -> int:
        pooled = self._pool.account(array)
        if pooled is not None:
            return pooled
        return int(getattr(array, "nbytes", 0))

    # ------------------------------------------------------------------
    # Scatter-add / coalesce: stable sort + add.reduceat
    # ------------------------------------------------------------------
    @staticmethod
    def _sorted_groups(ids: np.ndarray
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(order, starts, unique) for grouping ``ids`` by value.

        ``kind="stable"`` keeps duplicates in first-occurrence order —
        the same order ``np.add.at`` visits them — though ``reduceat``
        is free to re-associate the additions within a group.
        """
        order = np.argsort(ids, kind="stable")
        sorted_ids = ids[order]
        starts = np.concatenate(
            [[0], np.flatnonzero(sorted_ids[1:] != sorted_ids[:-1]) + 1])
        return order, starts, sorted_ids[starts]

    def add_at(self, target: np.ndarray, index, values) -> None:
        index_arr = np.asarray(index) if not isinstance(index, tuple) \
            else None
        values_arr = np.asarray(values)
        if (index_arr is None
                or not np.issubdtype(index_arr.dtype, np.integer)
                or index_arr.size == 0
                or values_arr.ndim < index_arr.ndim
                or values_arr.shape[:index_arr.ndim] != index_arr.shape):
            # Non-row-gather patterns (boolean masks, tuples, slices,
            # broadcast values) keep the general buffered kernel.
            np.add.at(target, index, values)
            return
        flat_ids = index_arr.reshape(-1)
        if flat_ids.min() < 0:
            # Wrap negative ids first, so ``-1`` and ``n - 1`` share a
            # group instead of colliding in the buffered ``+=`` below.
            flat_ids = np.where(flat_ids < 0, flat_ids + target.shape[0],
                                flat_ids)
        rows = values_arr.reshape((flat_ids.size,)
                                  + values_arr.shape[index_arr.ndim:])
        order, starts, unique = self._sorted_groups(flat_ids)
        sums = np.add.reduceat(rows[order], starts, axis=0)
        target[unique] += sums

    # ------------------------------------------------------------------
    # Fused elementwise kernels
    # ------------------------------------------------------------------
    def stable_sigmoid(self, x: np.ndarray) -> np.ndarray:
        x = dtypes.coerce(x)
        # e = exp(-|x|); x>=0 -> 1/(1+e), x<0 -> e/(1+e).  Identical
        # bits to the reference's masked two-branch computation.
        e = self.scratch("sigmoid.e", x.shape, x.dtype)
        denom = self.scratch("sigmoid.denom", x.shape, x.dtype)
        np.abs(x, out=e)
        np.negative(e, out=e)
        np.exp(e, out=e)
        np.add(e, 1.0, out=denom)
        pos_branch = self.scratch("sigmoid.pos", x.shape, x.dtype)
        np.divide(1.0, denom, out=pos_branch)
        np.divide(e, denom, out=e)
        return np.where(x >= 0, pos_branch, e)

    def softplus(self, x: np.ndarray) -> np.ndarray:
        x = dtypes.coerce(x)
        t = self.scratch("softplus.t", x.shape, x.dtype)
        np.abs(x, out=t)
        np.negative(t, out=t)
        np.exp(t, out=t)
        np.log1p(t, out=t)
        out = np.maximum(x, 0.0)
        np.add(out, t, out=out)
        return out

    def dropout_mask(self, rng: np.random.Generator, shape,
                     keep: float, dtype) -> np.ndarray:
        mask = (rng.random(shape) < keep).astype(dtype)
        np.divide(mask, keep, out=mask)
        return mask

    # ------------------------------------------------------------------
    # Fused Adam: the reference operation order over scratch buffers
    # ------------------------------------------------------------------
    def adam_update(self, m: np.ndarray, v: np.ndarray, grad: np.ndarray,
                    lr: float, beta1: float, beta2: float, eps: float,
                    bias1: float, bias2: float,
                    weight_decay: float = 0.0,
                    param: Optional[np.ndarray] = None) -> np.ndarray:
        t = self.scratch("adam.t", m.shape, m.dtype)
        if weight_decay:
            g = self.scratch("adam.g", m.shape, m.dtype)
            np.multiply(param, weight_decay, out=g)
            np.add(grad, g, out=g)
            grad = g
        np.multiply(m, beta1, out=m)
        np.multiply(grad, 1.0 - beta1, out=t)
        np.add(m, t, out=m)
        np.multiply(v, beta2, out=v)
        np.multiply(grad, 1.0 - beta2, out=t)
        np.multiply(t, grad, out=t)
        np.add(v, t, out=v)
        np.divide(v, bias2, out=t)
        np.sqrt(t, out=t)
        np.add(t, eps, out=t)
        update = self.scratch("adam.update", m.shape, m.dtype)
        np.divide(m, bias1, out=update)
        np.multiply(update, lr, out=update)
        np.divide(update, t, out=update)
        return update

    # ------------------------------------------------------------------
    # Fused losses
    # ------------------------------------------------------------------
    def bce_terms(self, logits: np.ndarray, labels: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray]:
        # loss = max(z, 0) - z*y + log1p(exp(-|z|));  dz = sigmoid(z) - y
        z, y = logits, labels
        t = self.scratch("bce.t", z.shape, z.dtype)
        np.abs(z, out=t)
        np.negative(t, out=t)
        np.exp(t, out=t)
        np.log1p(t, out=t)
        zy = self.scratch("bce.zy", z.shape, z.dtype)
        np.multiply(z, y, out=zy)
        vals = np.maximum(z, 0.0)
        np.subtract(vals, zy, out=vals)
        np.add(vals, t, out=vals)
        # stable_sigmoid returns a fresh (non-scratch) array, so the
        # in-place subtract keeps dz owned — it lives into backward.
        dz = self.stable_sigmoid(z)
        np.subtract(dz, y, out=dz)
        # Where y == 0 the reference graph differentiates log sigma(-z),
        # giving 1 - sigma(-z): equal to sigma(z) in exact arithmetic but
        # not always in the last bit.  With it, grad * dz reproduces the
        # reference gradient bit for bit on binary labels (where y == 1,
        # sigma(z) - 1 is exactly -(1 - sigma(z))).
        negative = y == 0
        if negative.any():
            dz[negative] = 1.0 - self.stable_sigmoid(-z[negative])
        return vals, dz

    def softplus_terms(self, scores: np.ndarray, negate: bool
                       ) -> Tuple[np.ndarray, np.ndarray]:
        sig = self.stable_sigmoid(scores)          # fresh, owned
        if negate:
            # softplus(-s); d/ds = sigmoid(s) - 1
            vals = self.softplus(-scores)
            np.subtract(sig, 1.0, out=sig)
        else:
            # softplus(s); d/ds = sigmoid(s)
            vals = self.softplus(scores)
        return vals, sig


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_FACTORIES: Dict[str, Callable[[], ArrayBackend]] = {}
_INSTANCES: Dict[str, ArrayBackend] = {}
_lock = threading.Lock()


def register_backend(name: str, factory: Callable[[], ArrayBackend],
                     overwrite: bool = False) -> None:
    """Register a backend factory under ``name``.

    The factory is called lazily on first :func:`get_backend` and the
    instance is cached.  Registration is cheap and import-safe, so a
    backend whose dependency may be missing can register conditionally.
    """
    with _lock:
        if name in _FACTORIES and not overwrite:
            raise ValueError(f"backend {name!r} is already registered")
        _FACTORIES[name] = factory
        _INSTANCES.pop(name, None)


def available_backends() -> Tuple[str, ...]:
    """Names of every registered backend, reference first."""
    with _lock:
        names = list(_FACTORIES)
    names.sort(key=lambda n: (n != "reference", n != "optimized", n))
    return tuple(names)


def get_backend(name: Optional[str] = None) -> ArrayBackend:
    """The (cached) backend instance for ``name`` (None ⇒ active)."""
    if name is None:
        return active_backend()
    with _lock:
        instance = _INSTANCES.get(name)
        if instance is None and name in _FACTORIES:
            instance = _FACTORIES[name]()
            _INSTANCES[name] = instance
    if instance is None:
        raise ValueError(
            f"unknown array backend {name!r}; available: "
            f"{', '.join(available_backends())}")
    return instance


register_backend("reference", ArrayBackend)
register_backend("optimized", OptimizedBackend)


def _initial_name() -> str:
    name = os.environ.get(_ENV_VAR, "reference")
    if name not in _FACTORIES:
        warnings.warn(
            f"{_ENV_VAR}={name!r} names an unknown backend; "
            f"falling back to 'reference'", RuntimeWarning)
        return "reference"
    return name


_active_name: str = _initial_name()
_active_instance: ArrayBackend = get_backend(_active_name)


def backend_name() -> str:
    """The name of the process-default backend."""
    return _active_name


def active_backend() -> ArrayBackend:
    """The process-default backend instance (the ``xp`` namespace).

    Lock-free: every ``Tensor`` op calls this, so it must stay a plain
    attribute read.
    """
    return _active_instance


def set_default_backend(name: str) -> str:
    """Set the process-default backend; returns the previous name."""
    global _active_name, _active_instance
    instance = get_backend(name)            # validate + instantiate
    previous = _active_name
    _active_name = name
    _active_instance = instance
    return previous


@contextmanager
def using_backend(name: str) -> Iterator[ArrayBackend]:
    """Scoped default-backend override (restores the previous one)."""
    previous = set_default_backend(name)
    try:
        yield active_backend()
    finally:
        set_default_backend(previous)
