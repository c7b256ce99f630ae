"""Hot-path performance configuration for data-parallel training."""

from __future__ import annotations

from dataclasses import dataclass

_TRANSPORTS = ("auto", "shm", "pipe")


@dataclass(frozen=True)
class PerfConfig:
    """Selects the hot-path optimizations for a training run.

    Parameters
    ----------
    sparse_grads:
        Propagate embedding-table gradients as
        :class:`~repro.nn.sparse.SparseRowGrad` (touched rows only)
        instead of dense ``num_embeddings × dim`` arrays.
    transport:
        ``"shm"`` ships parameters/gradients through preallocated
        ``multiprocessing.shared_memory`` blocks (pipe kept as control
        channel); ``"pipe"`` is the original pickled-dict protocol;
        ``"auto"`` tries shared memory and silently falls back to the
        pipe if segment creation fails.
    adam_sparse_mode:
        Passed to :class:`~repro.nn.optim.Adam` — ``"exact"`` is
        bit-identical to dense updates, ``"lazy"`` trades exactness for
        speed (LazyAdam), ``"dense"`` disables the sparse path.
    precision:
        Floating-point policy for the whole training stack (see
        :mod:`repro.nn.dtypes`): ``"f64"`` is the bit-exact reference;
        ``"f32"`` initializes parameters, optimizer moments, autograd
        intermediates, and transport payloads in float32 — half the
        bytes through every dense op.  f32 is *not* bit-identical to
        f64; it is guarded by the eval-metric parity harness in
        :mod:`repro.perf.parity` instead.

    The structural optimizations (sparse grads, shm transport) are
    proven bit-identical to the reference path
    (``PerfConfig.reference()``) in ``tests/test_perf_transport.py``
    within a fixed precision.
    """

    sparse_grads: bool = True
    transport: str = "auto"
    adam_sparse_mode: str = "exact"
    precision: str = "f64"

    def __post_init__(self) -> None:
        if self.transport not in _TRANSPORTS:
            raise ValueError(
                f"transport must be one of {_TRANSPORTS}, "
                f"got {self.transport!r}")
        if self.adam_sparse_mode not in ("dense", "exact", "lazy"):
            raise ValueError(
                f"adam_sparse_mode must be 'dense', 'exact' or 'lazy', "
                f"got {self.adam_sparse_mode!r}")
        if self.precision not in ("f64", "f32"):
            raise ValueError(
                f"precision must be 'f64' or 'f32', "
                f"got {self.precision!r}")

    @property
    def dtype(self):
        """The numpy dtype of this policy."""
        from repro.nn.dtypes import resolve

        return resolve(self.precision)

    @staticmethod
    def reference() -> "PerfConfig":
        """The pre-optimization path: dense f64 grads over pickled pipes."""
        return PerfConfig(sparse_grads=False, transport="pipe",
                          adam_sparse_mode="dense", precision="f64")


def enable_sparse_embedding_grads(model) -> int:
    """Flip every ``Embedding`` in ``model`` to sparse gradients.

    Returns the number of embedding tables switched.  Safe to call on
    any :class:`~repro.nn.module.Module`; non-embedding modules are
    untouched.
    """
    from repro.nn.layers import Embedding

    count = 0
    for module in model.modules():
        if isinstance(module, Embedding):
            module.sparse_grad = True
            count += 1
    return count
