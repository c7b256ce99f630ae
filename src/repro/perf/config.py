"""Hot-path performance configuration for data-parallel training."""

from __future__ import annotations

from dataclasses import dataclass

_TRANSPORTS = ("auto", "shm", "pipe")


@dataclass(frozen=True)
class PerfConfig:
    """Selects the hot-path optimizations for a training run.

    Parameters
    ----------
    transport:
        ``"shm"`` ships parameters/gradients through preallocated
        ``multiprocessing.shared_memory`` blocks (pipe kept as control
        channel); ``"pipe"`` is the original pickled-dict protocol;
        ``"auto"`` tries shared memory and silently falls back to the
        pipe if segment creation fails.
    precision:
        Floating-point policy for the whole training stack (see
        :mod:`repro.nn.dtypes`): ``"f64"`` is the bit-exact reference;
        ``"f32"`` initializes parameters, optimizer moments, pass
        intermediates, and transport payloads in float32 — half the
        bytes through every dense op.  f32 is *not* bit-identical to
        f64; it is guarded by the eval-metric parity harness in
        :mod:`repro.perf.parity` instead.

    Within a fixed precision the two transports are bit-identical
    (``tests/test_perf_transport.py``).
    """

    transport: str = "auto"
    precision: str = "f64"

    def __post_init__(self) -> None:
        if self.transport not in _TRANSPORTS:
            raise ValueError(
                f"transport must be one of {_TRANSPORTS}, "
                f"got {self.transport!r}")
        if self.precision not in ("f64", "f32"):
            raise ValueError(
                f"precision must be 'f64' or 'f32', "
                f"got {self.precision!r}")

    @property
    def dtype(self):
        """The numpy dtype of this policy."""
        from repro.nn.dtypes import resolve

        return resolve(self.precision)
