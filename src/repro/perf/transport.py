"""Shared-memory gradient transport for the data-parallel trainer.

The seed protocol pickled a full parameter ``state_dict`` to every
worker and a full gradient dict back from every worker, every step —
two serialization passes plus pipe copies over megabytes of float64 per
replica.  This module replaces the *bulk* payloads with preallocated
``multiprocessing.shared_memory`` blocks described by a one-time
:class:`GradientLayout` manifest:

* one **params block** — the master writes current parameter values
  before each broadcast; workers copy them out when woken for a step;
* one **gradient block per worker slot** — each worker writes its
  step's gradient into its own slot; the master reads a slot only
  after that worker's pipe reply arrives.

Both kinds of block share one layout: every parameter, in parameter
order, densely packed.  A gradient slot is therefore **one flat vector**
— the fused buffer TensorFlow's all-reduce exchanges — and the master
guards, averages and Adam-steps it as a single array instead of one
small tensor at a time.  A parameter the step never touched is written
as zeros.  The broadcast already moves every parameter every step, so
the gradient bytes per step are the same as the broadcast's.

The existing pipe stays as the control channel: workers reply ``(None,
loss, telemetry)``, so all supervision semantics (deadlines, crash/hang
detection, respawn) are untouched.  The pipe round-trip also provides
the ordering that makes the shared blocks race-free — a slot is written
strictly before its reply is sent, and the master rewrites the params
block strictly after the previous step's gather finished.  That is also
why :meth:`ShmTransport.read_grads` may hand out a zero-copy view: a
slot is not rewritten before the next broadcast.  The pipe transport
sends the same flat vector through the pipe.

Fallback: :class:`ShmTransport` creation is attempted once at trainer
construction; any failure (platform without ``/dev/shm``, exhausted
segments) falls back to the original pickled-pipe path automatically.

Serving reuse
-------------
The serving fleet (:mod:`repro.fleet`) attaches N recommendation
shards to one **params-only** block (``num_slots=0`` skips the
gradient slots entirely) in **read-only** mode:
``WorkerTransportClient(layout, read_only=True)`` maps the params
segment through a read-only ``memoryview``, so every array view handed
out is non-writeable at the numpy level — a buggy shard that assigns
into a parameter raises ``ValueError`` instead of corrupting the block
every other shard serves from — and :meth:`~WorkerTransportClient.
write_grads` raises :class:`ReadOnlyTransportError` outright.
``read_params(copy=False)`` returns zero-copy views, which is what
lets N shard processes share a single physical copy of the
user/POI embedding tables.  A params-only block may mix dtypes (the
serving state carries int64 catalogue ids); gradient slots need one
dtype, since a slot is a single vector.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.utils.logging import get_logger

logger = get_logger("perf.transport")


class ReadOnlyTransportError(RuntimeError):
    """A write was attempted through a read-only transport attachment."""


@dataclass(frozen=True)
class ParamSlot:
    """Where one parameter sits in the params block and each grad slot."""

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
    """One-time manifest describing both kinds of shared block.

    Pickled to every worker at spawn; contains byte offsets only (plus
    the segment names), so attaching is a pure ``numpy.frombuffer``
    view construction with zero per-step negotiation.
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
        """The one dtype of a flat gradient vector."""
        dtypes = {slot.dtype for slot in self.slots}
        if len(dtypes) != 1:
            raise ValueError(
                f"a flat gradient vector needs one dtype, got "
                f"{sorted(dtypes)}")
        return np.dtype(dtypes.pop())

    @functools.cached_property
    def size(self) -> int:
        """Elements of a flat gradient vector."""
        return sum(slot.size for slot in self.slots)

    def pack_grads(self, grads: Mapping[str, Optional[np.ndarray]],
                   out: Optional[np.ndarray] = None) -> np.ndarray:
        """Write ``{name: grad}`` into one flat vector in parameter order.

        A missing or ``None`` gradient is written as zeros.  ``out`` is
        filled in place when given.
        """
        if out is None:
            out = np.empty(self.size, dtype=self.dtype)
        for slot in self.slots:
            grad = grads.get(slot.name)
            dst = slot.view(out)
            if grad is None:
                dst[...] = 0.0
            else:
                dst[...] = grad
        return out

    def nonfinite_names(self, flat: np.ndarray) -> List[str]:
        """Names of the parameters whose part of ``flat`` is not finite."""
        return [slot.name for slot in self.slots
                if not np.isfinite(slot.view(flat)).all()]


class ShmTransport:
    """Master-side owner of the shared params and per-slot grad blocks.

    ``num_slots=0`` creates a **params-only** transport: just the
    broadcast block, no gradient slots.  That is the serving-fleet
    shape — many readers, one writer, nothing flowing back.
    """

    def __init__(self,
                 param_specs: Sequence[Tuple[str, Tuple[int, ...], str]],
                 num_slots: int) -> None:
        if num_slots < 0:
            raise ValueError(f"num_slots must be >= 0, got {num_slots}")
        layout = GradientLayout.build(param_specs)
        if num_slots:
            layout.dtype                # grad slots need one dtype
        self._params_shm = shared_memory.SharedMemory(
            create=True, size=max(1, layout.nbytes))
        self._grad_shms: List[shared_memory.SharedMemory] = []
        try:
            for _ in range(num_slots):
                self._grad_shms.append(shared_memory.SharedMemory(
                    create=True, size=max(1, layout.nbytes)))
        except Exception:
            self.close()
            raise
        self.layout = layout.with_names(
            self._params_shm.name, [s.name for s in self._grad_shms])
        self.num_slots = num_slots
        self._closed = False

    # -- master side ----------------------------------------------------
    def write_params(self, state: Dict[str, np.ndarray]) -> None:
        buf = self._params_shm.buf
        for slot in self.layout.slots:
            view = np.frombuffer(buf, dtype=slot.dtype, count=slot.size,
                                 offset=slot.offset)
            view[...] = state[slot.name].reshape(-1)

    def read_grads(self, slot_index: int) -> np.ndarray:
        """One worker's flat gradient vector, as a zero-copy view.

        Valid until the next broadcast: the worker rewrites its slot
        only after it is woken for the following step.
        """
        return np.frombuffer(self._grad_shms[slot_index].buf,
                             dtype=self.layout.dtype, count=self.layout.size)

    def close(self) -> None:
        """Release and unlink both blocks (idempotent; master only)."""
        if getattr(self, "_closed", False):
            return
        self._closed = True
        for shm in [getattr(self, "_params_shm", None)] + \
                list(getattr(self, "_grad_shms", [])):
            if shm is None:
                continue
            # BufferError: a read_grads view still aliases the mapping;
            # unlinking the name is what must not be skipped.
            try:
                shm.close()
            except (OSError, BufferError):
                pass
            try:
                shm.unlink()
            except OSError:
                pass

    def __enter__(self) -> "ShmTransport":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class WorkerTransportClient:
    """Worker-side attachment to the blocks named in the manifest.

    The master owns the segments' lifetime.  Workers are forked, so
    they share the master's resource-tracker process: the registration
    each attach performs is a duplicate ``set.add`` of a name the
    master already tracks — a no-op — and a dying worker therefore can
    never unlink a live block.  (A ``spawn`` start method would give
    each worker its own tracker and break that invariant; the trainer
    forks by construction.)

    Parameters
    ----------
    layout:
        The manifest naming the shared blocks.
    slot_index:
        This worker's gradient slot.  ``None`` attaches to the params
        block only (a params-only transport has no slots to claim).
    read_only:
        Serving-consumer mode: the params block is mapped through a
        read-only ``memoryview``, so every view handed out by
        :meth:`read_params` is non-writeable (assignment raises
        ``ValueError``), and :meth:`write_grads` raises
        :class:`ReadOnlyTransportError`.  A slot cannot be claimed in
        this mode — a reader has nothing to write.
    """

    def __init__(self, layout: GradientLayout,
                 slot_index: Optional[int] = None,
                 read_only: bool = False) -> None:
        if read_only and slot_index is not None:
            raise ValueError(
                "read_only attachments cannot claim a gradient slot")
        if not read_only and slot_index is None:
            raise ValueError(
                "writable attachments must claim a gradient slot "
                "(pass read_only=True for params-only consumers)")
        self.layout = layout
        self.slot_index = slot_index
        self.read_only = read_only
        self._params_shm = shared_memory.SharedMemory(
            name=layout.params_name)
        self._grad_shm = None
        if slot_index is not None:
            try:
                self._grad_shm = shared_memory.SharedMemory(
                    name=layout.grad_names[slot_index])
            except Exception:
                self._params_shm.close()
                raise

    def _params_buf(self) -> memoryview:
        buf = self._params_shm.buf
        return buf.toreadonly() if self.read_only else buf

    def read_params(self, copy: bool = True) -> Dict[str, np.ndarray]:
        """Current parameter values out of the params block.

        With ``copy=True`` (default) the returned arrays are private
        copies, so a late or killed worker can never observe a torn
        mid-write state after its step ended.  ``copy=False`` returns
        zero-copy views into the shared segment — the mode the serving
        fleet runs in, where N read-only shards share one physical copy
        of the tables and the owner never rewrites them mid-flight.
        Views from a read-only attachment are non-writeable.
        """
        buf = self._params_buf()
        out: Dict[str, np.ndarray] = {}
        for slot in self.layout.slots:
            view = np.frombuffer(buf, dtype=slot.dtype, count=slot.size,
                                 offset=slot.offset).reshape(slot.shape)
            out[slot.name] = view.copy() if copy else view
        return out

    def write_grads(self, grads: Mapping[str, Optional[np.ndarray]]
                    ) -> np.ndarray:
        """Pack ``{name: grad}`` into this worker's slot; returns the slot
        vector (see :meth:`GradientLayout.pack_grads`)."""
        if self._grad_shm is None:
            raise ReadOnlyTransportError(
                "cannot write gradients through a read-only "
                "(params-only) transport attachment")
        slot = np.frombuffer(self._grad_shm.buf, dtype=self.layout.dtype,
                             count=self.layout.size)
        return self.layout.pack_grads(grads, out=slot)

    def close(self) -> None:
        # BufferError: zero-copy views (read_params(copy=False)) may
        # still alias the mapping at shutdown; the process exit that
        # follows releases it, and the owner does the unlinking.
        for shm in (self._params_shm, self._grad_shm):
            if shm is None:
                continue
            try:
                shm.close()
            except (OSError, BufferError):
                pass
