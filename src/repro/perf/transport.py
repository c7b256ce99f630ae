"""Shared-memory gradient transport for the data-parallel trainer.

Pickling every parameter to every worker and every gradient back, each
step, costs two serialization passes plus pipe copies per replica.
This module moves the *bulk* payloads through preallocated
``multiprocessing.shared_memory`` blocks described by a one-time
:class:`~repro.nn.store.GradientLayout` manifest — for training, the
layout of the model's :class:`~repro.nn.store.ParameterStore`:

* one **params block**, one flat vector: the master copies its store's
  data into it before each broadcast, and each worker copies it into
  its own store when woken for a step;
* one **gradient block per worker slot**, one flat vector: each worker
  writes its step's gradient straight into its slot (a parameter the
  step never touched as zeros); the master reads a slot only after
  that worker's pipe reply arrives, and guards, averages and
  Adam-steps it as a single array.

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
grad_vector` raises :class:`ReadOnlyTransportError` outright.
``read_params()`` returns zero-copy views, which is what
lets N shard processes share a single physical copy of the
user/POI embedding tables.  A params-only block may mix dtypes (the
serving state carries int64 catalogue ids; the fleet builds its own
layout for it and writes it by name); gradient slots need one dtype,
since a slot is a single vector.
"""

from __future__ import annotations

from multiprocessing import shared_memory
from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.nn.store import GradientLayout
from repro.utils.logging import get_logger

__all__ = ["GradientLayout", "ReadOnlyTransportError", "ShmTransport",
           "WorkerTransportClient"]

logger = get_logger("perf.transport")


class ReadOnlyTransportError(RuntimeError):
    """A write was attempted through a read-only transport attachment."""


class ShmTransport:
    """Master-side owner of the shared params and per-slot grad blocks.

    ``num_slots=0`` creates a **params-only** transport: just the
    broadcast block, no gradient slots.  That is the serving-fleet
    shape — many readers, one writer, nothing flowing back.
    """

    def __init__(self, layout: GradientLayout, num_slots: int) -> None:
        if num_slots < 0:
            raise ValueError(f"num_slots must be >= 0, got {num_slots}")
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
    def write_params(self, state: Mapping[str, np.ndarray]) -> None:
        """Write ``{name: array}`` into the params block, by name."""
        buf = self._params_shm.buf
        for slot in self.layout.slots:
            view = np.frombuffer(buf, dtype=slot.dtype, count=slot.size,
                                 offset=slot.offset)
            view[...] = state[slot.name].reshape(-1)

    def write_params_vector(self, flat: np.ndarray) -> None:
        """Copy one flat parameter vector into the params block."""
        self.layout.vector(self._params_shm.buf)[...] = flat

    def read_grads(self, slot_index: int) -> np.ndarray:
        """One worker's flat gradient vector, as a zero-copy view.

        Valid until the next broadcast: the worker rewrites its slot
        only after it is woken for the following step.
        """
        return self.layout.vector(self._grad_shms[slot_index].buf)

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
        ``ValueError``), and :meth:`grad_vector` raises
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

    def read_params(self) -> Dict[str, np.ndarray]:
        """The parameters in the params block, by name, as zero-copy
        views into the shared segment: the serving fleet's mode, where
        N read-only shards share one physical copy of the tables and
        the owner never rewrites them mid-flight.  Views from a
        read-only attachment are non-writeable.  A training worker
        copies :meth:`params_vector` into its own store instead.
        """
        buf = self._params_buf()
        return {slot.name: np.frombuffer(
                    buf, dtype=slot.dtype, count=slot.size,
                    offset=slot.offset).reshape(slot.shape)
                for slot in self.layout.slots}

    def params_vector(self) -> np.ndarray:
        """The params block as one flat vector, zero-copy."""
        return self.layout.vector(self._params_buf())

    def grad_vector(self) -> np.ndarray:
        """This worker's gradient slot as one flat vector, zero-copy:
        the replica writes its gradient straight into it."""
        if self._grad_shm is None:
            raise ReadOnlyTransportError(
                "cannot write gradients through a read-only "
                "(params-only) transport attachment")
        return self.layout.vector(self._grad_shm.buf)

    def close(self) -> None:
        # BufferError: zero-copy views (read_params()) may
        # still alias the mapping at shutdown; the process exit that
        # follows releases it, and the owner does the unlinking.
        for shm in (self._params_shm, self._grad_shm):
            if shm is None:
                continue
            try:
                shm.close()
            except (OSError, BufferError):
                pass
