"""The fleet's shared-memory parameter block.

One process — the router — owns a **params-only**
:class:`~repro.perf.transport.ShmTransport` (``num_slots=0``) holding
the engine's *materialized serving buffers*: split first-layer weights,
catalogue-side precomputations, embedding tables, and the catalogue
identity arrays, exactly as exported by
:meth:`InferenceEngine.serving_state`.  Publishing the serving view
rather than raw model parameters means an attaching shard does zero
arithmetic at startup — attach is a handful of ``np.frombuffer`` view
constructions.

Shards attach through :func:`attach_serving_engine`: a read-only
:class:`~repro.perf.transport.WorkerTransportClient` plus
``read_params()`` yields non-writeable zero-copy views, and
:meth:`InferenceEngine.from_serving_state` installs them as-is.  N
shards therefore share one physical copy of the tables; a shard that
tries to assign into a parameter raises ``ValueError`` at the numpy
layer instead of corrupting every sibling's scores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.perf.transport import (
    GradientLayout,
    ShmTransport,
    WorkerTransportClient,
)
from repro.serving.engine import InferenceEngine

__all__ = ["FleetManifest", "ServingParameterBlock", "attach_serving_engine"]


@dataclass(frozen=True)
class FleetManifest:
    """Everything a shard needs to attach: block layout + arithmetic dtype.

    Picklable (it rides the spawn call into shard processes *and* the
    hot-swap pipe message); contains byte offsets and segment names
    only, never array data.  ``generation`` is the model publication
    number the block holds — shards echo it in every reply so callers
    can tell exactly which parameters scored each response.
    """

    layout: GradientLayout
    dtype: str
    generation: int = 0


class ServingParameterBlock:
    """Router-side owner of the shared serving-state block.

    Parameters
    ----------
    state:
        A :meth:`InferenceEngine.serving_state` dict.  Array shapes and
        dtypes fix the block layout; the values are written immediately.
    dtype:
        The engine's arithmetic dtype, carried to shards through the
        manifest so attached engines score at the same precision.
    generation:
        Publication number of the model the block holds.  A hot-swap
        allocates a *new* block for the new generation rather than
        overwriting this one in place, so an attached shard can never
        observe a torn mix of generations.
    """

    def __init__(self, state: Dict[str, np.ndarray], dtype,
                 generation: int = 0) -> None:
        layout = GradientLayout.build(
            [(name, arr.shape, arr.dtype) for name, arr in state.items()])
        self._transport = ShmTransport(layout, num_slots=0)
        self._transport.write_params(state)
        self.manifest = FleetManifest(self._transport.layout,
                                      str(np.dtype(dtype)),
                                      int(generation))

    @property
    def generation(self) -> int:
        return self.manifest.generation

    @classmethod
    def from_engine(cls, engine: InferenceEngine,
                    generation: int = 0) -> "ServingParameterBlock":
        return cls(engine.serving_state(), engine.dtype, generation)

    def publish(self, state: Dict[str, np.ndarray]) -> None:
        """Overwrite the block with fresh serving state (same shapes).

        Writes are not atomic across arrays — quiesce traffic (or
        accept torn scores) during a republish, exactly like the
        trainer's broadcast/gather ordering contract.  For a live fleet
        prefer :meth:`repro.fleet.router.ShardRouter.swap`, which
        allocates a fresh block per generation and drains each shard so
        no request ever sees a torn mix.
        """
        self._transport.write_params(state)

    def close(self) -> None:
        """Release and unlink the segment (idempotent; owner only)."""
        self._transport.close()

    def __enter__(self) -> "ServingParameterBlock":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def attach_serving_engine(manifest: FleetManifest):
    """Shard-side attach: read-only client + engine over shared views.

    Returns ``(engine, client)``; the caller must keep ``client`` alive
    for the engine's lifetime (the views alias its mapping) and
    ``close()`` it on shutdown.
    """
    client = WorkerTransportClient(manifest.layout, read_only=True)
    try:
        state = client.read_params()
        engine = InferenceEngine.from_serving_state(
            state, dtype=manifest.dtype)
    except Exception:
        client.close()
        raise
    return engine, client
