"""Streaming ingestion: event log → incremental updates → hot-swap.

The offline stack trains once and serves a frozen engine; the
crossing-city scenario the paper targets is intrinsically
non-stationary — travellers keep checking in, and their preferences
drift toward the target city's crowd.  ``repro.streaming`` closes the
loop between training and serving:

* :mod:`repro.streaming.events` — an append-only, timestamped
  check-in event log with monotonic sequence numbers and optional
  JSONL persistence.
* :mod:`repro.streaming.generator` — a drift-aware synthetic stream:
  city-switch bursts of crossing users checking into the target city
  under the same drifted preference the offline generator models.
* :mod:`repro.streaming.updater` — :class:`IncrementalUpdater` folds
  new interactions into user embeddings online (the one BPR fold-in,
  also behind the serving tier's ``fold_in``) and periodically
  re-trains only the touched rows (Adam moments over the replayed
  users + vectorized negative sampling scoped to the touched set).
* :mod:`repro.streaming.publisher` — versioned model publication:
  checkpoint-v3 files with recorded generation numbers behind an
  atomically-renamed ``LATEST.json`` pointer, torn publications
  rejected on load.

The serving side of the story — zero-downtime hot-swap of a published
generation into a live fleet — lives in
:meth:`repro.fleet.router.ShardRouter.swap`.  See ``docs/streaming.md``.
"""

from repro.streaming.events import CheckinEvent, EventLog
from repro.streaming.generator import CheckinStreamGenerator, StreamConfig
from repro.streaming.publisher import (
    LATEST_POINTER,
    ModelPublisher,
    TornPublicationError,
    load_latest,
    read_latest_pointer,
)
from repro.streaming.updater import IncrementalUpdater, UpdateStats

__all__ = [
    "CheckinEvent",
    "CheckinStreamGenerator",
    "EventLog",
    "IncrementalUpdater",
    "LATEST_POINTER",
    "ModelPublisher",
    "StreamConfig",
    "TornPublicationError",
    "UpdateStats",
    "load_latest",
    "read_latest_pointer",
]
