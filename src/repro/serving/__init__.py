"""``repro.serving`` — batched low-latency recommendation serving.

The serving layer turns a trained ST-TransRec into a servable artifact:

* :class:`InferenceEngine` — frozen numpy buffers, batched vectorized
  scoring of users against the target-city catalogue;
* :class:`Exclusions` — per-user POI ids a ranking skips, as one flat
  int array plus offsets;
* :class:`TopKCache` — LRU+TTL per-user result cache with explicit
  invalidation;
* :class:`MicroBatcher` — dynamic coalescing of concurrent single-user
  requests;
* :class:`RecommendationService` — the façade tying them together with
  visited-POI filtering and online fold-in.

See ``docs/serving.md`` for the architecture and latency model.
"""

from repro.serving.batcher import MicroBatcher
from repro.serving.cache import TopKCache
from repro.serving.engine import Exclusions, InferenceEngine
from repro.serving.service import LatencyTracker, RecommendationService

__all__ = [
    "Exclusions",
    "InferenceEngine",
    "TopKCache",
    "MicroBatcher",
    "RecommendationService",
    "LatencyTracker",
]
