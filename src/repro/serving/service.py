"""The serving façade: engine + cache + batcher + online fold-in.

:class:`RecommendationService` is the one object a request handler
talks to.  A ``recommend`` call flows::

    request ──► TopKCache ──hit──────────────────────────► response
                   │miss
                   ▼
              MicroBatcher (coalesces concurrent requests)
                   │
                   ▼
              InferenceEngine (batched vectorized scoring)

and an online check-in (:meth:`fold_in`) flows the other way: the
:class:`~repro.streaming.updater.IncrementalUpdater` refines the user's
embedding as a batch of one, the engine resynchronizes that row, and
the user's cache entries are invalidated so the very next request
reflects the update.

Visited-POI exclusion goes through the same
:func:`repro.core.recommend.visited_poi_ids` helper the offline
:class:`~repro.core.recommend.Recommender` uses, plus any check-ins
folded in *through this service* (the underlying dataset is immutable).
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.recommend import visited_poi_ids
from repro.data.dataset import CheckinDataset
from repro.data.vocabulary import DatasetIndex
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.serving.batcher import MicroBatcher
from repro.serving.cache import TopKCache
from repro.serving.engine import InferenceEngine
from repro.streaming.updater import IncrementalUpdater

__all__ = ["RecommendationService", "LatencyTracker"]


class LatencyTracker:
    """Online latency accounting over a shared telemetry histogram.

    Thin façade over :class:`~repro.obs.metrics.Histogram`: the service
    keeps its familiar ``request_latency.summary()`` API while the same
    samples land in the metrics registry (when one is attached), so the
    numbers in ``service.stats()`` and the exported telemetry can never
    disagree.

    ``summary()`` historically mixed a *lifetime* ``mean_ms`` with
    *windowed* percentiles, which drift apart once the window rolls
    over.  Both views are now reported explicitly — ``mean_ms`` keeps
    its lifetime semantics (and is aliased as ``lifetime_mean_ms``),
    ``window_mean_ms``/``window_count`` describe the same recent
    samples the percentiles are computed over.
    """

    def __init__(self, window: int = 4096,
                 histogram: Optional[Histogram] = None) -> None:
        self.histogram = (Histogram(window=window)
                          if histogram is None else histogram)

    def record(self, elapsed_ms: float) -> None:
        self.histogram.observe(elapsed_ms)

    def percentile(self, q: float) -> float:
        return self.histogram.percentile(q)

    @property
    def count(self) -> int:
        return self.histogram.count

    @property
    def total_ms(self) -> float:
        return self.histogram.total

    @property
    def samples_ms(self) -> List[float]:
        """Recent samples (the percentile window)."""
        return self.histogram.window_samples()

    @property
    def mean_ms(self) -> float:
        """Lifetime mean (all observations, not just the window)."""
        return self.histogram.lifetime_mean

    def summary(self) -> dict:
        hist = self.histogram
        return {
            "count": hist.count,
            "mean_ms": hist.lifetime_mean,
            "lifetime_mean_ms": hist.lifetime_mean,
            "window_mean_ms": hist.window_mean,
            "window_count": hist.window_count,
            "p50_ms": self.percentile(50),
            "p95_ms": self.percentile(95),
        }


class RecommendationService:
    """Batched, cached, online-updatable top-k recommendation serving.

    Parameters
    ----------
    model, index:
        A trained :class:`~repro.core.model.STTransRec` and its entity
        index (use :meth:`from_checkpoint` to load both from disk).
    dataset:
        Training dataset — supplies the target-city catalogue and the
        visited sets for exclusion.
    target_city:
        The city whose POIs are served.
    cache_size / cache_ttl_seconds:
        Top-k result cache shape; ``cache_size=0`` disables caching.
    use_batcher:
        Coalesce concurrent requests through a :class:`MicroBatcher`
        worker thread.  Disable for strictly synchronous serving (the
        engine is still batched for :meth:`recommend_many`).
    max_batch_size / max_wait_ms:
        Micro-batching knobs (see :class:`MicroBatcher`).
    registry:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`.  When
        given, latency trackers are backed by shared
        ``serving.request_latency_ms`` / ``serving.hit_latency_ms`` /
        ``serving.miss_latency_ms`` histograms and the cache and
        batcher export their own ``serving.cache.*`` /
        ``serving.batch.*`` series into the same registry.
    """

    def __init__(self, model, index: DatasetIndex, dataset: CheckinDataset,
                 target_city: str, *, cache_size: int = 4096,
                 cache_ttl_seconds: Optional[float] = None,
                 use_batcher: bool = True, max_batch_size: int = 64,
                 max_wait_ms: float = 2.0,
                 registry: Optional[MetricsRegistry] = None,
                 dtype=np.float64) -> None:
        self.model = model
        self.index = index
        self.dataset = dataset
        self.target_city = target_city
        self.registry = registry
        self.engine = InferenceEngine.from_model(model, index, dataset,
                                                 target_city, dtype=dtype)
        self.cache: Optional[TopKCache] = (
            TopKCache(max_size=cache_size, ttl_seconds=cache_ttl_seconds,
                      registry=registry)
            if cache_size > 0 else None)
        self.updater = IncrementalUpdater(
            model, index, dataset, self.engine.catalogue_poi_ids,
            fold_in_steps=20)
        self.batcher: Optional[MicroBatcher] = (
            MicroBatcher(self._handle_batch, max_batch_size=max_batch_size,
                         max_wait_ms=max_wait_ms, registry=registry)
            if use_batcher else None)
        # Check-ins folded in online; the immutable dataset can't absorb
        # them, but exclusion and fold-in history must still see them.
        self._folded_in: Dict[int, Set[int]] = {}
        self._fold_lock = threading.Lock()

        def tracker(metric: str) -> LatencyTracker:
            if registry is None:
                return LatencyTracker()
            return LatencyTracker(histogram=registry.histogram(metric))

        self.request_latency = tracker("serving.request_latency_ms")
        self.hit_latency = tracker("serving.hit_latency_ms")
        self.miss_latency = tracker("serving.miss_latency_ms")
        self.fold_ins = 0

    @classmethod
    def from_checkpoint(cls, path, dataset: CheckinDataset,
                        target_city: str, **kwargs) -> "RecommendationService":
        """Build a service from a saved checkpoint file."""
        from repro.core.checkpoint import load_checkpoint

        model, index = load_checkpoint(path)
        return cls(model, index, dataset, target_city, **kwargs)

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def _user_index(self, user_id: int) -> int:
        idx = self.index.users.get(user_id)
        if idx < 0:
            raise KeyError(f"user {user_id} unknown to the model")
        return idx

    def _excluded(self, user_id: int) -> Set[int]:
        """Visited POIs: training data plus online fold-ins."""
        visited = visited_poi_ids(self.dataset, user_id)
        extra = self._folded_in.get(user_id)
        return visited | extra if extra else visited

    def _handle_batch(
        self, requests: Sequence[Tuple[int, int, bool, Set[int]]]
    ) -> List[List[Tuple[int, float]]]:
        """Score a batch of (user_index, k, exclude, visited) requests."""
        indices = [r[0] for r in requests]
        max_k = max(r[1] for r in requests)
        exclude = [r[3] if r[2] else None for r in requests]
        ranked = self.engine.top_k_catalogue(indices, max_k,
                                             exclude_poi_ids=exclude)
        return [row[:k] for row, (_i, k, _e, _v) in zip(ranked, requests)]

    def recommend(self, user_id: int, k: int = 10,
                  exclude_visited: bool = True) -> List[Tuple[int, float]]:
        """Top-k ``(poi_id, score)`` in the target city for ``user_id``.

        Served from cache when possible; otherwise scored through the
        micro-batcher (merging with any concurrently arriving requests)
        or directly by the engine.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        start = time.perf_counter()
        if self.cache is not None:
            cached = self.cache.get(user_id, k, exclude_visited)
            if cached is not None:
                elapsed = (time.perf_counter() - start) * 1000.0
                self.request_latency.record(elapsed)
                self.hit_latency.record(elapsed)
                return list(cached)
        user_index = self._user_index(user_id)
        visited = self._excluded(user_id) if exclude_visited else set()
        request = (user_index, k, exclude_visited, visited)
        if self.batcher is not None:
            ranked = self.batcher.submit(request).result()
        else:
            ranked = self._handle_batch([request])[0]
        if self.cache is not None:
            self.cache.put(user_id, k, ranked, exclude_visited)
        elapsed = (time.perf_counter() - start) * 1000.0
        self.request_latency.record(elapsed)
        self.miss_latency.record(elapsed)
        return list(ranked)

    def recommend_many(self, user_ids: Sequence[int], k: int = 10,
                       exclude_visited: bool = True
                       ) -> Dict[int, List[Tuple[int, float]]]:
        """Top-k lists for many users in one engine pass.

        Unknown users are skipped (detectable by absence, matching
        :meth:`Recommender.batch_recommend`).  Bypasses the
        micro-batcher — the call *is* already a batch — but still reads
        and fills the cache.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        start = time.perf_counter()
        out: Dict[int, List[Tuple[int, float]]] = {}
        pending: List[Tuple[int, int]] = []
        for user_id in dict.fromkeys(user_ids):
            cached = (self.cache.get(user_id, k, exclude_visited)
                      if self.cache is not None else None)
            if cached is not None:
                out[user_id] = list(cached)
                continue
            idx = self.index.users.get(user_id)
            if idx >= 0:
                pending.append((user_id, idx))
        if pending:
            exclude = [self._excluded(u) if exclude_visited else None
                       for u, _idx in pending]
            ranked = self.engine.top_k_catalogue(
                [idx for _u, idx in pending], k, exclude_poi_ids=exclude)
            for (user_id, _idx), row in zip(pending, ranked):
                out[user_id] = row
                if self.cache is not None:
                    self.cache.put(user_id, k, row, exclude_visited)
        self.request_latency.record((time.perf_counter() - start) * 1000.0)
        return out

    # ------------------------------------------------------------------
    # Online updates
    # ------------------------------------------------------------------
    def fold_in(self, user_id: int, new_poi_ids: Sequence[int]) -> np.ndarray:
        """Fold fresh check-ins into the served model for one user.

        Runs BPR fold-in as a batch of one
        (:meth:`IncrementalUpdater.fold_in_user`: only this user's
        embedding row moves, negatives are never visited POIs),
        resynchronizes that row in the frozen engine, and invalidates
        the user's cache entries so the next request is a miss that
        reflects the update.  Other users' cache entries are untouched.
        Returns the updated embedding row.

        Raises ``KeyError`` for an unknown user or POI and
        ``ValueError`` for an empty ``new_poi_ids`` or when no unvisited
        catalogue POI would be left as a negative, before any row moves.
        """
        user_index = self._user_index(user_id)
        poi_rows = np.array(
            [self.index.pois.index_of(int(p)) for p in new_poi_ids],
            dtype=np.int64)
        if poi_rows.size == 0:
            raise ValueError("need at least one new check-in")
        with self._fold_lock:
            self.updater.fold_in_user(user_index, poi_rows)
            row = self.model.user_embeddings.weight.data[user_index].copy()
            self.engine.refresh_user(user_index)
            self._folded_in.setdefault(user_id, set()).update(
                int(p) for p in new_poi_ids)
            if self.cache is not None:
                self.cache.invalidate(user_id)
            self.fold_ins += 1
            if self.registry is not None:
                self.registry.counter("serving.fold_ins").inc()
        return row

    def refresh_model(self) -> None:
        """Resynchronize *all* engine buffers and drop the whole cache.

        Call after retraining or bulk-updating the underlying model.
        """
        self.engine.refresh()
        if self.cache is not None:
            self.cache.invalidate_all()

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Latency, cache, batcher, engine, and fold-in counters."""
        return {
            "requests": self.request_latency.summary(),
            "cache_hits": self.hit_latency.summary(),
            "cache_misses": self.miss_latency.summary(),
            "cache": self.cache.stats() if self.cache is not None else None,
            "batcher": (self.batcher.stats()
                        if self.batcher is not None else None),
            "engine": self.engine.stats(),
            "fold_ins": self.fold_ins,
        }

    def close(self) -> None:
        """Stop the micro-batcher worker thread (idempotent)."""
        if self.batcher is not None:
            self.batcher.close()

    def __enter__(self) -> "RecommendationService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"RecommendationService(city={self.target_city!r}, "
                f"catalogue={self.engine.catalogue_size}, "
                f"cache={'on' if self.cache is not None else 'off'}, "
                f"batcher={'on' if self.batcher is not None else 'off'})")
