"""Degraded-answer chain: partial merge → stale cache → popularity.

A request that cannot be answered in full before its deadline is not a
failure — it is an opportunity to answer *less well*.  The chain walks
four quality tiers, best first, and tags every response truthfully:

``full``
    All catalogue slices merged; bit-identical to the single-process
    :class:`~repro.serving.service.RecommendationService` ranking.
``partial``
    Only the surviving shards' slices merged.  Still a valid ranking of
    the catalogue subset that was scored (ST-TransRec's top-K merge is
    closed under subsets).
``cached``
    A previously computed ranking for this exact request shape, served
    stale-while-revalidate from the serving :class:`TopKCache` — the
    scores may be stale but were once exact.
``fallback``
    The terminal tier: an ItemPop-style popularity ranking that needs
    no model, no shards, and no history for the user.  Always
    available, never personalised.

The chain itself is pure policy: the router merges shard partials
*before* calling :meth:`FallbackChain.answer` (keeping this package
import-independent of ``repro.fleet``), and the chain only decides
which tier the request lands on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

__all__ = [
    "QUALITY_FULL",
    "QUALITY_PARTIAL",
    "QUALITY_CACHED",
    "QUALITY_FALLBACK",
    "QUALITY_TIERS",
    "ResilientResponse",
    "PopularityFallback",
    "FallbackChain",
]

QUALITY_FULL = "full"
QUALITY_PARTIAL = "partial"
QUALITY_CACHED = "cached"
QUALITY_FALLBACK = "fallback"

#: All quality tiers, ordered best-first.
QUALITY_TIERS = (QUALITY_FULL, QUALITY_PARTIAL, QUALITY_CACHED,
                 QUALITY_FALLBACK)


@dataclass
class ResilientResponse:
    """One answered request, annotated with how it was answered.

    ``items`` is the ``(poi_id, score)`` ranking (possibly empty for a
    shed request with no fallback source), ``quality`` one of
    :data:`QUALITY_TIERS`, ``deadline_met`` whether the response was
    returned to the caller within the request's budget (``latency_ms``
    runs to that return), and ``shed`` whether the admission controller
    refused the request at the door (in which case ``items`` came
    straight from the fallback chain).
    """

    user_id: int
    items: List[Tuple[int, float]]
    quality: str
    deadline_met: bool
    latency_ms: float
    shed: bool = False
    shed_reason: str = ""

    def to_dict(self) -> dict:
        return {
            "user_id": self.user_id,
            "items": [(int(p), float(s)) for p, s in self.items],
            "quality": self.quality,
            "deadline_met": self.deadline_met,
            "latency_ms": self.latency_ms,
            "shed": self.shed,
            "shed_reason": self.shed_reason,
        }


class PopularityFallback:
    """ItemPop-style terminal fallback: rank POIs by training popularity.

    Mirrors :class:`repro.baselines.itempop.ItemPopBaseline` but is
    precomputed once against the serving catalogue, so answering costs
    one slice (or one filtered scan when excluding visited POIs).
    Ties break by catalogue position, matching the engine's stable
    ordering discipline.
    """

    def __init__(self, visit_counts: Dict[int, int],
                 catalogue_poi_ids: Sequence[int]) -> None:
        poi_ids = np.asarray(catalogue_poi_ids, dtype=np.int64)
        counts = np.array([float(visit_counts.get(int(p), 0))
                           for p in poi_ids], dtype=np.float64)
        # Popularity descending, catalogue position ascending on ties.
        order = np.lexsort((np.arange(len(poi_ids)), -counts))
        self._ranked_ids = poi_ids[order]
        self._ranked_scores = counts[order]

    @property
    def catalogue_size(self) -> int:
        return int(len(self._ranked_ids))

    def top_k(self, k: int,
              exclude: Optional[Set[int]] = None) -> List[Tuple[int, float]]:
        """Top-``k`` most popular POIs, optionally skipping ``exclude``."""
        if k <= 0:
            return []
        if not exclude:
            ids = self._ranked_ids[:k]
            scores = self._ranked_scores[:k]
            return [(int(p), float(s)) for p, s in zip(ids, scores)]
        out: List[Tuple[int, float]] = []
        for poi, score in zip(self._ranked_ids, self._ranked_scores):
            if int(poi) in exclude:
                continue
            out.append((int(poi), float(score)))
            if len(out) == k:
                break
        return out


class FallbackChain:
    """Walks the quality tiers for one request and reports which hit.

    Parameters
    ----------
    cache:
        A serving :class:`~repro.serving.cache.TopKCache` (or ``None``).
        Read via ``get_stale`` so expired entries still count — a stale
        exact answer beats a popularity guess.
    popularity:
        A :class:`PopularityFallback` (or ``None`` to disable the
        terminal tier).
    serve_stale:
        When ``False``, only *fresh* cache entries are served.
    """

    def __init__(self, cache=None, popularity: Optional[PopularityFallback]
                 = None, serve_stale: bool = True) -> None:
        self.cache = cache
        self.popularity = popularity
        self.serve_stale = serve_stale
        self.answers_by_quality: Dict[str, int] = {
            tier: 0 for tier in QUALITY_TIERS}

    def answer(self, user_id: int, k: int, *, exclude_visited: bool = True,
               partial_items: Optional[List[Tuple[int, float]]] = None,
               exclude: Optional[Set[int]] = None,
               ) -> Tuple[List[Tuple[int, float]], str]:
        """Best available degraded answer and the tier it came from.

        ``partial_items`` is the router's pre-merged surviving-shard
        ranking (``None`` when no slice completed — an *empty* list is
        treated the same).  ``exclude`` is the user's visited-POI set,
        applied to the popularity tier; partial/cached items already
        honour the exclusion upstream.
        """
        if partial_items:
            self.answers_by_quality[QUALITY_PARTIAL] += 1
            return partial_items, QUALITY_PARTIAL
        if self.cache is not None:
            hit = self.cache.get_stale(user_id, k,
                                       exclude_visited=exclude_visited)
            if hit is not None:
                value, fresh = hit
                if fresh or self.serve_stale:
                    self.answers_by_quality[QUALITY_CACHED] += 1
                    return list(value), QUALITY_CACHED
        if self.popularity is not None:
            items = self.popularity.top_k(
                k, exclude=exclude if exclude_visited else None)
            self.answers_by_quality[QUALITY_FALLBACK] += 1
            return items, QUALITY_FALLBACK
        self.answers_by_quality[QUALITY_FALLBACK] += 1
        return [], QUALITY_FALLBACK

    def note_full(self) -> None:
        """Record a request answered at full quality (for the tally)."""
        self.answers_by_quality[QUALITY_FULL] += 1

    def stats(self) -> dict:
        return {"answers_by_quality": dict(self.answers_by_quality)}
