"""Embedding-space diagnostics for trained models.

Answers the questions the paper's Fig. 1a poses about city-independent
features: after training, do POIs with the same semantics sit together
*across* cities?  Has the MMD layer actually closed the distribution
gap?  These diagnostics power the transfer-visualization example and
the library's own regression tests on transfer quality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.data.dataset import CheckinDataset
from repro.data.vocabulary import DatasetIndex
from repro.transfer.kernels import GaussianKernel, median_heuristic_bandwidth
from repro.transfer.mmd import MMDBatch


@dataclass
class EmbeddingSpace:
    """A trained POI embedding table with its dataset context.

    Attributes
    ----------
    vectors:
        ``(num_pois, d)`` embedding matrix, in index order.
    index:
        The entity index mapping POI ids to rows.
    dataset:
        The dataset the model was trained on (for cities and words).
    """

    vectors: np.ndarray
    index: DatasetIndex
    dataset: CheckinDataset

    def __post_init__(self) -> None:
        if self.vectors.shape[0] != self.index.num_pois:
            raise ValueError(
                f"vector count {self.vectors.shape[0]} != indexed POIs "
                f"{self.index.num_pois}"
            )

    def vector_of(self, poi_id: int) -> np.ndarray:
        """Embedding row for a dataset POI id."""
        return self.vectors[self.index.pois.index_of(poi_id)]

    def rows_for_city(self, city: str) -> Tuple[np.ndarray, List[int]]:
        """(embedding block, poi ids) for one city."""
        pois = self.dataset.pois_in_city(city)
        if not pois:
            raise ValueError(f"no POIs in city {city!r}")
        ids = [p.poi_id for p in pois]
        rows = np.array([self.index.pois.index_of(i) for i in ids])
        return self.vectors[rows], ids

    def normalized(self) -> np.ndarray:
        """Unit-norm copy of the embedding matrix."""
        norms = np.linalg.norm(self.vectors, axis=1, keepdims=True)
        return self.vectors / np.maximum(norms, 1e-12)


@dataclass(frozen=True)
class CrossCityAlignment:
    """Topic-alignment summary between two cities.

    ``same_topic_cosine`` is the mean cosine between same-topic centroid
    pairs across the two cities; ``different_topic_cosine`` between
    different-topic pairs.  The ``margin`` (same − different) measures
    how well city-independent features survived training: near zero
    means topics are entangled with city identity.
    """

    city_a: str
    city_b: str
    same_topic_cosine: float
    different_topic_cosine: float
    topics_compared: int

    @property
    def margin(self) -> float:
        return self.same_topic_cosine - self.different_topic_cosine


def cross_city_alignment(space: EmbeddingSpace, city_a: str,
                         city_b: str) -> CrossCityAlignment:
    """Topic-centroid alignment between two cities.

    Requires POIs to carry topic labels (the synthetic generator sets
    them; real data has ``topic = -1`` and raises).
    """
    normalized = space.normalized()
    centroids: Dict[Tuple[str, int], np.ndarray] = {}
    buckets: Dict[Tuple[str, int], List[int]] = {}
    for city in (city_a, city_b):
        for poi in space.dataset.pois_in_city(city):
            if poi.topic < 0:
                raise ValueError(
                    "cross_city_alignment needs topic labels "
                    "(synthetic datasets only)"
                )
            row = space.index.pois.index_of(poi.poi_id)
            buckets.setdefault((city, poi.topic), []).append(row)
    for key, rows in buckets.items():
        centroids[key] = normalized[rows].mean(axis=0)

    def cosine(a: np.ndarray, b: np.ndarray) -> float:
        return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b) + 1e-12))

    topics_a = {t for c, t in centroids if c == city_a}
    topics_b = {t for c, t in centroids if c == city_b}
    shared = sorted(topics_a & topics_b)
    if not shared:
        raise ValueError("no shared topics between the two cities")

    same = [cosine(centroids[(city_a, t)], centroids[(city_b, t)])
            for t in shared]
    different = [
        cosine(centroids[(city_a, t)], centroids[(city_b, other)])
        for t in shared for other in shared if other != t
    ]
    return CrossCityAlignment(
        city_a=city_a,
        city_b=city_b,
        same_topic_cosine=float(np.mean(same)),
        different_topic_cosine=float(np.mean(different)) if different
        else 0.0,
        topics_compared=len(shared),
    )


def embedding_mmd(space: EmbeddingSpace, city_a: str, city_b: str,
                  sample_size: int = 256, bandwidth: Optional[float] = None,
                  seed: int = 0) -> float:
    """MMD² between two cities' POI embedding distributions.

    POIs are sampled uniformly per city (not by check-ins), measuring
    the *catalogue* gap the transfer layer is asked to close.
    """
    rng = np.random.default_rng(seed)
    block_a, _ = space.rows_for_city(city_a)
    block_b, _ = space.rows_for_city(city_b)
    take_a = block_a[rng.integers(0, len(block_a), size=min(sample_size,
                                                            len(block_a)))]
    take_b = block_b[rng.integers(0, len(block_b), size=min(sample_size,
                                                            len(block_b)))]
    if bandwidth is None:
        bandwidth = median_heuristic_bandwidth(take_a, take_b)
    kernel = GaussianKernel(bandwidth)
    return float(MMDBatch(take_a, take_b, kernel).loss)
