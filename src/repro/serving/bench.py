"""Serving benchmark: batched engine vs naive per-user recommendation.

Builds a synthetic world, freezes a model into a checkpoint, then
measures three things on identical request streams:

1. **Throughput** — a naive loop over
   :meth:`STTransRec.score_pois_for_user` (the model's reference
   scoring: autograd forward per user, then a stable argsort) against
   one batched :meth:`InferenceEngine.top_k_catalogue` pass.
2. **Cache behaviour** — cold (miss) vs warm (hit) request latency
   through the full :class:`RecommendationService`.
3. **Micro-batching** — mean coalesced batch size under a burst of
   concurrent single-user requests.

Run from the shell with ``repro serve-bench`` (``--tiny`` for the CI
smoke configuration); the report lands in
``benchmarks/results/serving_throughput.txt``.
"""

from __future__ import annotations

import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from repro.core.checkpoint import save_checkpoint
from repro.core.config import STTransRecConfig
from repro.core.model import STTransRec
from repro.core.recommend import visited_poi_ids
from repro.data.synthetic import foursquare_like, generate_dataset
from repro.serving.service import RecommendationService

__all__ = ["ServingBenchResult", "run_serving_benchmark", "format_report"]


@dataclass
class ServingBenchResult:
    """All numbers the serving benchmark reports."""

    num_users: int
    catalogue_size: int
    embedding_dim: int
    batch_size: int
    k: int
    repeats: int
    naive_seconds: float
    engine64_seconds: float
    engine32_seconds: float
    cold_ms: float
    warm_ms: float
    mean_coalesced_batch: float
    burst_requests: int

    @property
    def naive_users_per_second(self) -> float:
        return self.batch_size / self.naive_seconds

    @property
    def engine64_users_per_second(self) -> float:
        return self.batch_size / self.engine64_seconds

    @property
    def engine32_users_per_second(self) -> float:
        return self.batch_size / self.engine32_seconds

    @property
    def speedup64(self) -> float:
        """Batched engine speedup at model precision (exact parity)."""
        return self.naive_seconds / self.engine64_seconds

    @property
    def speedup(self) -> float:
        """Batched engine speedup at serving precision (float32)."""
        return self.naive_seconds / self.engine32_seconds

    @property
    def cache_speedup(self) -> float:
        return self.cold_ms / self.warm_ms if self.warm_ms else float("inf")


def _best_time(fn, repeats: int) -> float:
    """Best-of-N wall time: robust to scheduler noise, like timeit."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_serving_benchmark(scale: float = 3.0, batch_size: int = 256,
                          k: int = 10, repeats: int = 3, seed: int = 0,
                          embedding_dim: int = 64,
                          checkpoint_path=None,
                          registry=None) -> ServingBenchResult:
    """Benchmark serving against the naive per-user scoring loop.

    Parameters
    ----------
    scale:
        Synthetic world size (``foursquare_like`` preset scale).
    batch_size:
        Users scored per measured request batch (acceptance target:
        ≥ 5× at batch sizes ≥ 64).
    checkpoint_path:
        Where to write the synthetic checkpoint; a temp file by default.
    registry:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` the
        benchmark services export ``serving.*`` metrics into.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    config = foursquare_like(scale=scale, seed=seed)
    dataset, _truth = generate_dataset(config)
    index = dataset.build_index()
    model_config = STTransRecConfig(embedding_dim=embedding_dim, seed=seed)
    # Scoring cost is independent of training quality, so a random-init
    # model keeps the benchmark fast while exercising the real stack.
    model = STTransRec(index.num_users, index.num_pois, index.num_words,
                       model_config)
    model.eval()
    target_city = config.target_city

    if checkpoint_path is None:
        tmp = tempfile.NamedTemporaryFile(suffix=".npz", delete=False)
        tmp.close()
        checkpoint_path = tmp.name
    save_checkpoint(model, index, checkpoint_path)

    rng = np.random.default_rng(seed)
    all_users = sorted(dataset.users)
    request_users = [int(u) for u in
                     rng.choice(all_users, size=batch_size, replace=True)]

    # --- naive path: per-user autograd scoring through the model -----
    catalogue = np.array([p.poi_id for p in
                          dataset.pois_in_city(target_city)])

    def run_naive() -> None:
        for user_id in request_users:
            visited = visited_poi_ids(dataset, user_id)
            candidates = catalogue[[p not in visited for p in catalogue]]
            scores = model.score_pois_for_user(
                index.users.index_of(user_id),
                np.array([index.pois.index_of(int(p)) for p in candidates]))
            order = np.argsort(-scores, kind="stable")[:k]
            # Build the (poi_id, score) list a caller would receive.
            [(int(candidates[i]), float(scores[i])) for i in order]

    naive_seconds = _best_time(run_naive, repeats)

    # --- batched path: engines built from the saved checkpoint --------
    from repro.serving.engine import InferenceEngine

    user_indices = [index.users.index_of(u) for u in request_users]
    exclusions = [visited_poi_ids(dataset, u) for u in request_users]
    engine_seconds = {}
    for dtype in (np.float64, np.float32):
        engine = InferenceEngine.from_checkpoint(
            checkpoint_path, dataset, target_city, dtype=dtype)

        def run_engine() -> None:
            engine.top_k_catalogue(user_indices, k,
                                   exclude_poi_ids=exclusions)

        engine_seconds[np.dtype(dtype).name] = _best_time(run_engine,
                                                          repeats)
        catalogue_size = engine.catalogue_size

    # --- cache: cold vs warm latency through the service --------------
    with RecommendationService.from_checkpoint(
            checkpoint_path, dataset, target_city,
            use_batcher=False, registry=registry) as service:
        probe = request_users[0]
        start = time.perf_counter()
        service.recommend(probe, k=k)
        cold_ms = (time.perf_counter() - start) * 1000.0
        warm_times = []
        for _ in range(max(repeats, 3)):
            start = time.perf_counter()
            service.recommend(probe, k=k)
            warm_times.append((time.perf_counter() - start) * 1000.0)
        warm_ms = min(warm_times)

    # --- micro-batching: coalescing under a concurrent burst ----------
    burst = min(batch_size, 32)
    with RecommendationService.from_checkpoint(
            checkpoint_path, dataset, target_city, cache_size=0,
            max_batch_size=batch_size, max_wait_ms=25.0,
            registry=registry) as service:
        barrier = threading.Barrier(burst)

        def fire(user_id: int) -> None:
            barrier.wait()
            service.recommend(user_id, k=k)

        threads = [threading.Thread(target=fire, args=(u,))
                   for u in request_users[:burst]]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        batcher_stats = service.batcher.stats()

    return ServingBenchResult(
        num_users=len(all_users),
        catalogue_size=catalogue_size,
        embedding_dim=embedding_dim,
        batch_size=batch_size,
        k=k,
        repeats=repeats,
        naive_seconds=naive_seconds,
        engine64_seconds=engine_seconds["float64"],
        engine32_seconds=engine_seconds["float32"],
        cold_ms=cold_ms,
        warm_ms=warm_ms,
        mean_coalesced_batch=batcher_stats["mean_batch_size"],
        burst_requests=burst,
    )


def format_report(result: ServingBenchResult) -> str:
    """Human-readable report (the serve-bench CLI output)."""
    lines = [
        "Serving benchmark: batched InferenceEngine vs naive per-user loop",
        "=" * 63,
        f"world: {result.num_users} users, "
        f"{result.catalogue_size} target-city POIs, "
        f"d={result.embedding_dim}",
        f"requests: batch of {result.batch_size} users, top-{result.k}, "
        f"best of {result.repeats}",
        "",
        "throughput",
        f"  naive per-user loop   : {result.naive_seconds * 1000:9.2f} ms"
        f"  ({result.naive_users_per_second:10.1f} users/s)",
        f"  batched engine (f64)  : "
        f"{result.engine64_seconds * 1000:9.2f} ms"
        f"  ({result.engine64_users_per_second:10.1f} users/s, "
        f"{result.speedup64:.1f}x, exact parity)",
        f"  batched engine (f32)  : "
        f"{result.engine32_seconds * 1000:9.2f} ms"
        f"  ({result.engine32_users_per_second:10.1f} users/s, "
        f"serving precision)",
        f"  speedup               : {result.speedup:9.1f}x  "
        f"(batched f32 engine vs naive loop)",
        "",
        "cache (single-user request via RecommendationService)",
        f"  cold (miss) latency   : {result.cold_ms:9.3f} ms",
        f"  warm (hit) latency    : {result.warm_ms:9.3f} ms",
        f"  hit speedup           : {result.cache_speedup:9.1f}x",
        "",
        "micro-batching",
        f"  burst of {result.burst_requests} concurrent requests "
        f"coalesced into batches of {result.mean_coalesced_batch:.1f} "
        f"(mean)",
    ]
    return "\n".join(lines)


def run_and_report(scale: float = 3.0, batch_size: int = 256, k: int = 10,
                   repeats: int = 3, seed: int = 0,
                   embedding_dim: int = 64,
                   out_path=None, registry=None) -> str:
    """Run the benchmark, optionally persist the report, return it."""
    result = run_serving_benchmark(scale=scale, batch_size=batch_size,
                                   k=k, repeats=repeats, seed=seed,
                                   embedding_dim=embedding_dim,
                                   registry=registry)
    report = format_report(result)
    if out_path:
        out_path = Path(out_path)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(report + "\n", encoding="utf-8")
    return report
