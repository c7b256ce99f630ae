"""Microbenchmarks for the hot path, emitting machine-readable JSON.

Five benchmarks, one per layer of the optimization stack:

* **train_step** — end-to-end data-parallel step time, three legs:
  reference path (dense f64 gradients over pickled pipes), optimized
  f64 path (sparse rows over shared memory), and optimized f32 path
  (the precision policy of :mod:`repro.nn.dtypes` on top).  Same data,
  same seeds.  Headline bars: optimized-f64 ≥ 1.5× the reference and
  f32 ≥ 1.25× the optimized-f64 leg, both with 2 workers.
* **embedding_backward** — ``gather_rows`` backward, dense scatter-add
  vs :class:`~repro.nn.sparse.SparseRowGrad` construction.
* **transport** — one gradient dict round-trip: ``pickle`` bytes (the
  pipe's serialization cost) vs shared-memory slot write + read.
* **negative_sampling** — one epoch of interaction batch construction,
  the seed's per-positive Python rejection loop vs the vectorized
  ``Generator.integers`` + ``searchsorted`` resampler.
* **serving** — the batched serving engine throughput (delegates to
  :func:`repro.serving.bench.run_serving_benchmark`).

``run_train_bench`` / ``run_serving_bench`` write ``BENCH_train.json``
and ``BENCH_serving.json`` (repo root by convention) with per-op
profiler attribution from :mod:`repro.nn.profile`.
``check_against_baseline`` is the CI regression gate: it compares the
ratio metrics (machine-independent speedups) of a fresh run against
``benchmarks/perf/baselines.json`` within a tolerance band.

Run from the shell: ``repro perf-bench [--tiny]``.
"""

from __future__ import annotations

import json
import pickle
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.nn.layers import Embedding
from repro.nn.profile import profile_ops
from repro.nn.sparse import SparseRowGrad
from repro.perf.config import PerfConfig
from repro.perf.transport import ShmTransport, WorkerTransportClient
from repro.utils.logging import get_logger

logger = get_logger("perf.bench")

SCHEMA_VERSION = 4


def _best_seconds(fn, repeats: int, warmup: int = 1) -> float:
    """Best-of-N wall time (robust to scheduler noise, like timeit)."""
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# ----------------------------------------------------------------------
# 1. Embedding backward: dense scatter-add vs sparse rows
# ----------------------------------------------------------------------
def bench_embedding_backward(num_embeddings: int = 20000, dim: int = 64,
                             batch: int = 4096, repeats: int = 5,
                             seed: int = 0) -> Dict:
    """Forward+backward of one embedding lookup, dense vs sparse grad."""
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, num_embeddings, size=batch)

    def run(sparse: bool) -> float:
        emb = Embedding(num_embeddings, dim, rng=seed, sparse_grad=sparse)

        def step() -> None:
            emb.zero_grad()
            out = emb(ids)
            out.backward(np.ones(out.shape))

        return _best_seconds(step, repeats)

    dense_s = run(False)
    sparse_s = run(True)
    return {
        "num_embeddings": num_embeddings,
        "embedding_dim": dim,
        "batch": batch,
        "dense_ms": dense_s * 1e3,
        "sparse_ms": sparse_s * 1e3,
        "speedup": dense_s / sparse_s,
    }


# ----------------------------------------------------------------------
# 2. Transport: pickled dict round-trip vs shared-memory slot
# ----------------------------------------------------------------------
def bench_transport(num_embeddings: int = 20000, dim: int = 64,
                    touched_rows: int = 2048, repeats: int = 20,
                    seed: int = 0, dtype: str = "float64") -> Dict:
    """One gradient-dict hop, as the pipe vs the shm transport pay it.

    The pipe cost is ``pickle.dumps`` + ``pickle.loads`` of the dense
    dict (the copy through the pipe itself is at least that expensive);
    the shm cost is a worker-side slot write (the sparse rows scattered
    into the flat slot) plus the master-side view.
    ``dtype`` sizes the payloads — an f32 run moves half the bytes.
    """
    rng = np.random.default_rng(seed)
    dense_grads = {
        "embeddings.weight":
            rng.standard_normal((num_embeddings, dim)).astype(dtype),
        "tower.weight": rng.standard_normal((2 * dim, dim)).astype(dtype),
        "tower.bias": rng.standard_normal(dim).astype(dtype),
    }
    ids = np.unique(rng.integers(0, num_embeddings, size=touched_rows))
    sparse_grads = dict(dense_grads)
    sparse_grads["embeddings.weight"] = SparseRowGrad(
        (num_embeddings, dim), ids,
        rng.standard_normal((ids.size, dim)).astype(dtype))

    pipe_s = _best_seconds(
        lambda: pickle.loads(pickle.dumps(dense_grads)), repeats)

    specs = [(name, np.shape(g), dtype)
             for name, g in dense_grads.items()]
    transport = ShmTransport(specs, num_slots=1)
    try:
        client = WorkerTransportClient(transport.layout, 0)
        try:
            def shm_hop() -> None:
                client.write_grads(sparse_grads)
                transport.read_grads(0)

            shm_s = _best_seconds(shm_hop, repeats)
        finally:
            client.close()
    finally:
        transport.close()

    dense_bytes = sum(np.asarray(g).nbytes for g in dense_grads.values())
    sparse_bytes = sum(
        g.nbytes if isinstance(g, SparseRowGrad) else np.asarray(g).nbytes
        for g in sparse_grads.values())
    return {
        "num_embeddings": num_embeddings,
        "embedding_dim": dim,
        "touched_rows": int(ids.size),
        "dtype": dtype,
        "pipe_ms": pipe_s * 1e3,
        "shm_ms": shm_s * 1e3,
        "speedup": pipe_s / shm_s,
        "dense_payload_bytes": int(dense_bytes),
        "sparse_payload_bytes": int(sparse_bytes),
    }


# ----------------------------------------------------------------------
# 3. Train step: end-to-end reference vs optimized data-parallel step
# ----------------------------------------------------------------------
def _bench_world(scale: float, embedding_dim: int, batch_size: int,
                 seed: int = 7):
    from repro.core.config import STTransRecConfig
    from repro.data.split import make_crossing_city_split
    from repro.data.synthetic import foursquare_like, generate_dataset

    dataset, _truth = generate_dataset(foursquare_like(scale=scale,
                                                       seed=seed))
    split = make_crossing_city_split(dataset, "los_angeles")
    config = STTransRecConfig(embedding_dim=embedding_dim,
                              batch_size=batch_size, seed=seed)
    return split, config


def bench_train_step(workers: int = 2, steps: int = 15, scale: float = 4.0,
                     embedding_dim: int = 128, batch_size: int = 64,
                     warmup_steps: int = 3, rounds: int = 3,
                     seed: int = 7) -> Dict:
    """Steady-state seconds/step: reference vs optimized vs optimized-f32.

    All legs consume identical batch streams from identical initial
    parameter *draws* (the two f64 paths are bit-identical; the f32 leg
    downcasts the same draws and does the same arithmetic in half the
    bytes).  Each trainer is measured over ``rounds`` windows of
    ``steps`` and the fastest window is reported, which filters
    scheduler noise the same way ``timeit`` does.
    """
    from repro.parallel.data_parallel import DataParallelTrainer

    split, config = _bench_world(scale, embedding_dim, batch_size, seed)

    def run(perf: PerfConfig) -> float:
        trainer = DataParallelTrainer(split, config, num_workers=workers,
                                      perf=perf)
        try:
            trainer.run_steps(warmup_steps)
            best = float("inf")
            for _ in range(rounds):
                start = time.perf_counter()
                trainer.run_steps(steps)
                best = min(best, (time.perf_counter() - start) / steps)
            return best
        finally:
            trainer.close()

    baseline = run(PerfConfig.reference())
    optimized = run(PerfConfig())
    fast32 = run(PerfConfig(precision="f32"))
    return {
        "workers": workers,
        "steps": steps,
        "rounds": rounds,
        "warmup_steps": warmup_steps,
        "scale": scale,
        "embedding_dim": embedding_dim,
        "batch_size": batch_size,
        "baseline": {"transport": "pipe", "sparse_grads": False,
                     "dtype": "float64",
                     "seconds_per_step": baseline},
        "optimized": {"transport": "shm", "sparse_grads": True,
                      "dtype": "float64",
                      "seconds_per_step": optimized},
        "optimized_f32": {"transport": "shm", "sparse_grads": True,
                          "dtype": "float32",
                          "seconds_per_step": fast32},
        "speedup": baseline / optimized,
        "f32": {"speedup": baseline / fast32},
        "f32_vs_f64": {"speedup": optimized / fast32},
    }


def bench_negative_sampling(scale: float = 0.5, num_negatives: int = 4,
                            batch_size: int = 256, repeats: int = 3,
                            seed: int = 7) -> Dict:
    """One epoch of interaction batches: Python-loop vs vectorized.

    The reference reimplements the seed's per-positive rejection loop
    (scalar ``Generator.integers`` per candidate, set membership per
    draw) over the *same* sampler state; the contender is
    :meth:`repro.data.sampling.InteractionSampler.epoch`, whose
    negatives come from bulk draws + ``searchsorted`` resampling.
    """
    from repro.data.sampling import InteractionSampler

    split, config = _bench_world(scale, 16, batch_size, seed)
    dataset = split.train
    index = dataset.build_index()

    def make_sampler() -> InteractionSampler:
        return InteractionSampler(dataset, index, split.target_city,
                                  num_negatives=num_negatives, rng=seed)

    def loop_epoch() -> None:
        sampler = make_sampler()
        rng = sampler._rng
        pool = sampler.city_poi_indices
        users, pois, labels = [], [], []
        for u, v in sampler.positives:
            visited = sampler._visited.get(u, set())
            users.append(u)
            pois.append(v)
            labels.append(1.0)
            for _ in range(num_negatives):
                for _ in range(100):
                    candidate = int(pool[rng.integers(0, len(pool))])
                    if candidate not in visited:
                        break
                users.append(u)
                pois.append(candidate)
                labels.append(0.0)
        order = rng.permutation(len(users))
        for start in range(0, len(order), batch_size):
            sl = order[start:start + batch_size]
            _ = (np.asarray(users)[sl], np.asarray(pois)[sl],
                 np.asarray(labels)[sl])

    def vector_epoch() -> None:
        sampler = make_sampler()
        for _batch in sampler.epoch(batch_size):
            pass

    loop_s = _best_seconds(loop_epoch, repeats)
    vector_s = _best_seconds(vector_epoch, repeats)
    probe = make_sampler()
    return {
        "positives": len(probe),
        "num_negatives": num_negatives,
        "batch_size": batch_size,
        "loop_ms": loop_s * 1e3,
        "vectorized_ms": vector_s * 1e3,
        "speedup": loop_s / vector_s,
    }


def profile_train_attribution(scale: float = 0.5, embedding_dim: int = 64,
                              batch_size: int = 256, steps: int = 5,
                              top: int = 8, seed: int = 7) -> Dict:
    """Per-op self-time attribution of single-process training steps.

    Runs the same steps twice under :func:`repro.nn.profile.profile_ops`
    — dense and sparse gradients — so the JSON shows *where* the sparse
    path wins (the ``gather_rows`` backward and downstream allocation).
    """
    from repro.parallel.data_parallel import DataParallelTrainer

    split, config = _bench_world(scale, embedding_dim, batch_size, seed)

    def run(perf: PerfConfig) -> List[Dict]:
        trainer = DataParallelTrainer(split, config, num_workers=1,
                                      perf=perf)
        try:
            with profile_ops() as prof:
                trainer.run_steps(steps)
        finally:
            trainer.close()
        return [{
            "op": s.op,
            "calls": s.calls,
            "forward_ms": s.forward_seconds * 1e3,
            "backward_ms": s.backward_seconds * 1e3,
            "alloc_mb": s.bytes_allocated / 1e6,
        } for s in prof.by_total_time()[:top]]

    return {
        "steps": steps,
        "dense": run(PerfConfig.reference()),
        "sparse": run(PerfConfig(transport="pipe")),
    }


# ----------------------------------------------------------------------
# JSON emission
# ----------------------------------------------------------------------
def _payload_header(benchmark: str) -> Dict:
    return {"benchmark": benchmark, "schema_version": SCHEMA_VERSION}


def run_train_bench(out_path: str = "BENCH_train.json",
                    tiny: bool = False,
                    workers: int = 2,
                    steps: Optional[int] = None) -> Dict:
    """Run all training-side benchmarks and write ``BENCH_train.json``."""
    if tiny:
        kwargs = dict(scale=0.5, embedding_dim=32, batch_size=128,
                      rounds=1)
        emb_kwargs = dict(num_embeddings=2000, dim=32, batch=512,
                          repeats=3)
        tr_kwargs = dict(num_embeddings=2000, dim=32, touched_rows=512,
                         repeats=5)
        ns_kwargs = dict(scale=0.5, batch_size=128, repeats=2)
        steps = steps or 8
    else:
        kwargs = dict(scale=4.0, embedding_dim=128, batch_size=64)
        emb_kwargs = dict()
        tr_kwargs = dict()
        ns_kwargs = dict(scale=2.0)
        steps = steps or 15
    payload = _payload_header("train")
    payload["tiny"] = tiny
    logger.info("benchmarking embedding backward...")
    payload["embedding_backward"] = bench_embedding_backward(**emb_kwargs)
    logger.info("benchmarking gradient transport...")
    payload["transport"] = bench_transport(**tr_kwargs)
    logger.info("benchmarking negative sampling...")
    payload["negative_sampling"] = bench_negative_sampling(**ns_kwargs)
    logger.info("benchmarking %d-worker train step (%d steps)...",
                    workers, steps)
    payload["train_step"] = bench_train_step(workers=workers, steps=steps,
                                             **kwargs)
    logger.info("profiling per-op attribution...")
    payload["op_profile"] = profile_train_attribution(
        scale=kwargs["scale"] if tiny else 0.5,
        embedding_dim=kwargs["embedding_dim"],
        batch_size=kwargs["batch_size"],
        steps=3 if tiny else 5)
    with open(out_path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    logger.info("wrote %s", out_path)
    return payload


def run_serving_bench(out_path: str = "BENCH_serving.json",
                      tiny: bool = False) -> Dict:
    """Run the serving + fleet benchmarks and write ``BENCH_serving.json``."""
    from repro.fleet.bench import run_fleet_benchmark
    from repro.serving.bench import run_serving_benchmark

    if tiny:
        result = run_serving_benchmark(scale=0.1, batch_size=16, k=5,
                                       repeats=2, embedding_dim=8)
    else:
        result = run_serving_benchmark()
    payload = _payload_header("serving")
    payload["tiny"] = tiny
    payload["serving_batch"] = {
        "num_users": result.num_users,
        "catalogue_size": result.catalogue_size,
        "embedding_dim": result.embedding_dim,
        "batch_size": result.batch_size,
        "naive_users_per_second": result.naive_users_per_second,
        "engine64_users_per_second": result.engine64_users_per_second,
        "engine32_users_per_second": result.engine32_users_per_second,
        "speedup": result.speedup,
        "cold_ms": result.cold_ms,
        "warm_ms": result.warm_ms,
        "cache_speedup": result.cache_speedup,
        "mean_coalesced_batch": result.mean_coalesced_batch,
    }
    logger.info("benchmarking the sharded serving fleet...")
    if tiny:
        payload["fleet"] = run_fleet_benchmark(
            scale=0.1, embedding_dim=8, shard_counts=(1, 2), k=5,
            batch_size=32, saturation_seconds=0.5, load_seconds=1.0)
    else:
        payload["fleet"] = run_fleet_benchmark()
    with open(out_path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    logger.info("wrote %s", out_path)
    return payload


# ----------------------------------------------------------------------
# Regression gate
# ----------------------------------------------------------------------
def _resolve(payload: Dict, dotted: str):
    node = payload
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def check_against_baseline(current: Dict, baseline: Dict) -> List[str]:
    """Compare a fresh benchmark payload against committed baselines.

    ``baseline`` holds ``{"tolerance": f, "metrics": {dotted.path:
    value}}`` where every metric is higher-is-better (speedups and
    throughputs — ratios, so they transfer across machines far better
    than absolute times).  A metric regresses when::

        current < baseline_value * (1 - tolerance)

    Returns the list of human-readable regression messages (empty ⇒
    gate passes).  Missing metrics are reported as regressions: a
    silently vanished number must fail CI, not pass it.
    """
    tolerance = float(baseline.get("tolerance", 0.0))
    if not 0.0 <= tolerance < 1.0:
        raise ValueError(f"tolerance must be in [0, 1), got {tolerance}")
    regressions: List[str] = []
    for dotted, expected in baseline.get("metrics", {}).items():
        value = _resolve(current, dotted)
        if value is None or not isinstance(value, (int, float)):
            regressions.append(f"{dotted}: missing from benchmark output")
            continue
        floor = float(expected) * (1.0 - tolerance)
        if value < floor:
            regressions.append(
                f"{dotted}: {value:.3f} < floor {floor:.3f} "
                f"(baseline {float(expected):.3f}, "
                f"tolerance {tolerance:.0%})")
    return regressions


def check_fleet_against_baseline(payload: Dict, spec: Dict
                                 ) -> Tuple[List[str], Optional[str]]:
    """Gate the fleet scaling metrics, honestly.

    Multi-shard speedup is physics-bound by available CPUs: on a
    runner whose affinity mask has fewer than ``spec["min_cpus"]``
    cores, N processes time-share one core and the scaling bar is
    unmeasurable — analogous to skipping GPU benches on a machine
    without a GPU.  The benchmark records the affinity count in
    ``fleet.cpu_count``; below the floor the gate *skips* (returning
    the reason) rather than failing on a number the hardware could
    never produce.  Everything else delegates to
    :func:`check_against_baseline` (which ignores the ``min_cpus``
    key).
    """
    fleet = payload.get("fleet") or {}
    min_cpus = int(spec.get("min_cpus", 0))
    cpus = int(fleet.get("cpu_count", 0))
    if cpus < min_cpus:
        return [], (f"fleet scaling gate skipped: {cpus} CPU(s) in the "
                    f"affinity mask, bar needs >= {min_cpus}")
    return check_against_baseline(payload, spec), None
