"""Sharded multi-process serving fleet.

Scales :mod:`repro.serving` across processes: N shard workers attach
**read-only** to one shared-memory block holding the frozen serving
buffers (:mod:`repro.fleet.params`), a :class:`ShardRouter` hash-
partitions users across them with supervised failover and
deterministic partial top-K merge (:mod:`repro.fleet.router`,
:mod:`repro.fleet.partition`), and an open-loop Poisson/Zipf load
generator drives it (:mod:`repro.fleet.loadgen`).  The fleet's
capacity and latency are measured by the end-to-end benchmark in
``benchmarks/e2e``.
"""

from repro.fleet.loadgen import (
    ChaosResult,
    LoadPhase,
    LoadResult,
    ZipfUserSampler,
    run_chaos_loop,
    run_open_loop,
)
from repro.fleet.params import (
    FleetManifest,
    ServingParameterBlock,
    attach_serving_engine,
)
from repro.fleet.partition import (
    merge_topk,
    route_user,
    shard_for_user,
    split_catalogue,
)
from repro.fleet.router import FleetUnavailableError, ShardRouter

__all__ = [
    "ChaosResult",
    "FleetManifest",
    "FleetUnavailableError",
    "LoadPhase",
    "LoadResult",
    "ServingParameterBlock",
    "ShardRouter",
    "ZipfUserSampler",
    "attach_serving_engine",
    "merge_topk",
    "route_user",
    "run_chaos_loop",
    "run_open_loop",
    "shard_for_user",
    "split_catalogue",
]
