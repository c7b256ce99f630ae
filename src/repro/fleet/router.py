"""The shard router: hash-partitioned serving over supervised processes.

:class:`ShardRouter` is the fleet's front door.  It owns three things:

* the **parameter block** (:class:`~repro.fleet.params.
  ServingParameterBlock`) every shard attaches to read-only;
* the **shard processes**, managed by the same
  :class:`~repro.parallel.supervisor.WorkerSupervisor` the
  data-parallel trainer uses — dead-shard detection on send and
  receive, bounded respawn with backoff, graceful degradation to the
  surviving shards, :class:`FleetUnavailableError` only when the last
  shard is gone;
* the **request semantics**: user-id resolution, visited-POI
  exclusion, deterministic hash routing with failover
  (:func:`~repro.fleet.partition.route_user`), re-sending work lost
  with its shard, and deterministic partial top-K merge
  (:func:`~repro.fleet.partition.merge_topk`).

There is one request path with three entry points.  Each entry point
cuts its request into *work units* — ``(user indices, catalogue slice
[lo, hi), preferred shard)`` — and hands them to one event loop
(:meth:`ShardRouter._serve`) that sends them, harvests replies as they
arrive, re-sends lost units, and merges every user's partials.  Every
shard scores with the same code from the same shared buffers, so the
merged answer is the single-process
:class:`~repro.serving.service.RecommendationService` answer whichever
shards scored it — degradation and respawn change capacity, never
results.

* :meth:`~ShardRouter.recommend_many` — one unit per
  :func:`~repro.fleet.partition.group_by_shard` group, covering the
  whole catalogue ``[0, N)``; a unit lost to a dead shard is re-sent
  unchanged to its failover shard, so batch shapes never change.
* :meth:`~ShardRouter.recommend_fanout` — one user's catalogue split
  into one unit per slice, scored in parallel across shards.
* :meth:`~ShardRouter.recommend_resilient` — one unit per slice
  carrying the whole admitted batch, run under a
  :class:`~repro.resilience.ResilienceConfig`: admission control at
  the door, per-hop timeouts, hedged retries, circuit breakers, and a
  degraded-fallback chain (partial merge → stale cache → popularity)
  so *every* admitted request gets an answer within its budget,
  truthfully tagged ``full | partial | cached | fallback``.

The plain entry points run the loop with no deadline, hedging,
breakers or fallback: a shard silent past the supervision step timeout
is declared hung, and total loss raises :class:`FleetUnavailableError`.
:meth:`~ShardRouter.swap` sends its shard-pinned control messages
through the same loop.  With ``tracing=`` or ``slo=`` set, every
request on every entry point is traced and counted.
"""

from __future__ import annotations

import json
import math
import multiprocessing as mp
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.recommend import visited_poi_ids
from repro.data.dataset import CheckinDataset
from repro.data.vocabulary import DatasetIndex
from repro.fleet.params import ServingParameterBlock
from repro.fleet.partition import (
    failover_shard,
    group_by_shard,
    merge_topk,
    split_catalogue,
)
from repro.fleet.shard import shard_serve_loop
from repro.obs.flight import TRACES_FILENAME, FlightRecorder, TraceRecord
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SLO_FILENAME, SloTracker
from repro.obs.spans import (
    CAT_ADMISSION,
    CAT_BREAKER,
    CAT_DISPATCH,
    CAT_HEDGE,
    CAT_MERGE,
    CAT_QUEUE,
    CAT_SCORE,
    CAT_SUPERVISE,
    SpanEvent,
    SpanRecorder,
    TraceContext,
    TracingConfig,
)
from repro.parallel.supervisor import (
    SupervisionConfig,
    WorkerFailure,
    WorkerSupervisor,
)
from repro.resilience import (
    AdmissionController,
    CircuitBreaker,
    Deadline,
    FallbackChain,
    PopularityFallback,
    QUALITY_FULL,
    ResilienceConfig,
    ResilientResponse,
)
from repro.serving.cache import TopKCache
from repro.serving.engine import Exclusions, InferenceEngine
from repro.utils.logging import get_logger

__all__ = ["FleetUnavailableError", "ShardRouter"]

logger = get_logger("fleet.router")

# The plain policy's longest single wait for replies; the loop wakes at
# once when one arrives, so this only paces the hung-shard check.
_PLAIN_POLL_MS = 50.0


class FleetUnavailableError(WorkerFailure):
    """Every shard slot is gone: nothing left to route to.

    Subclasses :class:`WorkerFailure` (it *is* a total-loss condition)
    but names the last-known state of every shard slot, so the caller
    sees *why* the fleet is empty — removed after exhausted respawn
    budgets, dead, or never started — instead of a bare pipe error.
    """

    def __init__(self, step: int, shard_states: Dict[int, str]) -> None:
        described = "; ".join(
            f"shard {shard_id}: {state}"
            for shard_id, state in sorted(shard_states.items()))
        super().__init__(
            step, reason=f"no live shards to route to [{described}]")
        self.shard_states = dict(shard_states)


@dataclass(eq=False)
class _Unit:
    """One unit of fleet work and its progress through the loop.

    ``message`` is the ``(op, payload)`` sent to a shard — ``("topk",
    (user_indices, k, lo, hi, exclusions))`` for scoring (``exclusions``
    an :class:`~repro.serving.engine.Exclusions` or ``None``),
    ``("swap", manifest)`` for control; ``members`` are the user ids the
    reply's rows belong to, in payload order.  ``shard`` is the
    preferred shard; a ``pinned`` unit runs there or nowhere.
    """

    members: List[int]
    shard: int
    message: Tuple[str, object]
    pinned: bool = False
    result: object = None
    done: bool = False
    failed: bool = False
    sends: int = 0
    hedges: int = 0
    rids: Set[int] = field(default_factory=set)


class ShardRouter:
    """Sharded multi-process recommendation serving behind one object.

    Parameters
    ----------
    model, index, dataset, target_city:
        Same quartet as :class:`RecommendationService`; the model is
        frozen into serving buffers once and published to the shared
        block (the router keeps no scoring engine of its own).
    num_shards:
        Worker-slot count; capacity degrades toward 1 as slots exhaust
        their respawn budgets.
    dtype:
        Serving arithmetic precision for every shard.
    supervision:
        Supervisor policy (timeouts, respawn budget, backoff).
    fault_plan:
        Optional :class:`~repro.reliability.faults.FaultPlan` (or
        :class:`~repro.reliability.faults.ChaosPlan`) handed to
        incarnation-0 shards; the step coordinate is each shard's own
        request sequence number.
    telemetry_dir:
        When set, each shard saves its own telemetry under
        ``telemetry_dir/shard-<id>/`` at graceful shutdown (the layout
        ``repro metrics-report`` aggregates).
    registry:
        Optional router-side registry for ``fleet.router.*`` and
        ``fleet.resilience.*`` metrics.
    resilience:
        Optional :class:`~repro.resilience.ResilienceConfig`.  When
        set, :meth:`recommend_resilient` becomes available and the
        router builds its breakers, admission controller, result cache,
        and fallback chain; the plain entry points never use them.
    tracing:
        Optional :class:`~repro.obs.spans.TracingConfig` (or ``True``
        for defaults).  Enables per-request distributed tracing on
        every entry point: a :class:`TraceContext` is minted per
        request at arrival, unit RPCs carry child contexts through the
        pipe envelope, shard scoring spans ride the replies back, and a
        tail-sampled :class:`~repro.obs.flight.FlightRecorder` keeps
        the complete traces of slow / degraded / shed / errored
        requests (dumped to ``telemetry_dir/traces.jsonl`` at close).
    slo:
        Optional :class:`~repro.obs.slo.SloTracker`; every request on
        every entry point is fed to it (availability, deadline, latency
        objectives), judged when its batch returns.  The caller owns
        evaluation cadence; with a ``telemetry_dir`` the tracker's
        summary is written to ``telemetry_dir/slo.json`` at close.
    """

    def __init__(self, model, index: DatasetIndex, dataset: CheckinDataset,
                 target_city: str, *, num_shards: int = 2,
                 dtype=np.float64,
                 supervision: Optional[SupervisionConfig] = None,
                 fault_plan=None, telemetry_dir=None,
                 registry: Optional[MetricsRegistry] = None,
                 resilience: Optional[ResilienceConfig] = None,
                 tracing=None,
                 slo: Optional[SloTracker] = None) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self._closed = False
        self.index = index
        self.dataset = dataset
        self.target_city = target_city
        self.num_shards = num_shards
        self.registry = registry
        self._dtype = dtype
        reference = InferenceEngine.from_model(model, index, dataset,
                                               target_city, dtype=dtype)
        self.catalogue_size = reference.catalogue_size
        self._catalogue_ids = reference.catalogue_poi_ids
        self._catalogue_set = frozenset(self._catalogue_ids.tolist())
        # Catalogue-filtered visited ids; swap refuses a new catalogue,
        # so they never go stale.
        self._visited: Dict[int, bytes] = {}
        self._block = ServingParameterBlock.from_engine(reference,
                                                        generation=0)
        self._swap_count = 0
        self._telemetry_dir = telemetry_dir
        self._fault_plan = fault_plan
        self._tracing: Optional[TracingConfig] = (
            TracingConfig() if tracing is True else tracing)
        self._recorder: Optional[SpanRecorder] = None
        self._flight: Optional[FlightRecorder] = None
        if self._tracing is not None:
            self._recorder = SpanRecorder(
                "router", capacity=self._tracing.recorder_capacity)
            self._flight = FlightRecorder(
                capacity=self._tracing.flight_capacity,
                slow_quantile=self._tracing.slow_quantile,
                history=self._tracing.flight_history)
        self._slo = slo
        self._ctx = mp.get_context("fork")
        self._supervisor = WorkerSupervisor(
            self._spawn_shard, num_shards,
            supervision or SupervisionConfig(),
            span_recorder=self._recorder)
        self._step = 0
        self._request_seq = 0
        # (shard, incarnation) -> latest cumulative metrics snapshot;
        # keyed per incarnation so a respawn never erases its
        # predecessor's counts from the merged view.
        self._shard_metrics: Dict[Tuple[int, int], dict] = {}
        self._resilience = resilience
        self._breakers: Dict[int, CircuitBreaker] = {}
        self._admission: Optional[AdmissionController] = None
        self._chain: Optional[FallbackChain] = None
        self._res_cache: Optional[TopKCache] = None
        self._res_counters = {"hedges": 0, "retries": 0, "breaker_opens": 0,
                              "deadline_hits": 0, "deadline_misses": 0,
                              "breaker_restarts": 0}
        self._rr = 0                    # rotation offset for shard picks
        if resilience is not None:
            self._breakers = {
                shard: CircuitBreaker(
                    resilience.breaker_failure_threshold,
                    resilience.breaker_probe_backoff_ms,
                    resilience.breaker_backoff_factor,
                    resilience.breaker_max_backoff_ms)
                for shard in range(num_shards)
            }
            self._admission = AdmissionController(
                resilience.admission_queue_limit,
                resilience.codel_target_ms,
                resilience.codel_interval_ms)
            if resilience.cache_size > 0:
                self._res_cache = TopKCache(
                    resilience.cache_size, resilience.cache_ttl_seconds,
                    registry=registry)
            popularity = None
            if resilience.popularity_fallback:
                popularity = PopularityFallback(
                    dataset.visit_counts(), reference.catalogue_poi_ids)
            self._chain = FallbackChain(cache=self._res_cache,
                                        popularity=popularity,
                                        serve_stale=resilience.serve_stale)
        try:
            self._supervisor.start()
        except BaseException:
            # A failed spawn must not leak the shards that did start,
            # nor the shared-memory block.
            self.close()
            raise

    @classmethod
    def from_checkpoint(cls, path, dataset: CheckinDataset,
                        target_city: str, **kwargs) -> "ShardRouter":
        """Build a router (and its fleet) from a saved checkpoint."""
        from repro.core.checkpoint import load_checkpoint

        model, index = load_checkpoint(path)
        return cls(model, index, dataset, target_city, **kwargs)

    # ------------------------------------------------------------------
    # Process management
    # ------------------------------------------------------------------
    def _spawn_shard(self, shard_id: int, incarnation: int):
        parent, child = self._ctx.Pipe()
        plan = self._fault_plan if incarnation == 0 else None
        process = self._ctx.Process(
            target=shard_serve_loop,
            args=(child, self._block.manifest, shard_id, incarnation,
                  plan, self._telemetry_dir),
            daemon=True,
            name=f"repro-fleet-shard-{shard_id}",
        )
        process.start()
        child.close()
        return parent, process

    @property
    def num_live(self) -> int:
        return self._supervisor.num_live

    @property
    def live_shards(self) -> List[int]:
        return self._supervisor.live_worker_ids

    # ------------------------------------------------------------------
    # Request plumbing
    # ------------------------------------------------------------------
    def _user_index(self, user_id: int) -> int:
        idx = self.index.users.get(user_id)
        if idx < 0:
            raise KeyError(f"user {user_id} unknown to the model")
        return idx

    def _known(self, user_ids: Sequence[int]) -> List[Tuple[int, int]]:
        """``(user_id, user_index)`` of the known users, deduplicated
        in first-seen order (unknown users are skipped)."""
        known = []
        for user_id in dict.fromkeys(user_ids):
            idx = self.index.users.get(user_id)
            if idx >= 0:
                known.append((user_id, idx))
        return known

    def _visited_in_catalogue(self, user_id: int) -> bytes:
        """The user's visited POIs that the catalogue holds, sorted and
        :meth:`~repro.serving.engine.Exclusions.pack`-ed: the only ones
        an exclusion can remove.  Resolved once per user (the router's
        dataset never changes) and cached."""
        ids = self._visited.get(user_id)
        if ids is None:
            ids = Exclusions.pack(sorted(
                poi_id for poi_id in visited_poi_ids(self.dataset, user_id)
                if poi_id in self._catalogue_set))
            self._visited[user_id] = ids
        return ids

    def _excludes(self, entries: Sequence[Tuple[int, int]],
                  exclude_visited: bool) -> Optional[Dict[int, bytes]]:
        if not exclude_visited:
            return None
        return {uid: self._visited_in_catalogue(uid) for uid, _idx in entries}

    @staticmethod
    def _topk_unit(entries: Sequence[Tuple[int, int]],
                   excludes: Optional[Dict[int, bytes]], k: int,
                   lo: int, hi: int, shard: int) -> _Unit:
        """Rank catalogue slice ``[lo, hi)`` for ``entries`` on ``shard``."""
        exclusions = None if excludes is None else Exclusions.join(
            [excludes[uid] for uid, _idx in entries])
        return _Unit([uid for uid, _idx in entries], shard, (
            "topk", ([idx for _uid, idx in entries], k, lo, hi,
                     exclusions)))

    def _require_live(self) -> List[int]:
        live = self.live_shards
        if not live:
            raise FleetUnavailableError(self._step,
                                        self._supervisor.slot_states())
        return live

    def _record_latency(self, start: float, outcome: str = "ok") -> None:
        """Observe a plain entry point's latency on *every* exit,
        labelled by outcome — a failed request's latency is data, not
        noise (a success-only histogram hides exactly the slow failures
        a p99 is supposed to expose)."""
        if self.registry is not None:
            self.registry.histogram(
                "fleet.router.request_latency_ms",
                outcome=outcome).observe(
                    (time.perf_counter() - start) * 1000.0)

    # ------------------------------------------------------------------
    # Serving API (plain entry points: no deadlines, bit-identical)
    # ------------------------------------------------------------------
    def recommend(self, user_id: int, k: int = 10,
                  exclude_visited: bool = True) -> List[Tuple[int, float]]:
        """Top-k for one user (raises ``KeyError`` for unknown users)."""
        self._user_index(user_id)       # unknown users raise, like the
        return self.recommend_many(     # single-process service
            [user_id], k, exclude_visited)[user_id]

    def recommend_many(self, user_ids: Sequence[int], k: int = 10,
                       exclude_visited: bool = True, *,
                       return_generations: bool = False):
        """Top-k lists for many users, hash-partitioned across shards.

        Each :func:`~repro.fleet.partition.group_by_shard` group is one
        work unit ranking the whole catalogue on its shard, so every
        shard scores exactly the batch a single-process engine would be
        handed for those users.  Unknown users are skipped (absence in
        the result, matching the single-process service).  A unit whose
        shard dies mid-flight is re-sent unchanged to the shard's
        failover (:func:`~repro.fleet.partition.failover_shard`) —
        every shard computes identical results, so a degraded fleet
        returns exactly what a healthy one would, just slower.  A fleet
        with zero live shards raises :class:`FleetUnavailableError`
        naming the slot states.

        With ``return_generations=True`` the return value is
        ``(results, generations)`` where ``generations[user_id]`` is
        the model generation of the parameter block that scored that
        user's reply — the per-response provenance tag the hot-swap
        acceptance gate checks.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        start = time.perf_counter()
        try:
            known = self._known(user_ids)
            groups = group_by_shard(known, self.num_shards,
                                    self._require_live()) if known else {}
            excludes = self._excludes(known, exclude_visited)
            responses, gens = self._serve(known, [
                self._topk_unit(entries, excludes, k, 0, self.catalogue_size,
                                shard)
                for shard, entries in groups.items()], k, exclude_visited)
        except Exception:
            self._record_latency(start, outcome="error")
            raise
        self._record_latency(start)
        out = {uid: response.items for uid, response in responses.items()}
        return (out, gens) if return_generations else out

    def recommend_fanout(self, user_id: int, k: int = 10,
                         exclude_visited: bool = True
                         ) -> List[Tuple[int, float]]:
        """Top-k for one user via catalogue-slice fanout + merge.

        The catalogue is split into one contiguous slice per live
        shard, each slice one work unit, and the partial top-Ks are
        merged under the engine's exact ordering — deterministic
        regardless of reply order or which shards survived to score
        which slices.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        start = time.perf_counter()
        try:
            entry = [(user_id, self._user_index(user_id))]
            live = self._require_live()
            excludes = self._excludes(entry, exclude_visited)
            responses, _gens = self._serve(entry, [
                self._topk_unit(entry, excludes, k, lo, hi, shard)
                for (lo, hi), shard in zip(
                    split_catalogue(self.catalogue_size, len(live)), live)],
                k, exclude_visited)
        except Exception:
            self._record_latency(start, outcome="error")
            raise
        self._record_latency(start)
        return responses[user_id].items

    # ------------------------------------------------------------------
    # Zero-downtime model hot-swap
    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        """Generation of the parameter block new work is scored against."""
        return self._block.generation

    def swap(self, model, index: Optional[DatasetIndex] = None, *,
             generation: Optional[int] = None) -> dict:
        """Swap the fleet onto ``model``'s parameters without downtime.

        Protocol (the ordering is the correctness argument):

        1. Freeze ``model`` into serving buffers and write them to a
           **new** shared-memory block stamped with the next generation
           — the old block is never touched, so an attached shard can
           never observe a torn mix of generations.
        2. Point ``self._block`` at the new block *before* telling any
           shard: a shard that crashes mid-swap respawns attached to
           the new generation, not the old one.
        3. Send ``("swap", new_manifest)`` to each live shard as a
           shard-pinned unit on the request path.  Pipes are FIFO, so
           every request enqueued before the swap is answered on the
           old engine first — the swap message *is* the drain barrier,
           and no request is dropped.
        4. After the acks, close (unlink) the old block — on every
           exit, including total fleet loss.  POSIX keeps existing
           mappings alive past the unlink, so a laggard shard that has
           not yet processed its swap keeps scoring safely on the old
           generation until it does.
        5. Invalidate the resilient result cache — cached rankings are
           stale against the new parameters, and serving them tagged
           with the new generation would be a provenance lie.

        ``index`` (optional) is validated against the fleet's: a swap
        cannot change the entity vocabulary, only parameter values.
        ``generation`` pins the new number (it must advance); by
        default the fleet's own counter increments.  Returns a summary
        dict; raises ``ValueError`` on vocabulary/generation/catalogue
        mismatch and :class:`FleetUnavailableError` when no shard is
        left.
        """
        if self._closed:
            raise RuntimeError("router is closed")
        if index is not None and (
                index.users.keys() != self.index.users.keys()
                or index.pois.keys() != self.index.pois.keys()):
            raise ValueError(
                "swap cannot change the entity vocabulary; retrain and "
                "restart the fleet to grow users/POIs")
        previous = self._block.generation
        if generation is None:
            generation = previous + 1
        elif generation <= previous:
            raise ValueError(
                f"swap generation must advance: fleet is at {previous}, "
                f"got {generation} (stale publication?)")
        start = time.perf_counter()
        engine = InferenceEngine.from_model(model, self.index, self.dataset,
                                            self.target_city,
                                            dtype=self._dtype)
        if not np.array_equal(engine.catalogue_poi_ids,
                              self._catalogue_ids):
            raise ValueError(
                "swap changed the catalogue; slices would be torn and "
                "cached exclusions stale")
        old_block = self._block
        new_block = ServingParameterBlock.from_engine(engine,
                                                      generation=generation)
        # Step 2 before step 3: mid-swap respawns must attach the new
        # generation (see _spawn_shard, which reads self._block).
        self._block = new_block
        try:
            live = self._require_live()
            units = [_Unit([], shard, ("swap", new_block.manifest),
                           pinned=True) for shard in live]
            self._serve([], units, 0, False)
        finally:
            old_block.close()
            if self._res_cache is not None:
                self._res_cache.invalidate_all()
        acked = sorted(unit.shard for unit in units if unit.done
                       and unit.result.get("generation") == generation)
        self._swap_count += 1
        duration_ms = (time.perf_counter() - start) * 1000.0
        if self.registry is not None:
            self.registry.counter("fleet.swap.count").inc()
            self.registry.gauge("fleet.swap.generation").set(
                float(generation))
            self.registry.histogram("fleet.swap.duration_ms").observe(
                duration_ms)
        if self._recorder is not None:
            self._recorder.emit_process(
                "swap", CAT_SUPERVISE, ts_ms=start * 1000.0,
                dur_ms=duration_ms, generation=generation,
                previous_generation=previous, acked_shards=acked)
        logger.info("hot-swapped fleet to generation %d (%d/%d shards "
                    "acked, %.1f ms)", generation, len(acked), len(live),
                    duration_ms)
        return {
            "generation": generation,
            "previous_generation": previous,
            "acked_shards": acked,
            "live_shards": live,
            "duration_ms": duration_ms,
        }

    def swap_from_checkpoint(self, path) -> dict:
        """Hot-swap to a checkpoint file (e.g. one ``ModelPublisher``
        generation).  The checkpoint's recorded ``generation`` (when
        present) becomes the fleet's — so swapping a stale publication
        onto a newer fleet fails loudly instead of silently rolling
        back."""
        from repro.core.checkpoint import (
            load_checkpoint,
            read_checkpoint_manifest,
        )

        model, index = load_checkpoint(path, precision=self._dtype)
        recorded = read_checkpoint_manifest(path).get("generation")
        return self.swap(model, index, generation=recorded)

    # ------------------------------------------------------------------
    # Serving API (resilient entry point: deadlines, hedging, fallback)
    # ------------------------------------------------------------------
    def recommend_resilient(self, user_ids: Sequence[int], k: int = 10,
                            exclude_visited: bool = True, *,
                            deadlines: Optional[Sequence[Deadline]] = None,
                            deadline_ms: Optional[float] = None
                            ) -> Dict[int, ResilientResponse]:
        """Deadline-bounded top-k with hedging, shedding, and fallback.

        Every *known* user gets a :class:`ResilientResponse` — this
        entry point never raises on shard failure.  Admitted requests
        are scored as one work unit per catalogue slice across
        breaker-approved shards: all slices merged is bit-identical to
        the plain entry points (``quality="full"``); a subset merged is
        a valid degraded ranking (``"partial"``); zero slices falls back
        to the stale cache (``"cached"``) and then the popularity
        baseline (``"fallback"``).  Shed requests are answered from the
        fallback chain immediately and flagged ``shed=True``.

        Parameters
        ----------
        deadlines:
            Optional per-request :class:`Deadline` aligned with
            ``user_ids`` (the load generator anchors them at scheduled
            arrival).  Defaults to fresh deadlines of ``deadline_ms``
            (or the config's ``deadline_ms``) starting now.
        """
        cfg = self._resilience
        if cfg is None:
            raise RuntimeError(
                "router was built without resilience=ResilienceConfig(...); "
                "recommend_resilient is unavailable")
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        budget = deadline_ms if deadline_ms is not None else cfg.deadline_ms
        per_user: Dict[int, Deadline] = {}
        for i, user_id in enumerate(user_ids):
            given = deadlines[i] if deadlines is not None else None
            current = per_user.get(user_id)
            if current is None:
                per_user[user_id] = given if given is not None \
                    else Deadline(budget)
            elif given is not None and given.start < current.start:
                per_user[user_id] = given   # duplicate: earliest arrival
        batch_start = time.perf_counter()
        known = self._known(per_user)
        traces = self._open_traces(known, per_user)
        recorder = self._recorder
        # 1. Admission: shed at the door what cannot be served in time.
        out: Dict[int, ResilientResponse] = {}
        admitted: List[Tuple[int, int]] = []
        assert self._admission is not None
        for user_id, idx in known:
            deadline = per_user[user_id]
            ok, reason = self._admission.admit(
                deadline.remaining_ms(), deadline.elapsed_ms(),
                len(admitted))
            state = traces.get(user_id)
            if state is not None:
                adm_ms = recorder.now_ms()
                state["events"].append(recorder.emit(
                    state["ctx"], "admission", CAT_ADMISSION,
                    ts_ms=state["adm_end_ms"],
                    dur_ms=max(0.0, adm_ms - state["adm_end_ms"]),
                    admitted=ok, reason=reason))
                state["adm_end_ms"] = adm_ms
            if ok:
                admitted.append((user_id, idx))
                continue
            response = self._degraded_response(
                user_id, k, exclude_visited, deadline, partial_items=None,
                shed=True, shed_reason=reason)
            out[user_id] = response
            if state is not None:
                # Shed answers come straight from the fallback chain:
                # the merge segment covers decision -> done.
                self._close_trace(state, response, "shed_fallback",
                                  state["adm_end_ms"])
        if not admitted:
            self._note_returned(out, per_user)
            return out
        # 2. One unit per catalogue slice, each carrying the whole
        # admitted batch, on breaker-approved shards.  Every half-open
        # grant taken here is used by one unit or cancelled.  No
        # approved shard means no units: the loop answers from the
        # fallbacks.
        participants = [shard_id for shard_id in self.live_shards
                        if self._breakers[shard_id].allow()]
        num_slices = min(len(participants), self.catalogue_size)
        for shard_id in participants[num_slices:]:
            self._breakers[shard_id].cancel_probe()
        slices = split_catalogue(self.catalogue_size, num_slices) \
            if num_slices else []
        excludes = self._excludes(admitted, exclude_visited)
        served, _gens = self._serve(admitted, [
            self._topk_unit(admitted, excludes, k, lo, hi, shard)
            for (lo, hi), shard in zip(slices, participants)],
            k, exclude_visited, cfg=cfg, deadlines=per_user, traces=traces)
        self._note_returned(out, per_user)
        out.update(served)
        self._admission.note_service(
            (time.perf_counter() - batch_start) * 1000.0)
        return out

    # -- resilient-policy helpers ----------------------------------------
    def _pick_shard(self, exclude: Set[int]) -> Optional[int]:
        """One breaker-approved live shard outside ``exclude`` (rotating)."""
        live = self.live_shards
        self._rr += 1
        for offset in range(len(live)):
            shard_id = live[(self._rr + offset) % len(live)]
            if shard_id not in exclude and self._breakers[shard_id].allow():
                return shard_id
        return None

    def _count(self, name: str) -> None:
        self._res_counters[name] += 1
        if self.registry is not None:
            self.registry.counter(f"fleet.resilience.{name}").inc()

    def _note_returned(self, responses: Dict[int, ResilientResponse],
                       deadlines: Dict[int, Deadline],
                       resilient: bool = True) -> None:
        """Judge answers as their batch returns them, then count them.

        A batch returns every answer at once, so a user finalized inside
        the budget still waits for the rest of the batch: the latency
        and ``deadline_met`` a caller sees are those of this instant,
        and each response is restamped with them before it is counted.
        """
        now = time.perf_counter()
        for user_id, response in responses.items():
            deadline = deadlines[user_id]
            response.latency_ms = deadline.elapsed_ms(now)
            response.deadline_met = response.latency_ms < deadline.budget_ms
            self._note_response(response, resilient)

    def _note_response(self, response: ResilientResponse,
                       resilient: bool = True) -> None:
        """Feed one returned answer to the SLO tracker and, for the
        resilient entry point, to the ``fleet.resilience.*`` counters."""
        if self._slo is not None:
            self._slo.record_request(
                answered=True, deadline_met=response.deadline_met,
                latency_ms=response.latency_ms)
        if not resilient:
            return
        self._count("deadline_hits" if response.deadline_met
                    else "deadline_misses")
        if self.registry is not None:
            self.registry.counter("fleet.resilience.responses",
                                  quality=response.quality).inc()
            if response.shed:
                self.registry.counter("fleet.resilience.shed",
                                      reason=response.shed_reason).inc()
            self.registry.histogram("fleet.resilience.latency_ms",
                                    quality=response.quality).observe(
                                        response.latency_ms)

    def _degraded_response(self, user_id: int, k: int,
                           exclude_visited: bool, deadline: Deadline,
                           partial_items, shed: bool = False,
                           shed_reason: str = "") -> ResilientResponse:
        assert self._chain is not None
        exclude = visited_poi_ids(self.dataset, user_id) \
            if exclude_visited else None
        items, quality = self._chain.answer(
            user_id, k, exclude_visited=exclude_visited,
            partial_items=partial_items, exclude=exclude)
        response = ResilientResponse(
            user_id=user_id, items=items, quality=quality,
            deadline_met=not deadline.expired(),
            latency_ms=deadline.elapsed_ms(), shed=shed,
            shed_reason=shed_reason)
        return response

    # -- tracing -----------------------------------------------------------
    def _open_traces(self, entries: Sequence[Tuple[int, int]],
                     deadlines: Dict[int, Deadline]) -> Dict[int, dict]:
        """Mint one root context per request at the front door.

        The queue segment covers scheduled arrival -> router entry (the
        deadline anchors on the same monotonic clock the recorder
        stamps with, so the subtraction is exact).
        """
        recorder = self._recorder
        if recorder is None:
            return {}
        entry_ms = recorder.now_ms()
        traces: Dict[int, dict] = {}
        for user_id, _idx in entries:
            ctx = TraceContext.mint()
            arrival_ms = deadlines[user_id].start * 1000.0
            traces[user_id] = {
                "ctx": ctx, "arrival_ms": arrival_ms,
                "adm_end_ms": entry_ms,
                "events": [recorder.emit(
                    ctx, "queue_wait", CAT_QUEUE, ts_ms=arrival_ms,
                    dur_ms=max(0.0, entry_ms - arrival_ms), user=user_id)],
            }
        return traces

    def _close_trace(self, state: dict, response: ResilientResponse,
                     name: str, start_ms: float, outcome: str = "ok",
                     batch_events: Optional[List[dict]] = None,
                     batch_trace: str = "") -> None:
        """Emit a request's last covering segment and hand its trace to
        the flight recorder.

        The segment ends at the instant the response stamped its
        latency — not at this emit — so the covering identity
        (segments sum to ``latency_ms``) holds even if the router is
        preempted in between.  ``batch_events`` (dispatch attempts,
        hedges, breaker trips, shard scoring spans — recorded under the
        call's *batch* trace, because units are batch-scoped) are
        embedded in the kept record; ``attrs.batch_trace`` lets the
        report join further loose spans later.  The tail-sampling
        judgement is the flight recorder's, made on the scalars first
        so the boring majority is dropped without serialising spans.
        """
        ctx: TraceContext = state["ctx"]
        answered_ms = state["arrival_ms"] + response.latency_ms
        state["events"].append(self._recorder.emit(
            ctx, name, CAT_MERGE, ts_ms=start_ms,
            dur_ms=max(0.0, answered_ms - start_ms),
            quality=response.quality))
        reason = self._flight.judge(
            latency_ms=response.latency_ms, quality=response.quality,
            outcome=outcome, shed=response.shed)
        if reason is None:
            return
        events = [event.to_dict() for event in state["events"]
                  if event is not None]
        attrs: Dict = {}
        if batch_events:
            events.extend(batch_events)
            attrs["batch_trace"] = batch_trace
        self._flight.keep(reason, TraceRecord(
            trace_id=ctx.trace_id, user_id=response.user_id,
            start_ms=state["arrival_ms"],
            latency_ms=response.latency_ms, quality=response.quality,
            deadline_met=response.deadline_met, shed=response.shed,
            shed_reason=response.shed_reason, outcome=outcome,
            events=events, attrs=attrs))

    # ------------------------------------------------------------------
    # The request path
    # ------------------------------------------------------------------
    def _serve(self, entries: Sequence[Tuple[int, int]],
               units: List[_Unit], k: int, exclude_visited: bool, *,
               cfg: Optional[ResilienceConfig] = None,
               deadlines: Optional[Dict[int, Deadline]] = None,
               traces: Optional[Dict[int, dict]] = None
               ) -> Tuple[Dict[int, ResilientResponse], Dict[int, int]]:
        """Run ``units`` for the ``entries`` users; answer every user.

        The router's only dispatch machinery.  One event loop sends
        each unit, harvests replies as they arrive (matched by request
        id, so late replies of abandoned attempts drain harmlessly),
        re-sends units lost with their shard, and merges every user's
        partial top-Ks with :func:`merge_topk`.  Returns
        ``(responses, generations)`` keyed by user id.

        ``cfg=None`` is the plain policy: no deadline, hedging, breakers
        or fallback.  A unit is re-sent unchanged to its shard's
        failover; a shard silent past ``supervision.step_timeout`` is
        declared hung; total loss raises :class:`FleetUnavailableError`.
        Under a :class:`ResilienceConfig` the loop hedges units silent
        past ``hedge_after_ms``, strikes breakers (and optionally
        restarts shards) on ``hop_timeout_ms``, re-sends lost units to
        any approved shard, and finalizes each user individually when
        their budget runs down to the margin — answering from the
        fallback chain when their units are not all in — so one
        straggling slice can cost *partial* quality but never a blown
        deadline.  Shard-pinned units (the swap's control messages)
        are never re-sent.

        When tracing is on, the call's units run under one *batch*
        trace (units carry many users, so per-user RPC spans would be a
        fiction): attempts, hedges, breaker trips, and the shard
        scoring spans that ride replies land in ``batch_events``, which
        every member request's kept record embeds.  Per-user ``traces``
        state gets its covering score and merge segments at finalize.
        """
        self._step += 1
        step = self._step
        recorder = self._recorder
        if deadlines is None:
            arrival = Deadline(math.inf)
            deadlines = {uid: arrival for uid, _idx in entries}
        if traces is None:
            traces = self._open_traces(entries, deadlines)
        batch_ctx = TraceContext.mint() \
            if recorder is not None and entries else None
        batch_events: List[dict] = []
        supervision = self._supervisor.supervision
        if cfg is None:
            breakers: Dict[int, CircuitBreaker] = {}
            hop_ms = supervision.step_timeout * 1000.0
            hedge_ms, max_hedges, poll_ms = math.inf, 0, _PLAIN_POLL_MS
        else:
            breakers = self._breakers
            hop_ms, hedge_ms = cfg.hop_timeout_ms, cfg.hedge_after_ms
            max_hedges, poll_ms = cfg.max_hedges, cfg.poll_interval_ms
            margin_ms = cfg.finalize_margin_ms
        max_sends = self.num_shards * (supervision.max_respawns + 1) + 1
        partials: Dict[int, List[Tuple[int, int, float]]] = {
            uid: [] for uid, _idx in entries}
        owed = dict.fromkeys(partials, 0)       # units not yet in
        scored = dict.fromkeys(partials, 0)     # units in
        for unit in units:
            for uid in unit.members:
                owed[uid] += 1
        out: Dict[int, ResilientResponse] = {}
        gens: Dict[int, int] = {}
        unanswered = dict.fromkeys(partials)
        inflight: Dict[int, dict] = {}          # rid -> attempt

        def bevent(name: str, cat: str, *, ts_ms=None, dur_ms=0.0,
                   **attrs) -> None:
            span = recorder.emit(batch_ctx, name, cat, ts_ms=ts_ms,
                                 dur_ms=dur_ms, **attrs) \
                if batch_ctx is not None else None
            if span is not None:
                batch_events.append(span.to_dict())

        def retarget(unit: _Unit, tried: Set[int]) -> Optional[int]:
            if unit.pinned:
                return None
            if cfg is not None:
                return self._pick_shard(tried)
            if unit.sends >= max_sends:
                raise WorkerFailure(
                    step, reason=f"{len(unit.members)} requests "
                    f"undeliverable after {max_sends} dispatch rounds")
            return failover_shard(unit.shard, self._require_live())

        def send_attempt(unit: _Unit, shard_id: int) -> bool:
            self._request_seq += 1
            rid = self._request_seq
            message = (rid,) + unit.message
            if batch_ctx is not None and self._tracing.shard_spans:
                # Fourth envelope element: the shard times its scoring
                # under a child of the batch context (see shard.py).
                message = message + (batch_ctx.child().to_wire(),)
            if not self._supervisor.send_to(shard_id, message, step):
                return False
            inflight[rid] = {"unit": unit, "shard": shard_id,
                             "sent_at": time.perf_counter()}
            unit.rids.add(rid)
            unit.sends += 1
            return True

        def dispatch(unit: _Unit) -> None:
            """Send a unit with no attempt in flight (or give it up)."""
            resend = unit.sends > 0
            shard_id = retarget(unit, set()) if resend else unit.shard
            tried: Set[int] = set()
            while shard_id is not None and not send_attempt(unit, shard_id):
                tried.add(shard_id)
                shard_id = retarget(unit, tried)
            if shard_id is None:
                unit.failed = True
            elif resend:
                if cfg is not None:
                    self._count("retries")
                elif self.registry is not None:
                    self.registry.counter("fleet.router.redispatches").inc()

        def abandon(rid: int) -> None:
            attempt = inflight.pop(rid, None)
            if attempt is None:
                return
            attempt["unit"].rids.discard(rid)
            # A late probe reply is dropped without credit, so return
            # an in-flight half-open grant rather than wedging it.
            breaker = breakers.get(attempt["shard"])
            if breaker is not None:
                breaker.cancel_probe()

        def fail_attempt(rid: int, allow_restart: bool = True) -> None:
            attempt = inflight.pop(rid)
            shard_id = attempt["shard"]
            attempt["unit"].rids.discard(rid)
            bevent("attempt_failed", CAT_DISPATCH,
                   ts_ms=attempt["sent_at"] * 1000.0,
                   dur_ms=(time.perf_counter() - attempt["sent_at"])
                   * 1000.0, shard=shard_id)
            breaker = breakers.get(shard_id)
            if breaker is not None and breaker.record_failure():
                self._count("breaker_opens")
                bevent("breaker_open", CAT_BREAKER, shard=shard_id)
                # Restart only a shard that is still serving (a crash
                # was already respawned by the supervisor — recycling
                # the fresh incarnation would punish the replacement).
                if allow_restart and cfg.breaker_restart_shard and \
                        shard_id in self.live_shards:
                    self._count("breaker_restarts")
                    self._supervisor.restart_worker(
                        shard_id, step, "circuit breaker opened")

        def lose_shard(shard_id: int) -> None:
            # Replies owed by a dead incarnation are gone with its pipe.
            for rid in [r for r, a in inflight.items()
                        if a["shard"] == shard_id]:
                fail_attempt(rid, allow_restart=False)

        def harvest(reply) -> None:
            # Every reply's metrics and spans are kept, including late
            # ones whose attempt was abandoned (hedge losers, timed-out
            # attempts, earlier calls): a hedge loser's scoring span is
            # still part of its trace.  Only its result is dropped.
            rid, result, meta = reply
            self._shard_metrics[(meta["shard"], meta["incarnation"])] = \
                meta["metrics"]
            spans = meta.get("spans") or ()
            if recorder is not None:
                for span in spans:
                    recorder.append(SpanEvent.from_dict(span))
            attempt = inflight.pop(rid, None)
            if attempt is None:
                return
            unit = attempt["unit"]
            unit.rids.discard(rid)
            now = time.perf_counter()
            if batch_ctx is not None:
                bevent("rpc", CAT_DISPATCH,
                       ts_ms=attempt["sent_at"] * 1000.0,
                       dur_ms=(now - attempt["sent_at"]) * 1000.0,
                       shard=attempt["shard"], users=len(unit.members))
                batch_events.extend(spans)
            breaker = breakers.get(attempt["shard"])
            if breaker is not None:
                breaker.record_success()
            if not unit.done:
                unit.done, unit.result = True, result
                for uid, row in zip(unit.members, result):
                    partials[uid].extend(row)
                    owed[uid] -= 1
                    scored[uid] += 1
                    gens[uid] = meta.get("generation", 0)
            for loser in list(unit.rids):
                # A shard out-raced by a hedge was silent past
                # hedge_after: that is a slowness strike, so a
                # persistently slow shard trips its breaker even when
                # hedging hides the latency.
                lost = inflight[loser]
                if (now - lost["sent_at"]) * 1000.0 >= hedge_ms:
                    fail_attempt(loser)
                else:
                    bevent("hedge_absorb", CAT_HEDGE, shard=lost["shard"])
                    abandon(loser)

        def finalize(uid: int, outcome: str = "ok") -> None:
            del unanswered[uid]
            fin_start_ms = recorder.now_ms() if recorder is not None \
                else 0.0
            deadline = deadlines[uid]
            items = None
            if scored[uid] > 1:
                items = merge_topk(partials[uid], k)
            elif scored[uid]:       # one reply is already a ranked top-k
                items = [(poi_id, score)
                         for _pos, poi_id, score in partials[uid]]
            if outcome != "ok":
                response = ResilientResponse(
                    user_id=uid, items=[], quality="", deadline_met=False,
                    latency_ms=deadline.elapsed_ms())
                if self._slo is not None:
                    self._slo.record_request(answered=False)
            elif scored[uid] and not owed[uid]:
                if cfg is not None:
                    self._chain.note_full()
                    if self._res_cache is not None:
                        self._res_cache.put(uid, k, items, exclude_visited)
                latency_ms = deadline.elapsed_ms()
                response = ResilientResponse(
                    user_id=uid, items=items, quality=QUALITY_FULL,
                    deadline_met=latency_ms < deadline.budget_ms,
                    latency_ms=latency_ms)
                out[uid] = response
            else:
                response = self._degraded_response(
                    uid, k, exclude_visited, deadline, items)
                out[uid] = response
            state = traces.get(uid)
            if state is not None:
                # The two covering segments this side of admission:
                # score (fan-out wait, admission end -> finalize entry)
                # and merge (finalize entry -> answered).
                adm_end = state["adm_end_ms"]
                state["events"].append(recorder.emit(
                    state["ctx"], "fanout_wait", CAT_SCORE, ts_ms=adm_end,
                    dur_ms=max(0.0, fin_start_ms - adm_end),
                    units_done=scored[uid],
                    units=scored[uid] + owed[uid]))
                self._close_trace(state, response, "finalize",
                                  fin_start_ms, outcome, batch_events,
                                  batch_ctx.trace_id)

        try:
            while True:
                if cfg is not None:
                    # Finalize users whose budget ran down to the margin.
                    for uid in list(unanswered):
                        if deadlines[uid].remaining_ms() <= margin_ms:
                            finalize(uid)
                if entries and not unanswered:
                    break
                if all(unit.done or unit.failed for unit in units):
                    for uid in list(unanswered):
                        finalize(uid)
                    break
                for unit in units:
                    if not (unit.done or unit.failed or unit.rids):
                        dispatch(unit)
                # Wait for the earliest edge: a reply, a hedge point, a
                # hop timeout, or a user's finalize margin.
                now = time.perf_counter()
                horizon = poll_ms
                if cfg is not None:
                    for uid in unanswered:
                        horizon = min(horizon, deadlines[uid].remaining_ms()
                                      - margin_ms)
                for attempt in inflight.values():
                    age_ms = (now - attempt["sent_at"]) * 1000.0
                    unit = attempt["unit"]
                    if unit.hedges < max_hedges and len(unit.rids) == 1:
                        horizon = min(horizon, hedge_ms - age_ms)
                    horizon = min(horizon, hop_ms - age_ms)
                waiting_on = sorted({attempt["shard"]
                                     for attempt in inflight.values()})
                ready = self._supervisor.wait_any(
                    waiting_on, max(0.0, horizon) / 1000.0) \
                    if waiting_on else []
                # One reply per ready shard per pass: anything still
                # queued wakes the next pass's wait at once.
                for shard_id in ready:
                    status, message = self._supervisor.try_recv(shard_id,
                                                                step)
                    if status == "message":
                        harvest(message)
                    elif status == "dead":
                        lose_shard(shard_id)
                # Hop timeouts and hedges, against a fresh clock.
                now = time.perf_counter()
                for rid, attempt in list(inflight.items()):
                    if rid not in inflight:
                        continue    # lost with its shard this pass
                    age_ms = (now - attempt["sent_at"]) * 1000.0
                    unit = attempt["unit"]
                    if age_ms >= hop_ms:
                        if cfg is None:
                            self._supervisor.declare_hung(
                                attempt["shard"], step)
                            lose_shard(attempt["shard"])
                        else:
                            fail_attempt(rid)
                    elif age_ms >= hedge_ms and \
                            unit.hedges < max_hedges and \
                            len(unit.rids) == 1:
                        other = self._pick_shard({attempt["shard"]})
                        if other is not None and send_attempt(unit, other):
                            unit.hedges += 1
                            self._count("hedges")
                            bevent("hedge_fire", CAT_HEDGE, shard=other,
                                   age_ms=round(age_ms, 3))
        except WorkerFailure as failure:
            if cfg is None:
                for uid in list(unanswered):
                    finalize(uid, outcome="error")
                if isinstance(failure, FleetUnavailableError) or \
                        self.live_shards:
                    raise
                raise FleetUnavailableError(
                    step, self._supervisor.slot_states()) from failure
            # Every shard is gone: answer from the fallback chain.
            for uid in list(unanswered):
                finalize(uid)
        finally:
            for rid in list(inflight):
                abandon(rid)
        self._note_returned(out, deadlines, resilient=cfg is not None)
        return out, gens

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def merged_shard_registry(self) -> MetricsRegistry:
        """All shards' metrics merged (cumulative across incarnations)."""
        return MetricsRegistry.merge_all(
            MetricsRegistry.from_dict(snapshot)
            for _key, snapshot in sorted(self._shard_metrics.items()))

    def stats(self) -> dict:
        """Fleet topology, supervision counters, and shard activity."""
        supervisor = self._supervisor.stats
        merged = self.merged_shard_registry()
        shard_requests = sum(
            metric.value for key, metric in merged.items()
            if key.startswith("fleet.shard.requests"))
        return {
            "num_shards": self.num_shards,
            "live_shards": self.live_shards,
            "catalogue_size": self.catalogue_size,
            "generation": self.generation,
            "swaps": self._swap_count,
            "faults": {
                "crashes": supervisor.crashes,
                "hangs": supervisor.hangs,
                "respawns": supervisor.respawns,
                "removals": supervisor.removals,
                "restarts": supervisor.restarts,
            },
            "shard_requests": shard_requests,
        }

    def resilience_stats(self) -> dict:
        """Resilience-layer counters (requires ``resilience=`` config)."""
        if self._resilience is None:
            raise RuntimeError("router has no resilience layer")
        assert self._admission is not None and self._chain is not None
        return {
            "responses_by_quality": dict(self._chain.answers_by_quality),
            "admission": self._admission.stats(),
            "breakers": {shard_id: breaker.stats()
                         for shard_id, breaker in self._breakers.items()},
            "cache": (self._res_cache.stats()
                      if self._res_cache is not None else None),
            **{name: value for name, value in self._res_counters.items()},
        }

    def trace_stats(self) -> dict:
        """Tracing-layer counters (requires ``tracing=`` config)."""
        if self._recorder is None or self._flight is None:
            raise RuntimeError("router has no tracing layer")
        return {
            "recorder": self._recorder.stats(),
            "flight": self._flight.summary(),
        }

    def dump_traces(self) -> int:
        """Write kept traces (plus the router's loose spans — breaker
        trips, supervisor lifecycle, stale-reply scoring spans) to
        ``telemetry_dir/traces.jsonl``; returns lines written.

        :meth:`close` calls this once; the span ring is *drained* so a
        manual dump before close cannot duplicate loose spans (kept
        traces append cumulatively — dump once per router).
        """
        if getattr(self, "_flight", None) is None or \
                self._telemetry_dir is None:
            return 0
        extra = None
        if self._recorder is not None:
            extra = [event.to_dict()
                     for event in self._recorder.drain()]
        return self._flight.dump(
            Path(self._telemetry_dir) / TRACES_FILENAME,
            extra_events=extra)

    def _dump_slo(self) -> None:
        """Write the SLO tracker's summary to ``telemetry_dir/slo.json``
        (the file ``repro metrics-report`` reads)."""
        if getattr(self, "_slo", None) is None or \
                self._telemetry_dir is None:
            return
        path = Path(self._telemetry_dir) / SLO_FILENAME
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self._slo.summary(), indent=2),
                        encoding="utf-8")

    def close(self) -> None:
        """Stop every shard and release the parameter block.

        Idempotent and exception-safe: a double close is a no-op, and a
        close after a failed construction (some shards spawned, some
        not) still shuts down whatever exists and unlinks the block —
        the supervisor shutdown and the block release are each
        attempted exactly once, in that order (shards must exit before
        the mapping they score against vanishes).
        """
        if self._closed:
            return
        self._closed = True
        try:
            self.dump_traces()
            self._dump_slo()
        except OSError:
            logger.warning("telemetry dump failed", exc_info=True)
        try:
            supervisor = getattr(self, "_supervisor", None)
            if supervisor is not None:
                supervisor.shutdown()
        finally:
            block = getattr(self, "_block", None)
            if block is not None:
                block.close()

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"ShardRouter(city={self.target_city!r}, "
                f"shards={self.num_live}/{self.num_shards}, "
                f"catalogue={self.catalogue_size})")
