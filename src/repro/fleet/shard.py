"""The shard worker process: attach read-only, score, reply.

A shard is deliberately thin.  It holds **no** model, dataset, or
routing state — just an :class:`InferenceEngine` whose buffers are
zero-copy views into the router's shared parameter block, plus a pipe.
All request semantics (user resolution, visited-POI exclusion, retry,
merge) live router-side, so a shard can be killed and respawned at any
moment without losing anything but in-flight replies.

Protocol (one pipe per shard, router is the only peer)::

    router -> shard   (request_id, op, payload[, trace_wire])
                      or None (shutdown)
    shard  -> router  (request_id, result, meta)

There is one scoring op, ``("topk", (user_indices, k, lo, hi,
exclusions))``: the engine ranks catalogue slice ``[lo, hi)`` for every
user (:meth:`~repro.serving.engine.InferenceEngine.top_k_slice`) and
the reply carries one ``(position, poi_id, score)`` list per user.
``exclusions`` is ``None`` or an
:class:`~repro.serving.engine.Exclusions`: each user's visited POIs as
one flat int64 id array plus offsets.  A
whole-catalogue request is simply the slice ``[0, N)``; the router
merges every user's partials with
:func:`~repro.fleet.partition.merge_topk`.

``meta`` carries ``{"shard", "incarnation", "generation", "metrics"}``
on every reply; the metrics snapshot is cumulative for this
incarnation, so the router's telemetry harvest stays correct even when
the *next* request kills the shard (kill-safe accounting, same trick as
the data-parallel worker loop), and ``generation`` names the parameter
block that scored the reply — the hot-swap protocol's per-response
provenance tag.

The other op is control plane: ``("swap", new_manifest)``.  Pipe FIFO
ordering means every request enqueued before the swap message has
already been answered against the old engine when the swap executes,
so rebinding here *is* the drain — the shard closes its old
attachment, attaches the new generation's block, and acks with the new
generation number.

When the envelope carries a fourth element — a
:meth:`~repro.obs.spans.TraceContext.to_wire` tuple — the shard times
its scoring under a child span of that context and ships the span
dict back in ``meta["spans"]``.  Spans therefore survive the shard
being killed right after replying: the *reply* carries them to the
router's flight recorder, and the shard-local ring
(``shard-<id>/spans.jsonl``, dumped at graceful exit) is only a
supplement for replies that never landed (stale hedge losers).

Fault injection: a :class:`~repro.reliability.faults.FaultPlan` is
consulted once per request with the shard's request sequence number as
the step coordinate — only in incarnation 0, by the same contract the
trainer uses, so an injected crash cannot loop a respawned shard.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.fleet.params import FleetManifest, attach_serving_engine
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import (
    CAT_SCORE,
    SPANS_FILENAME,
    SpanRecorder,
    TraceContext,
)
from repro.obs.telemetry import Telemetry
from repro.utils.blas import limit_blas_threads

__all__ = ["shard_serve_loop"]

# Keep percentile windows modest: a snapshot rides every reply.
_SHARD_HIST_WINDOW = 1024


def shard_serve_loop(pipe, manifest: FleetManifest, shard_id: int,
                     incarnation: int = 0, fault_plan=None,
                     telemetry_dir=None) -> None:
    """Body of one shard process (the fleet's ``SpawnFn`` target)."""
    limit_blas_threads()
    telemetry = None
    if telemetry_dir is not None:
        telemetry = Telemetry(Path(telemetry_dir) / f"shard-{shard_id}",
                              run_name=f"fleet-shard{shard_id}")
    registry = telemetry.registry if telemetry is not None \
        else MetricsRegistry()
    label = str(shard_id)
    requests = registry.counter("fleet.shard.requests", shard=label)
    users = registry.counter("fleet.shard.users", shard=label)
    batch_ms = registry.histogram("fleet.shard.batch_ms", shard=label,
                                  window=_SHARD_HIST_WINDOW)
    recorder = SpanRecorder(f"shard-{shard_id}")
    attach_start = time.perf_counter()
    engine, client = attach_serving_engine(manifest)
    recorder.emit_process(
        "attach", CAT_SCORE, ts_ms=attach_start * 1000.0,
        dur_ms=(time.perf_counter() - attach_start) * 1000.0,
        shard=shard_id, incarnation=incarnation)
    seq = 0
    try:
        while True:
            try:
                message = pipe.recv()
            except (EOFError, OSError):
                return                      # router died; just exit
            if message is None:             # graceful shutdown
                return
            request_id, op, payload, *rest = message
            ctx = TraceContext.from_wire(rest[0]) if rest else None
            if op == "swap":
                # Hot-swap: rebind to the new generation's block.  The
                # pipe is FIFO, so every request enqueued before the
                # swap has already been answered on the old engine —
                # the router's drain guarantee needs nothing more from
                # us.  Swap is exempt from fault injection (it is
                # control plane, not a scored request) and does not
                # advance the fault-plan step coordinate.
                swap_start = time.perf_counter()
                new_engine, new_client = attach_serving_engine(payload)
                old_client = client
                # Rebind the engine before closing the old attachment:
                # the outgoing engine's buffers are views into the old
                # mapping, and unmapping under live views raises
                # BufferError at the numpy layer.
                engine, client, manifest = new_engine, new_client, payload
                del new_engine
                old_client.close()
                recorder.emit_process(
                    "swap", CAT_SCORE, ts_ms=swap_start * 1000.0,
                    dur_ms=(time.perf_counter() - swap_start) * 1000.0,
                    shard=shard_id, incarnation=incarnation,
                    generation=manifest.generation)
                meta = {"shard": shard_id, "incarnation": incarnation,
                        "generation": manifest.generation,
                        "metrics": registry.to_dict()}
                try:
                    pipe.send((request_id,
                               {"generation": manifest.generation}, meta))
                except (BrokenPipeError, OSError):
                    return
                continue
            if op != "topk":
                raise ValueError(f"unknown fleet op {op!r}")
            if fault_plan is not None:
                fault_plan.execute_pre_step(shard_id, seq)
            seq += 1
            start = time.perf_counter()
            user_indices, k, lo, hi, exclusions = payload
            result = engine.top_k_slice(user_indices, k, lo, hi,
                                        exclusions)
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            batch_ms.observe(elapsed_ms)
            requests.inc()
            users.inc(len(user_indices))
            meta = {"shard": shard_id, "incarnation": incarnation,
                    "generation": manifest.generation,
                    "metrics": registry.to_dict()}
            if ctx is not None:
                span = recorder.emit(
                    ctx.child(), "shard_score", CAT_SCORE,
                    ts_ms=start * 1000.0, dur_ms=elapsed_ms, op=op,
                    shard=shard_id, incarnation=incarnation, seq=seq - 1,
                    users=len(user_indices))
                if span is not None:
                    meta["spans"] = [span.to_dict()]
            try:
                pipe.send((request_id, result, meta))
            except (BrokenPipeError, OSError):
                return
    finally:
        if telemetry is not None:
            try:
                telemetry.save()
                _dump_spans(Path(telemetry_dir) / f"shard-{shard_id}",
                            recorder)
            except OSError:
                pass
        client.close()


def _dump_spans(directory: Path, recorder: SpanRecorder) -> None:
    """Append this incarnation's span ring to ``spans.jsonl``."""
    events = recorder.events()
    if not events:
        return
    directory.mkdir(parents=True, exist_ok=True)
    with (directory / SPANS_FILENAME).open("a", encoding="utf-8") as out:
        for event in events:
            out.write(json.dumps({"kind": "span", **event.to_dict()})
                      + "\n")
