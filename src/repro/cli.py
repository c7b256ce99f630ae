"""Command-line interface: generate data, train, evaluate, case-study.

Usage (after ``pip install -e .``)::

    python -m repro.cli generate --preset foursquare --out data.jsonl
    python -m repro.cli train --data data.jsonl --target los_angeles \
        --model-out model.npz
    python -m repro.cli evaluate --data data.jsonl --target los_angeles \
        --model model.npz
    python -m repro.cli compare --preset yelp --methods ItemPop CTLM \
        ST-TransRec
    python -m repro.cli case-study --preset foursquare
    python -m repro.cli fleet-smoke
    python -m repro.cli train --data data.jsonl --target los_angeles \
        --workers 2 --telemetry-dir telemetry/
    python -m repro.cli metrics-report --telemetry-dir telemetry/
    python -m repro.cli trace-report --telemetry-dir telemetry/

Every command accepts ``--scale`` and ``--seed`` so results are
reproducible from the shell.  Output is split into two channels:
*report* output (tables, metrics, benchmark results) goes to stdout;
*progress* chatter goes to stderr and is silenced by ``--quiet``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
import time
from pathlib import Path

import numpy as np

from repro.baselines import METHOD_NAMES, PROFILES, make_method
from repro.core import Recommender, STTransRecConfig, STTransRecTrainer
from repro.data import (
    foursquare_like,
    generate_dataset,
    load_dataset,
    make_crossing_city_split,
    save_dataset,
    yelp_like,
)
from repro.data.stats import dataset_statistics
from repro.eval import RankingEvaluator, build_case_study
from repro.eval.reporting import format_comparison
from repro.utils.blas import limit_blas_threads
from repro.utils.logging import REPORT_LOGGER_NAME, setup_cli_logging

PRESETS = {"foursquare": foursquare_like, "yelp": yelp_like}

_report_logger = logging.getLogger(REPORT_LOGGER_NAME)
_progress_logger = logging.getLogger("repro.cli")


def _report(message: str = "") -> None:
    """Command output (stdout): the thing the user ran the command for."""
    _report_logger.info(message)


def _progress(message: str) -> None:
    """Status chatter (stderr): suppressed by ``--quiet``."""
    _progress_logger.info(message)


def _make_telemetry(args, run_name: str):
    """A :class:`~repro.obs.telemetry.Telemetry` when ``--telemetry-dir``
    was given, else ``None`` (instrumentation disabled)."""
    telemetry_dir = getattr(args, "telemetry_dir", None)
    if not telemetry_dir:
        return None
    from repro.obs.telemetry import Telemetry

    return Telemetry(telemetry_dir, run_name=run_name)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=float, default=0.5,
                        help="dataset scale factor (default 0.5)")
    parser.add_argument("--seed", type=int, default=0,
                        help="model seed (default 0)")


def _build_preset_split(args):
    config = PRESETS[args.preset](scale=args.scale)
    dataset, _ = generate_dataset(config)
    return config, dataset, make_crossing_city_split(dataset,
                                                     config.target_city)


def cmd_generate(args) -> int:
    config = PRESETS[args.preset](scale=args.scale)
    dataset, _ = generate_dataset(config)
    save_dataset(dataset, args.out)
    stats = dataset_statistics(dataset, config.target_city)
    _progress(f"wrote {args.out} (target city: {config.target_city})")
    for label, value in stats.rows():
        _report(f"  {label:<22}{value}")
    return 0


def _train_resumable(args, split, config, telemetry=None) -> int:
    """Fault-tolerant path: supervised replicas + resumable checkpoints."""
    from repro.parallel import DataParallelTrainer

    from repro.perf import PerfConfig

    checkpoint_path = args.checkpoint_path
    if checkpoint_path is None and (args.checkpoint_every or
                                    args.resume_from):
        checkpoint_path = (str(args.model_out) + ".ckpt"
                           if args.model_out else "checkpoint.npz")
    perf = PerfConfig(precision=getattr(args, "precision", "f64"))
    with DataParallelTrainer(split, config, num_workers=args.workers,
                             telemetry=telemetry, perf=perf) as trainer:
        history = trainer.train(
            epochs=args.epochs,
            checkpoint_every=args.checkpoint_every,
            checkpoint_path=checkpoint_path,
            resume_from=args.resume_from,
        )
        for stats in history:
            faults = stats.faults
            note = (f"  [{faults.total_faults} fault events]"
                    if faults and faults.total_faults else "")
            _report(f"epoch: loss {stats.mean_loss:.4f} "
                    f"({stats.steps} steps, {stats.seconds:.2f}s){note}")
        final = history[-1].mean_loss if history else float("nan")
        _report(f"trained {len(history)} epochs "
                f"({trainer.num_workers} workers), final loss {final:.4f}")
        if args.model_out:
            from repro.core.checkpoint import save_checkpoint

            save_checkpoint(trainer.model, trainer.index, args.model_out)
            _progress(f"saved model to {args.model_out}")
        if telemetry is not None:
            telemetry.save(extra=trainer.worker_registries())
            _progress(f"telemetry written to {telemetry.dir}")
    return 0


def cmd_train(args) -> int:
    dataset = load_dataset(args.data)
    split = make_crossing_city_split(dataset, args.target)
    config = STTransRecConfig(
        embedding_dim=args.embedding_dim,
        epochs=args.epochs,
        weight_decay=5e-3,
        pretrain_epochs=args.pretrain_epochs,
        seed=args.seed,
    )
    telemetry = _make_telemetry(args, "train")
    if args.workers > 1 or args.checkpoint_every or args.resume_from \
            or getattr(args, "precision", "f64") != "f64":
        if args.profile_ops:
            _progress("--profile-ops times the in-process training "
                      "passes only; worker replicas run unprofiled")
        return _train_resumable(args, split, config, telemetry)
    # The fit runs in this process; batch-sized matmuls are slower on a
    # multi-threaded BLAS pool than on one thread.
    limit_blas_threads()
    trainer = STTransRecTrainer(split, config, telemetry=telemetry)
    if args.profile_ops:
        from repro.nn.profile import profile_ops

        with profile_ops() as profile:
            result = trainer.fit()
        if telemetry is not None:
            profile.to_registry(telemetry.registry)
        _report(profile.report(top=15))
        if telemetry is not None and telemetry.dir is not None:
            telemetry.dir.mkdir(parents=True, exist_ok=True)
            (telemetry.dir / "op_profile.txt").write_text(
                profile.report() + "\n", encoding="utf-8")
    else:
        result = trainer.fit()
    _report(f"trained {result.epochs} epochs, final loss "
            f"{result.final_loss:.4f}")
    if args.model_out:
        state = trainer.model.state_dict()
        np.savez(args.model_out, **state)
        meta = {
            "target_city": args.target,
            "embedding_dim": args.embedding_dim,
            "epochs": args.epochs,
            "pretrain_epochs": args.pretrain_epochs,
            "seed": args.seed,
        }
        Path(str(args.model_out) + ".json").write_text(json.dumps(meta))
        _progress(f"saved model to {args.model_out}")
    if telemetry is not None:
        telemetry.save()
        _progress(f"telemetry written to {telemetry.dir}")
    return 0


def cmd_evaluate(args) -> int:
    dataset = load_dataset(args.data)
    split = make_crossing_city_split(dataset, args.target)
    config = STTransRecConfig(
        embedding_dim=args.embedding_dim,
        epochs=args.epochs,
        weight_decay=5e-3,
        pretrain_epochs=args.pretrain_epochs,
        seed=args.seed,
    )
    trainer = STTransRecTrainer(split, config)
    model, index = trainer.model, trainer.index
    if args.model:
        raw = np.load(args.model, allow_pickle=False)
        if "__manifest__" in raw.files:
            # repro checkpoint (v1 or v2): model + index come from the
            # manifest, so the file is self-describing.
            from repro.core.checkpoint import load_checkpoint

            model, index = load_checkpoint(args.model)
        else:
            # legacy raw state-dict archive
            trainer.model.load_state_dict(dict(raw))
        model.eval()
        _progress(f"loaded parameters from {args.model}")
    else:
        trainer.fit()
    recommender = Recommender(model, index, split.train,
                              args.target)
    result = RankingEvaluator(split, seed=42).evaluate(recommender)
    _report(f"evaluated {result.num_users} crossing-city users:")
    _report(result.table())
    return 0


def cmd_compare(args) -> int:
    config, _dataset, split = _build_preset_split(args)
    evaluator = RankingEvaluator(split, seed=42)
    profile = dataclasses.replace(PROFILES[args.preset], seed=args.seed)
    results = {}
    for name in args.methods:
        method = make_method(name, profile).fit(split)
        results[name] = evaluator.evaluate(method).scores
        _report(f"fitted {name}: recall@10 = "
                f"{results[name]['recall'][10]:.4f}")
    _report()
    _report(format_comparison(results, metric=args.metric))
    return 0


def cmd_bench(args) -> int:
    """Run one experiment (comparison/ablation/sweep) outside pytest."""
    from repro.eval.experiment import (
        build_context,
        run_ablation,
        run_dropout_sweep,
        run_method_comparison,
        run_resample_sweep,
    )
    from repro.eval.reporting import (
        format_all_metrics,
        format_scalar_sweep,
        format_sweep,
    )
    from repro.eval.viz import comparison_chart

    context = build_context(args.preset, scale=args.scale)
    if args.experiment == "comparison":
        results = run_method_comparison(context)
        _report(format_all_metrics(results))
        _report()
        _report(comparison_chart(results))
    elif args.experiment == "ablation":
        results = run_ablation(context)
        _report(format_all_metrics(results))
        _report()
        _report(comparison_chart(results))
    elif args.experiment == "resample-sweep":
        _report(format_sweep(run_resample_sweep(context), "alpha"))
    elif args.experiment == "dropout-sweep":
        _report(format_scalar_sweep(run_dropout_sweep(context), "dropout"))
    else:  # pragma: no cover — argparse restricts choices
        raise ValueError(args.experiment)
    return 0


def cmd_precision_parity(args) -> int:
    """Train f64 vs f32 on the same task; compare final eval metrics."""
    from repro.perf.parity import run_precision_parity

    report = run_precision_parity(
        scale=args.scale, embedding_dim=args.embedding_dim,
        epochs=args.epochs, num_workers=args.workers,
        tolerance=args.tolerance, with_faults=not args.no_faults)
    _report(report.table())
    return 0 if report.passed else 1


def cmd_metrics_report(args) -> int:
    """Render the aggregated telemetry of a ``--telemetry-dir``.

    Sweeps the directory's own ``events.jsonl`` plus any in immediate
    subdirectories, so per-shard fleet telemetry (``<dir>/shard-<id>/``)
    aggregates into one report.  ``--format`` picks the exposition:
    ``console`` (default, plus flight-recorder and SLO summaries when
    the tree holds them), ``prometheus`` (text exposition of the
    merged registry), or ``json`` (machine-readable rollup).
    """
    from repro.obs.export import (
        load_run_state_tree,
        load_slo_summaries,
        load_traces,
        render_console_summary,
        render_prometheus,
    )

    registry, tracer, num_runs, num_logs = load_run_state_tree(
        args.telemetry_dir)
    if num_logs == 0:
        _progress(f"no telemetry found: no events.jsonl under "
                  f"{args.telemetry_dir}")
        return 1
    fmt = getattr(args, "format", "console")
    if fmt == "prometheus":
        _report(render_prometheus(registry))
        return 0
    traces, spans, _num_dumps = load_traces(args.telemetry_dir)
    slo_summaries = load_slo_summaries(args.telemetry_dir)
    if fmt == "json":
        doc = {
            "telemetry_dir": str(args.telemetry_dir),
            "num_runs": num_runs,
            "num_logs": num_logs,
            "metrics": registry.to_dict(),
        }
        if traces or spans:
            doc["traces"] = {"kept": len(traces),
                             "loose_spans": len(spans)}
        if slo_summaries:
            doc["slo"] = [summary for _path, summary in slo_summaries]
        _report(json.dumps(doc, indent=2))
        return 0
    title = (f"telemetry report: {args.telemetry_dir} "
             f"({num_runs} run{'s' if num_runs != 1 else ''}, "
             f"{num_logs} log{'s' if num_logs != 1 else ''})")
    _report(render_console_summary(registry, tracer, title=title))
    if traces:
        by_reason: dict = {}
        for trace in traces:
            reason = trace.get("keep_reason", "?")
            by_reason[reason] = by_reason.get(reason, 0) + 1
        _report("")
        _report(f"flight recorder: {len(traces)} kept trace(s) ("
                + ", ".join(f"{reason}={count}" for reason, count
                            in sorted(by_reason.items()))
                + "); run `repro trace-report` for the breakdown")
    for _path, summary in slo_summaries:
        _report("")
        _report("SLO summary (compliance, burn-rate alerts):")
        shards = summary.get("shards") or {"": summary}
        for shard_key in sorted(shards):
            rollup = shards[shard_key]
            parts = []
            for name, obj in sorted(
                    (rollup.get("objectives") or {}).items()):
                flag = "met" if obj.get("met") else "MISSED"
                parts.append(f"{name} {obj.get('compliance', 0.0):.1%} "
                             f"{flag} ({obj.get('alerts', 0)})")
            label = f"{shard_key} shard(s): " if shard_key else ""
            _report("  " + label + "; ".join(parts))
    return 0


def cmd_trace_report(args) -> int:
    """Reconstruct cross-process request traces from a telemetry tree.

    Joins the router's flight-recorder dump (``traces.jsonl``) with
    per-shard span logs (``shard-<id>/spans.jsonl``) and prints the
    critical-path breakdown, p99 hop-category attribution, hop detail,
    and the slowest traces' timelines.  Exits 1 when the tree holds no
    kept traces (tracing was off, or nothing interesting happened).
    """
    from repro.obs.export import load_span_logs, load_traces
    from repro.obs.trace_report import format_trace_report

    traces, spans, num_dumps = load_traces(args.telemetry_dir)
    shard_spans = load_span_logs(args.telemetry_dir)
    if not traces:
        _progress(f"no traces found: no kept traces in traces.jsonl "
                  f"under {args.telemetry_dir}")
        return 1
    _report(format_trace_report(traces, spans + shard_spans,
                                num_logs=num_dumps,
                                timelines=args.timelines))
    return 0


def cmd_fleet_smoke(args) -> int:
    """Fleet fault smoke test (run in CI): a 2-shard fleet survives an
    injected shard crash mid-load, keeps answering bit-identically to
    the single-process service, and leaks no child processes."""
    import multiprocessing as mp

    from repro.core.config import STTransRecConfig
    from repro.core.model import STTransRec
    from repro.data.synthetic import foursquare_like
    from repro.fleet import ShardRouter
    from repro.parallel import SupervisionConfig
    from repro.reliability import Fault, FaultPlan
    from repro.serving.service import RecommendationService

    config = foursquare_like(scale=0.1, seed=args.seed)
    dataset, _truth = generate_dataset(config)
    index = dataset.build_index()
    model = STTransRec(index.num_users, index.num_pois, index.num_words,
                       STTransRecConfig(embedding_dim=8, seed=args.seed))
    model.eval()
    users = sorted(dataset.users)
    k = 5

    # Reference answers: the single-process engine, cache off, so any
    # fleet divergence (including after the respawn) is a real bug.
    with RecommendationService(model, index, dataset, config.target_city,
                               cache_size=0, use_batcher=False) as service:
        reference = service.recommend_many(users, k=k)

    plan = FaultPlan([Fault.crash(worker=1, step=2)])
    supervision = SupervisionConfig(step_timeout=60.0, max_respawns=2,
                                    respawn_backoff=0.01)
    with ShardRouter(model, index, dataset, config.target_city,
                     num_shards=2, fault_plan=plan,
                     supervision=supervision) as router:
        for wave in range(4):
            got = router.recommend_many(users, k=k)
            if got != reference:
                _report(f"FAIL: wave {wave} diverged from the "
                        f"single-process reference")
                return 1
        fanout = router.recommend_fanout(users[0], k=k)
        if fanout != reference[users[0]]:
            _report("FAIL: fanout top-k merge diverged from reference")
            return 1
        stats = router.stats()
    faults = stats["faults"]
    _report(f"fleet smoke: {len(users)} users x 4 waves bit-identical, "
            f"crashes={faults['crashes']} respawns={faults['respawns']} "
            f"live_shards={stats['live_shards']}")
    if faults["crashes"] < 1 or faults["respawns"] < 1:
        _report("FAIL: injected shard crash was not observed")
        return 1
    leaked = mp.active_children()
    if leaked:
        _report(f"FAIL: {len(leaked)} child process(es) leaked")
        return 1
    _report("fleet smoke OK")
    return 0


def cmd_stream_smoke(args) -> int:
    """Streaming pipeline smoke test: ingest → incremental update →
    zero-downtime hot-swap under open-loop load.

    Exercises the whole `repro.streaming` loop end to end and gates on
    the subsystem's contract:

    * recall on drifted (crossing) users recovers after streaming
      updates *without* full retraining, within a tolerance band of a
      full-retrain reference;
    * zero dropped requests across >= 2 hot-swaps under load, with
      every response tagged with the generation that scored it;
    * serving p99 during the swap phase stays near the steady-state
      p99 (reported always; gated only in the full run — on a starved
      CI core the two phases share one CPU with the swap work itself,
      so the ratio measures contention, not the protocol);
    * no leaked child processes.
    """
    import dataclasses as dc
    import multiprocessing as mp
    import tempfile

    from repro.core.checkpoint import read_checkpoint_manifest
    from repro.data.dataset import CheckinDataset
    from repro.fleet import ShardRouter
    from repro.fleet.loadgen import run_open_loop
    from repro.obs.metrics import MetricsRegistry
    from repro.parallel import SupervisionConfig
    from repro.serving.engine import InferenceEngine
    from repro.streaming import (
        CheckinStreamGenerator,
        EventLog,
        IncrementalUpdater,
        ModelPublisher,
        StreamConfig,
        load_latest,
    )

    # Training and the updater's fold-ins run in this process.
    limit_blas_threads()
    scale = 0.2 if args.tiny else args.scale
    config = foursquare_like(scale=scale, seed=args.seed)
    dataset, truth = generate_dataset(config)
    split = make_crossing_city_split(dataset, config.target_city)
    target = config.target_city
    k = args.k

    train_config = STTransRecConfig(
        embedding_dim=8 if args.tiny else 16,
        hidden_sizes=[8] if args.tiny else [16],
        epochs=2 if args.tiny else 4,
        pretrain_epochs=2,
        mmd_batch_size=16,
        batch_size=32,
        grid_shape=(4, 4),
        segmentation_threshold=0.2,
        seed=args.seed,
    )
    _progress(f"training base model ({len(split.train.checkins)} "
              f"check-ins)...")
    trainer = STTransRecTrainer(split, train_config)
    trainer.fit()
    model, index = trainer.model, trainer.index

    # ------------------------------------------------------------------
    # Stream: city-switch bursts for the crossing cohort.  Ingest
    # bursts feed the updater; held-out bursts (same drifted
    # distribution, never ingested) are the recall ground truth.
    # ------------------------------------------------------------------
    stream_config = StreamConfig(drift=0.7, users_per_burst=8,
                                 checkins_per_user=4, seed=args.seed + 1)
    generator = CheckinStreamGenerator(split.train, truth, target,
                                       stream_config)
    cohort = generator.streamers
    log = EventLog()
    ingest_bursts = [generator.ingest_burst(log, users=cohort)
                     for _ in range(2)]
    heldout = generator.burst(users=cohort) + generator.burst(users=cohort)

    visited = {u: {c.poi_id for c in split.train.checkins
                   if c.user_id == u} for u in cohort}
    ingested_by_user: dict = {}
    for burst in ingest_bursts:
        for event in burst:
            ingested_by_user.setdefault(event.user_id,
                                        set()).add(event.poi_id)
    heldout_by_user: dict = {}
    for event in heldout:
        if event.poi_id not in ingested_by_user.get(event.user_id, ()):
            heldout_by_user.setdefault(event.user_id,
                                       set()).add(event.poi_id)

    def recall(eval_model) -> float:
        engine = InferenceEngine.from_model(eval_model, index, split.train,
                                            target)
        users = [u for u in cohort if heldout_by_user.get(u)]
        indices = [index.users.index_of(u) for u in users]
        exclude = [visited[u] | ingested_by_user.get(u, set())
                   for u in users]
        rows = engine.top_k_catalogue(indices, k, exclude_poi_ids=exclude)
        scores = []
        for u, row in zip(users, rows):
            top = {poi_id for poi_id, _score in row}
            truth_set = heldout_by_user[u]
            scores.append(len(top & truth_set) / len(truth_set))
        return float(np.mean(scores)) if scores else 0.0

    recall_frozen = recall(model)

    with tempfile.TemporaryDirectory(prefix="stream-smoke-") as pub_dir:
        publisher = ModelPublisher(pub_dir)
        publisher.publish(model, index)       # generation 0: the baseline
        pool = [p.poi_id for p in dataset.pois_in_city(target)]
        registry = MetricsRegistry()
        updater = IncrementalUpdater(
            model, index, split.train, pool,
            learning_rate=0.3, fold_in_steps=20, retrain_lr=0.1,
            retrain_steps=150, num_negatives=8, rng=args.seed,
            registry=registry)
        replayed_pairs = []
        burst_ms = []

        # Base fleet serves generation 0 (parameters were frozen into
        # the shared block at construction; later in-place updates to
        # `model` don't leak into it).
        supervision = SupervisionConfig(step_timeout=60.0, max_respawns=2,
                                        respawn_backoff=0.01)
        all_users = sorted(split.train.users)
        published = []
        with ShardRouter(model, index, split.train, target, num_shards=2,
                         supervision=supervision) as router:
            _progress("steady-state load phase...")
            steady = run_open_loop(router, all_users, rate=args.rate,
                                   duration_s=args.duration, k=k,
                                   seed=args.seed)

            # Two incremental update rounds, each published as a new
            # generation and loaded back through the checkpoint path
            # (pointer + manifest validated by load_latest).
            for burst in ingest_bursts:
                started = time.perf_counter()
                updater.ingest(burst)
                ingested = time.perf_counter()
                updater.retrain()
                burst_ms.append((1000.0 * (ingested - started), 1000.0 * (
                    time.perf_counter() - ingested)))
                replayed_pairs.append(int(
                    registry.gauge("streaming.retrain_rows").value))
                generation = publisher.publish(model, index)
                loaded_model, _idx, loaded_gen = load_latest(pub_dir)
                if loaded_gen != generation:
                    _report(f"FAIL: published generation {generation} "
                            f"but loaded {loaded_gen}")
                    return 1
                if not np.array_equal(loaded_model.user_vectors(),
                                      model.user_vectors()):
                    _report("FAIL: published checkpoint is not bit-exact "
                            "against the updater's model")
                    return 1
                published.append((loaded_model, generation))
            recall_streamed = recall(model)

            # Swap-under-load: trigger one hot-swap per published
            # generation at evenly spaced batch counts.
            swaps = list(published)
            generations_seen: list = []
            tagged = [0]

            class SwapUnderLoad:
                def __init__(self, router):
                    self._router = router
                    self._batches = 0

                def recommend_many(self, user_ids, k, exclude_visited):
                    self._batches += 1
                    if swaps and self._batches % 4 == 0:
                        swap_model, generation = swaps.pop(0)
                        self._router.swap(swap_model,
                                          generation=generation)
                    out, gens = self._router.recommend_many(
                        user_ids, k, exclude_visited,
                        return_generations=True)
                    generations_seen.extend(gens.values())
                    tagged[0] += len(gens)
                    return out

            _progress("swap-under-load phase...")
            backend = SwapUnderLoad(router)
            swap_phase = run_open_loop(backend, all_users, rate=args.rate,
                                       duration_s=args.duration, k=k,
                                       seed=args.seed + 1)
            while swaps:      # load too short to hit every trigger batch
                swap_model, generation = swaps.pop(0)
                router.swap(swap_model, generation=generation)
            stats = router.stats()

        latest = read_checkpoint_manifest(
            Path(pub_dir) / f"gen-{stats['generation']}.npz")

    # ------------------------------------------------------------------
    # Full-retrain reference: same config, trained from scratch on the
    # base check-ins plus everything the stream ingested.
    # ------------------------------------------------------------------
    _progress("training full-retrain reference...")
    augmented = CheckinDataset(
        split.train.pois.values(),
        split.train.checkins + [e.to_record()
                                for b in ingest_bursts for e in b])
    full_trainer = STTransRecTrainer(dc.replace(split, train=augmented),
                                     train_config)
    full_trainer.fit()
    recall_full = recall(full_trainer.model)

    # ------------------------------------------------------------------
    # Report + gates
    # ------------------------------------------------------------------
    p99_ratio = (swap_phase.p99_ms / steady.p99_ms
                 if steady.p99_ms > 0 else float("inf"))
    _report(f"recall@{k} on drifted users: frozen={recall_frozen:.3f} "
            f"streamed={recall_streamed:.3f} full-retrain={recall_full:.3f}")
    _report(f"load: steady p99={steady.p99_ms:.1f}ms "
            f"swap-phase p99={swap_phase.p99_ms:.1f}ms "
            f"(ratio {p99_ratio:.2f}); "
            f"served {steady.served + swap_phase.served}/"
            f"{steady.offered + swap_phase.offered} offered")
    _report(f"fleet: generation={stats['generation']} "
            f"swaps={stats['swaps']} "
            f"events={updater.stats.events_ingested} "
            f"retrains={updater.stats.retrain_rounds}")
    _report(f"retrain: pairs replayed per step, by round: "
            f"{replayed_pairs} (new rows plus an equal-size sample of "
            f"older ones, x num_negatives)")
    for i, (ingest_ms, retrain_ms) in enumerate(burst_ms):
        _report(f"updater: burst {i} ingest={ingest_ms:.1f}ms "
                f"retrain={retrain_ms:.1f}ms")

    failed = False
    if steady.served != steady.offered or \
            swap_phase.served != swap_phase.offered:
        _report("FAIL: dropped requests "
                f"(steady {steady.offered - steady.served}, "
                f"swap phase {swap_phase.offered - swap_phase.served})")
        failed = True
    if stats["swaps"] < 2:
        _report(f"FAIL: expected >= 2 hot-swaps, saw {stats['swaps']}")
        failed = True
    if updater.stats.retrain_rounds < 1:
        _report("FAIL: no incremental retrain round ran")
        failed = True
    if tagged[0] != len(generations_seen) or tagged[0] == 0:
        _report("FAIL: responses missing generation tags")
        failed = True
    if generations_seen != sorted(generations_seen):
        _report("FAIL: generation tags regressed during the swap phase")
        failed = True
    if latest.get("generation") != stats["generation"]:
        _report(f"FAIL: fleet generation {stats['generation']} does not "
                f"match the published manifest {latest.get('generation')}")
        failed = True
    if recall_streamed < recall_frozen:
        _report(f"FAIL: streaming updates regressed recall "
                f"({recall_frozen:.3f} -> {recall_streamed:.3f})")
        failed = True
    tolerance = 0.25 if args.tiny else 0.10
    if recall_streamed < recall_full - tolerance:
        _report(f"FAIL: streamed recall {recall_streamed:.3f} more than "
                f"{tolerance} below full-retrain {recall_full:.3f}")
        failed = True
    if not args.tiny and p99_ratio > 1.10:
        _report(f"FAIL: swap-phase p99 {p99_ratio:.2f}x steady "
                f"(budget 1.10x)")
        failed = True
    leaked = mp.active_children()
    if leaked:
        _report(f"FAIL: {len(leaked)} child process(es) leaked")
        failed = True
    if failed:
        return 1
    _report("stream smoke OK")
    return 0


def cmd_fault_smoke(args) -> int:
    """Fault-injection smoke test: crash + NaN survival, then a
    loss-neutral resume proof (run in CI)."""
    import tempfile

    from repro.data.synthetic import CitySpec, SyntheticConfig
    from repro.parallel import DataParallelTrainer, SupervisionConfig
    from repro.reliability import Fault, FaultPlan

    world = SyntheticConfig(
        cities=[
            CitySpec("springfield", grid_shape=(4, 4), num_regions=2,
                     num_pois=40, num_local_users=20,
                     accessibility_skew=1.2, topic_tilt=0.8),
            CitySpec("shelbyville", grid_shape=(4, 4), num_regions=2,
                     num_pois=36, num_local_users=18,
                     accessibility_skew=1.4, topic_tilt=0.5),
        ],
        target_city="shelbyville", num_topics=4, shared_words_per_topic=6,
        city_words_per_topic=3, num_generic_words=8, generic_fraction=0.15,
        words_per_poi=5, city_dependent_fraction=0.4, num_crossing_users=10,
        checkins_per_local_user=15, crossing_target_checkins=4, drift=0.25,
        trips_per_user=4, preference_concentration=0.25, seed=args.seed,
    )
    dataset, _ = generate_dataset(world)
    split = make_crossing_city_split(dataset, "shelbyville")
    config = STTransRecConfig(embedding_dim=8, hidden_sizes=[8],
                              batch_size=32, grid_shape=(4, 4),
                              segmentation_threshold=0.2, seed=args.seed)
    supervision = SupervisionConfig(step_timeout=30.0, max_respawns=2,
                                    respawn_backoff=0.01)
    plan = FaultPlan([Fault.crash(worker=1, step=2),
                      Fault.nan_grad(worker=0, step=4)])

    with tempfile.TemporaryDirectory() as tmp:
        ckpt = Path(tmp) / "smoke.npz"

        # 1) Two replicas, one injected crash + one injected NaN step:
        #    the epoch must complete and record both events.
        with DataParallelTrainer(split, config, num_workers=2,
                                 fault_plan=plan,
                                 supervision=supervision) as faulted:
            history = faulted.train(epochs=2, checkpoint_every=1,
                                    checkpoint_path=ckpt)
        faults = history[0].faults
        for stats in history[1:]:
            faults = faults.merged_with(stats.faults)
        _report(f"faulted run: {len(history)} epochs, "
                f"crashes={faults.crashes} respawns={faults.respawns} "
                f"nan_contributions={faults.nonfinite_contributions}")
        if faults.crashes < 1 or faults.respawns < 1 \
                or faults.nonfinite_contributions < 1:
            _report("FAIL: injected faults were not observed")
            return 1

        # 2) Resuming the faulted run's checkpoint must train onwards.
        with DataParallelTrainer(split, config, num_workers=2,
                                 supervision=supervision) as resumed:
            more = resumed.train(epochs=3, resume_from=ckpt)
        if len(more) != 1 or not np.isfinite(more[0].mean_loss):
            _report("FAIL: resume from the faulted run did not continue")
            return 1
        _report(f"resume after faults: epoch 3 loss {more[0].mean_loss:.4f}")

        # 3) Loss-neutrality proof: interrupt + resume must finish
        #    bit-identical to the uninterrupted run.
        with DataParallelTrainer(split, config) as reference:
            reference.train(epochs=3)
        with DataParallelTrainer(split, config) as interrupted:
            interrupted.train(epochs=2, checkpoint_every=2,
                              checkpoint_path=ckpt)
        with DataParallelTrainer(split, config) as continued:
            continued.train(epochs=3, resume_from=ckpt)
        for name, param in reference.model.named_parameters():
            restored = dict(continued.model.named_parameters())[name]
            if not np.array_equal(param.data, restored.data):
                _report(f"FAIL: parameter {name} differs after resume")
                return 1
        _report("resume is bit-identical to the uninterrupted run")
    _report("fault smoke OK")
    return 0


def cmd_case_study(args) -> int:
    limit_blas_threads()            # both fits run in this process
    config, _dataset, split = _build_preset_split(args)
    profile = dataclasses.replace(PROFILES[args.preset], seed=args.seed)
    from repro.baselines import STTransRecMethod
    full = STTransRecMethod(profile.st_transrec_config())
    full.fit(split)
    no_text = STTransRecMethod(profile.st_transrec_config(),
                               variant="ST-TransRec-2")
    no_text.fit(split)
    study = build_case_study(
        split,
        {"ST-TransRec": full.recommender,
         "ST-TransRec-2": no_text.recommender},
        user_id=args.user,
    )
    _report(study.format())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress output on stderr "
                             "(report output still goes to stdout)")
    parser.add_argument("--log-level", default="info",
                        choices=["debug", "info", "warning", "error"],
                        help="stderr progress/diagnostics level "
                             "(default info)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesize a dataset to JSONL")
    p.add_argument("--preset", choices=sorted(PRESETS), required=True)
    p.add_argument("--out", required=True, help="output JSONL path")
    _add_common(p)
    p.set_defaults(func=cmd_generate)

    for name, func, needs_model in (("train", cmd_train, False),
                                    ("evaluate", cmd_evaluate, True)):
        p = sub.add_parser(name, help=f"{name} ST-TransRec on a dataset")
        p.add_argument("--data", required=True, help="dataset JSONL path")
        p.add_argument("--target", required=True, help="target city name")
        p.add_argument("--embedding-dim", type=int, default=32)
        p.add_argument("--epochs", type=int, default=12)
        p.add_argument("--pretrain-epochs", type=int, default=15)
        if needs_model:
            p.add_argument("--model", help="load parameters from .npz")
        else:
            p.add_argument("--model-out", help="save parameters to .npz")
            p.add_argument("--workers", type=int, default=1,
                           help="data-parallel replicas (supervised; "
                                "default 1)")
            p.add_argument("--checkpoint-every", type=int, default=None,
                           metavar="N",
                           help="write a resumable checkpoint every N "
                                "epochs (routes through the "
                                "fault-tolerant trainer)")
            p.add_argument("--checkpoint-path", default=None,
                           help="checkpoint file (default: "
                                "<model-out>.ckpt or checkpoint.npz)")
            p.add_argument("--resume-from", default=None, metavar="CKPT",
                           help="resume bit-exactly from a v2 checkpoint")
            p.add_argument("--telemetry-dir", default=None, metavar="DIR",
                           help="write metrics/spans telemetry "
                                "(events.jsonl, metrics.prom, "
                                "summary.txt) under DIR")
            p.add_argument("--profile-ops", action="store_true",
                           help="profile per-pass training time and "
                                "allocations (single-process path)")
            p.add_argument("--precision", choices=["f64", "f32"],
                           default="f64",
                           help="floating-point policy: f64 reference "
                                "or the f32 fast path (routes through "
                                "the fault-tolerant trainer)")
        _add_common(p)
        p.set_defaults(func=func)

    p = sub.add_parser("compare", help="compare methods on a preset")
    p.add_argument("--preset", choices=sorted(PRESETS), required=True)
    p.add_argument("--methods", nargs="+", default=list(METHOD_NAMES),
                   choices=list(METHOD_NAMES) + [
                       "ST-TransRec-1", "ST-TransRec-2", "ST-TransRec-3"],
                   help="method names (default: all nine)")
    p.add_argument("--metric", default="recall",
                   choices=["recall", "precision", "ndcg", "map"])
    _add_common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("bench", help="run one experiment end to end")
    p.add_argument("--preset", choices=sorted(PRESETS), required=True)
    p.add_argument("--experiment", required=True,
                   choices=["comparison", "ablation", "resample-sweep",
                            "dropout-sweep"])
    _add_common(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("fleet-smoke",
                       help="fleet fault smoke test: 2 shards, "
                            "injected shard crash, answers stay "
                            "bit-identical to the single process, "
                            "no leaked children")
    p.add_argument("--seed", type=int, default=3,
                   help="world + model seed (default 3)")
    p.set_defaults(func=cmd_fleet_smoke)

    p = sub.add_parser("stream-smoke",
                       help="streaming pipeline smoke test: check-in "
                            "ingest, incremental updates, versioned "
                            "publication, and >= 2 zero-downtime "
                            "hot-swaps under open-loop load with "
                            "generation-tagged responses")
    p.add_argument("--tiny", action="store_true",
                   help="CI smoke configuration (small world, short "
                        "load; the p99-during-swap gate is reported "
                        "but not enforced on a starved CI core)")
    p.add_argument("--k", type=int, default=5,
                   help="top-k list length for load and recall "
                        "(default 5)")
    p.add_argument("--rate", type=float, default=150.0,
                   help="offered load in users/s per phase (default 150)")
    p.add_argument("--duration", type=float, default=1.5,
                   help="seconds per load phase (default 1.5)")
    _add_common(p)
    p.set_defaults(func=cmd_stream_smoke)

    p = sub.add_parser("precision-parity",
                       help="train f64 vs f32 on the same synthetic "
                            "task and compare final eval metrics "
                            "within a tolerance band")
    p.add_argument("--scale", type=float, default=0.5,
                   help="synthetic world scale (default 0.5)")
    p.add_argument("--embedding-dim", type=int, default=32)
    p.add_argument("--epochs", type=int, default=2)
    p.add_argument("--workers", type=int, default=1,
                   help="data-parallel replicas per leg (default 1)")
    p.add_argument("--tolerance", type=float, default=0.05,
                   help="max |f64 - f32| per metric, in absolute "
                        "metric points (default 0.05)")
    p.add_argument("--no-faults", action="store_true",
                   help="skip the fault-injected f32 leg")
    p.set_defaults(func=cmd_precision_parity)

    p = sub.add_parser("metrics-report",
                       help="print the aggregated telemetry of a "
                            "--telemetry-dir")
    p.add_argument("--telemetry-dir", required=True, metavar="DIR",
                   help="directory a previous run wrote telemetry into")
    p.add_argument("--format", choices=["console", "json", "prometheus"],
                   default="console",
                   help="exposition format (default console; console "
                        "and json include flight-recorder / SLO "
                        "summaries when the tree holds them)")
    p.set_defaults(func=cmd_metrics_report)

    p = sub.add_parser("trace-report",
                       help="reconstruct per-request distributed traces "
                            "from a --telemetry-dir: critical-path "
                            "breakdown, p99 hop attribution, slowest-"
                            "trace timelines")
    p.add_argument("--telemetry-dir", required=True, metavar="DIR",
                   help="directory holding traces.jsonl (and per-shard "
                        "spans.jsonl) from a traced run")
    p.add_argument("--timelines", type=int, default=1,
                   help="how many slowest-trace timelines to print "
                        "(default 1)")
    p.set_defaults(func=cmd_trace_report)

    p = sub.add_parser("fault-smoke",
                       help="fault-injection smoke test: survive an "
                            "injected crash + NaN step and prove "
                            "bit-exact resume")
    p.add_argument("--seed", type=int, default=3,
                   help="world + model seed (default 3)")
    p.set_defaults(func=cmd_fault_smoke)

    p = sub.add_parser("case-study", help="Table 3-style case study")
    p.add_argument("--preset", choices=sorted(PRESETS), required=True)
    p.add_argument("--user", type=int, default=None,
                   help="test user id (default: richest ground truth)")
    _add_common(p)
    p.set_defaults(func=cmd_case_study)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    setup_cli_logging(level=getattr(logging, args.log_level.upper()),
                      quiet=args.quiet)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
