"""Telemetry wired end to end: trainer, parallel workers, serving, CLI.

The cross-process contract under test: every worker reply carries a
cumulative registry snapshot, the master keeps the latest snapshot per
``(worker, incarnation)``, and merging at read time therefore preserves
the final state of replicas that crashed or were removed mid-run.
"""

import json

import numpy as np
import pytest

from repro.core.trainer import STTransRecTrainer
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import EVENTS_FILE, PROM_FILE, Telemetry
from repro.parallel import DataParallelTrainer, SupervisionConfig
from repro.reliability import Fault, FaultPlan
from repro.serving.batcher import MicroBatcher
from repro.serving.cache import TopKCache
from repro.serving.service import LatencyTracker, RecommendationService

from tests.test_core_trainer import fast_config
from tests.test_serving_service import make_model

FAST_SUPERVISION = SupervisionConfig(step_timeout=30.0, max_respawns=2,
                                     respawn_backoff=0.01)


class TestTrainerTelemetry:
    def test_fit_records_metrics_and_spans(self, tiny_split):
        telemetry = Telemetry()
        trainer = STTransRecTrainer(tiny_split, fast_config(epochs=2),
                                    telemetry=telemetry)
        trainer.fit()
        registry = telemetry.registry
        assert registry.counter("train.epochs").value == 2
        loss = registry.gauge("train.epoch.loss", component="total")
        assert np.isfinite(loss.value)
        assert registry.histogram("train.loss.total").count > 0
        fit = telemetry.tracer.root.children["fit"]
        assert fit.children["epoch"].count == 2
        assert "interaction" in fit.children["epoch"].children

    def test_per_component_step_counters_agree(self, tiny_split):
        telemetry = Telemetry()
        trainer = STTransRecTrainer(tiny_split, fast_config(epochs=1),
                                    telemetry=telemetry)
        trainer.fit()
        interaction = telemetry.registry.counter(
            "train.steps", component="interaction_source").value
        assert interaction > 0

    def test_disabled_telemetry_changes_nothing(self, tiny_split):
        with_tel = STTransRecTrainer(tiny_split, fast_config(epochs=1),
                                     telemetry=Telemetry())
        without = STTransRecTrainer(tiny_split, fast_config(epochs=1))
        with_tel.fit()
        without.fit()
        for (name, a), (_n, b) in zip(
                with_tel.model.named_parameters(),
                without.model.named_parameters()):
            np.testing.assert_array_equal(a.data, b.data, err_msg=name)


class TestParallelTelemetry:
    def test_per_worker_histograms_reach_the_master(self, tiny_split):
        telemetry = Telemetry()
        with DataParallelTrainer(tiny_split, fast_config(), num_workers=2,
                                 telemetry=telemetry) as dp:
            stats = dp.train_epoch()
            merged = dp.merged_metrics()
        assert len(dp.worker_registries()) == 2
        for worker in ("0", "1"):
            hist = merged.get("worker.step_time_ms", worker=worker)
            assert hist is not None
            assert hist.count == stats.steps
            counter = merged.get("worker.steps", worker=worker)
            assert counter.value == stats.steps
        assert merged.counter("faults.crashes").value == 0
        assert merged.counter("train.epochs").value == 1

    def test_merge_order_is_irrelevant(self, tiny_split):
        telemetry = Telemetry()
        with DataParallelTrainer(tiny_split, fast_config(), num_workers=2,
                                 telemetry=telemetry) as dp:
            dp.train_epoch()
            regs = dp.worker_registries()
        ab = regs[0].merged_with(regs[1])
        ba = regs[1].merged_with(regs[0])
        assert ab.to_dict() == ba.to_dict()

    def test_degraded_worker_final_registry_is_retained(self, tiny_split):
        # Worker 1 crashes at step 1 with no respawn budget: it is
        # removed mid-epoch, but the snapshot shipped with its last
        # successful reply must survive to the master's aggregate.
        plan = FaultPlan([Fault.crash(worker=1, step=1)])
        supervision = SupervisionConfig(step_timeout=30.0, max_respawns=0,
                                        respawn_backoff=0.0)
        telemetry = Telemetry()
        with DataParallelTrainer(tiny_split, fast_config(), num_workers=2,
                                 fault_plan=plan, supervision=supervision,
                                 telemetry=telemetry) as dp:
            stats = dp.train_epoch()
            merged = dp.merged_metrics()
        assert stats.faults.removals == 1
        dead = merged.get("worker.step_time_ms", worker="1")
        assert dead is not None and dead.count >= 1
        # The survivor kept stepping, so its series is strictly longer.
        alive = merged.get("worker.step_time_ms", worker="0")
        assert alive.count > dead.count
        assert merged.counter("faults.crashes").value == 1
        assert merged.counter("faults.removals").value == 1

    def test_respawned_worker_snapshots_do_not_collide(self, tiny_split):
        # A respawned replica reuses the worker id but has a fresh
        # incarnation, so both registries count (the pre-crash steps
        # and the post-respawn steps sum, not overwrite).
        plan = FaultPlan([Fault.crash(worker=1, step=1)])
        telemetry = Telemetry()
        with DataParallelTrainer(tiny_split, fast_config(), num_workers=2,
                                 fault_plan=plan,
                                 supervision=FAST_SUPERVISION,
                                 telemetry=telemetry) as dp:
            stats = dp.train_epoch()
            merged = dp.merged_metrics()
            snapshots = len(dp.worker_registries())
        assert stats.faults.respawns == 1
        assert snapshots == 3  # worker 0, worker 1 pre- and post-crash
        total = sum(m.value for key, m in merged.items()
                    if key.startswith("worker.steps"))
        # Replies from the crashed step are lost, never double counted.
        assert total <= 2 * stats.steps

    def test_single_process_path_records_step_metrics(self, tiny_split):
        telemetry = Telemetry()
        with DataParallelTrainer(tiny_split, fast_config(), num_workers=1,
                                 telemetry=telemetry) as dp:
            stats = dp.train_epoch()
        hist = telemetry.registry.get("worker.step_time_ms", worker="0")
        assert hist.count == stats.steps


class TestServingTelemetry:
    def test_latency_histograms_are_shared_with_registry(self, tiny_split):
        dataset = tiny_split.train
        index = dataset.build_index()
        registry = MetricsRegistry()
        with RecommendationService(make_model(index), index, dataset,
                                   "shelbyville", use_batcher=False,
                                   registry=registry) as service:
            user = sorted(dataset.users)[0]
            service.recommend(user, k=5)   # miss
            service.recommend(user, k=5)   # hit
        assert registry.histogram("serving.request_latency_ms").count == 2
        assert registry.histogram("serving.miss_latency_ms").count == 1
        assert registry.histogram("serving.hit_latency_ms").count == 1
        # The service's own stats read the same instruments.
        assert service.request_latency.count == 2
        assert registry.counter("serving.cache.hits").value == 1
        assert registry.counter("serving.cache.misses").value == 1
        assert registry.gauge("serving.cache.hit_rate").value == 0.5

    def test_fold_in_counter(self, tiny_split):
        dataset = tiny_split.train
        index = dataset.build_index()
        registry = MetricsRegistry()
        with RecommendationService(make_model(index), index, dataset,
                                   "shelbyville", use_batcher=False,
                                   registry=registry) as service:
            user = sorted(dataset.users)[0]
            pois = [r.poi_id for r in dataset.user_profile(user)][:2]
            service.fold_in(user, pois)
        assert registry.counter("serving.fold_ins").value == 1

    def test_cache_metrics_standalone(self):
        registry = MetricsRegistry()
        cache = TopKCache(max_size=2, registry=registry)
        cache.get(1, 5)
        cache.put(1, 5, ["x"])
        cache.get(1, 5)
        cache.put(2, 5, ["y"])
        cache.put(3, 5, ["z"])        # evicts user 1
        cache.invalidate(2)
        assert registry.counter("serving.cache.misses").value == 1
        assert registry.counter("serving.cache.hits").value == 1
        assert registry.counter("serving.cache.evictions").value == 1
        assert registry.counter("serving.cache.invalidations").value == 1
        assert registry.gauge("serving.cache.size").value == 1
        # Plain attributes keep working for existing callers.
        assert cache.hits == 1 and cache.evictions == 1

    def test_batcher_occupancy_histogram(self):
        registry = MetricsRegistry()
        with MicroBatcher(lambda reqs: [r * 2 for r in reqs],
                          max_batch_size=4, max_wait_ms=20.0,
                          registry=registry) as batcher:
            futures = [batcher.submit(i) for i in range(3)]
            assert [f.result(timeout=5.0) for f in futures] == [0, 2, 4]
        assert registry.counter("serving.batch.requests").value == 3
        occupancy = registry.histogram("serving.batch.occupancy")
        assert occupancy.count == registry.counter(
            "serving.batch.batches").value
        assert occupancy.total == pytest.approx(3)


class TestLatencyTrackerDriftFix:
    def test_summary_keys_are_backward_compatible(self):
        tracker = LatencyTracker()
        tracker.record(2.0)
        summary = tracker.summary()
        for key in ("count", "mean_ms", "p50_ms", "p95_ms"):
            assert key in summary
        for key in ("lifetime_mean_ms", "window_mean_ms", "window_count"):
            assert key in summary

    def test_lifetime_and_window_means_reported_separately(self):
        tracker = LatencyTracker(window=2)
        tracker.record(1000.0)     # rolls out of the window
        tracker.record(1.0)
        tracker.record(3.0)
        summary = tracker.summary()
        assert summary["mean_ms"] == pytest.approx(1004.0 / 3)
        assert summary["lifetime_mean_ms"] == summary["mean_ms"]
        assert summary["window_mean_ms"] == pytest.approx(2.0)
        assert summary["window_count"] == 2
        assert summary["count"] == 3
        # Percentiles come from the same window the window mean does.
        assert summary["p95_ms"] <= 3.0

    def test_legacy_attributes_still_exist(self):
        tracker = LatencyTracker()
        tracker.record(5.0)
        assert tracker.count == 1
        assert tracker.total_ms == pytest.approx(5.0)
        assert tracker.samples_ms == [5.0]
        assert tracker.mean_ms == pytest.approx(5.0)


class TestCliTelemetry:
    def _generate(self, tmp_path):
        from repro.cli import main

        data = tmp_path / "data.jsonl"
        main(["generate", "--preset", "foursquare", "--out", str(data),
              "--scale", "0.15"])
        return data

    def test_train_writes_telemetry_and_report_reads_it(self, tmp_path,
                                                        capsys):
        from repro.cli import main

        data = self._generate(tmp_path)
        tel_dir = tmp_path / "tel"
        code = main(["train", "--data", str(data),
                     "--target", "los_angeles",
                     "--embedding-dim", "8", "--epochs", "1",
                     "--pretrain-epochs", "1",
                     "--telemetry-dir", str(tel_dir)])
        assert code == 0
        assert (tel_dir / EVENTS_FILE).exists()
        assert "train_epochs" in (tel_dir / PROM_FILE).read_text()
        capsys.readouterr()

        code = main(["metrics-report", "--telemetry-dir", str(tel_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "train.epochs" in out
        assert "telemetry report" in out

    def test_parallel_train_exports_worker_series(self, tmp_path, capsys):
        from repro.cli import main

        data = self._generate(tmp_path)
        tel_dir = tmp_path / "tel"
        code = main(["train", "--data", str(data),
                     "--target", "los_angeles",
                     "--embedding-dim", "8", "--epochs", "1",
                     "--pretrain-epochs", "1", "--workers", "2",
                     "--telemetry-dir", str(tel_dir)])
        assert code == 0
        prom = (tel_dir / PROM_FILE).read_text()
        assert 'worker_step_time_ms_bucket{worker="0"' in prom
        assert 'worker_step_time_ms_bucket{worker="1"' in prom
        assert "faults_crashes 0.0" in prom
        capsys.readouterr()

    def test_training_and_serving_share_one_telemetry_dir(self, tmp_path,
                                                          capsys):
        """A training run and a serving session save into one directory;
        the merged report and exposition carry both."""
        from repro.cli import main
        from repro.data import load_dataset

        data = self._generate(tmp_path)
        tel_dir = tmp_path / "tel"
        code = main(["train", "--data", str(data),
                     "--target", "los_angeles",
                     "--embedding-dim", "8", "--epochs", "1",
                     "--pretrain-epochs", "1",
                     "--telemetry-dir", str(tel_dir)])
        assert code == 0

        dataset = load_dataset(data)
        index = dataset.build_index()
        telemetry = Telemetry(tel_dir, run_name="serving")
        with RecommendationService(make_model(index), index, dataset,
                                   "los_angeles", use_batcher=False,
                                   registry=telemetry.registry) as service:
            users = sorted(dataset.users)[:4]
            service.recommend_many(users, k=5)      # misses
            service.recommend_many(users, k=5)      # hits
        telemetry.save()
        capsys.readouterr()

        code = main(["metrics-report", "--telemetry-dir", str(tel_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "(2 runs," in out
        assert "train.epochs" in out
        assert "serving.cache.hit_rate" in out
        prom = (tel_dir / PROM_FILE).read_text()
        assert "train_epochs" in prom
        assert "serving_cache_hit_rate 0.5" in prom

    def test_metrics_report_missing_dir_fails(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["metrics-report",
                     "--telemetry-dir", str(tmp_path / "nope")])
        assert code == 1

    def test_quiet_suppresses_progress_not_reports(self, tmp_path, capsys):
        from repro.cli import main

        out_path = tmp_path / "data.jsonl"
        code = main(["--quiet", "generate", "--preset", "foursquare",
                     "--out", str(out_path), "--scale", "0.15"])
        assert code == 0
        captured = capsys.readouterr()
        assert "#Check-ins" in captured.out      # report: still there
        assert "wrote" not in captured.err       # progress: silenced

    def test_profile_ops_prints_table(self, tmp_path, capsys):
        from repro.cli import main

        data = self._generate(tmp_path)
        tel_dir = tmp_path / "tel"
        code = main(["train", "--data", str(data),
                     "--target", "los_angeles",
                     "--embedding-dim", "8", "--epochs", "1",
                     "--pretrain-epochs", "1", "--profile-ops",
                     "--telemetry-dir", str(tel_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "training pass profile" in out
        assert "InteractionBCE" in out
        assert (tel_dir / "op_profile.txt").exists()
        assert "nn_op_calls" in (tel_dir / PROM_FILE).read_text()

    def test_model_meta_unchanged_by_telemetry(self, tmp_path, capsys):
        from repro.cli import main

        data = self._generate(tmp_path)
        model = tmp_path / "model.npz"
        code = main(["train", "--data", str(data),
                     "--target", "los_angeles",
                     "--embedding-dim", "8", "--epochs", "1",
                     "--pretrain-epochs", "1",
                     "--model-out", str(model),
                     "--telemetry-dir", str(tmp_path / "tel")])
        assert code == 0
        meta = json.loads((tmp_path / "model.npz.json").read_text())
        assert meta["target_city"] == "los_angeles"
