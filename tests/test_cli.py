"""CLI smoke tests: each command runs end-to-end on tiny inputs."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_args(self):
        args = build_parser().parse_args(
            ["generate", "--preset", "foursquare", "--out", "x.jsonl"])
        assert args.preset == "foursquare"
        assert args.scale == 0.5

    def test_unknown_method_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["compare", "--preset", "yelp", "--methods", "DeepFM"])


class TestCommands:
    def test_generate_writes_dataset(self, tmp_path, capsys):
        out = tmp_path / "data.jsonl"
        code = main(["generate", "--preset", "foursquare",
                     "--out", str(out), "--scale", "0.15"])
        assert code == 0
        assert out.exists()
        assert "#Check-ins" in capsys.readouterr().out

    def test_train_evaluate_roundtrip(self, tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        model = tmp_path / "model.npz"
        main(["generate", "--preset", "foursquare", "--out", str(data),
              "--scale", "0.15"])
        code = main(["train", "--data", str(data),
                     "--target", "los_angeles",
                     "--embedding-dim", "8", "--epochs", "1",
                     "--pretrain-epochs", "1",
                     "--model-out", str(model)])
        assert code == 0
        assert model.exists()
        meta = json.loads((tmp_path / "model.npz.json").read_text())
        assert meta["target_city"] == "los_angeles"

        code = main(["evaluate", "--data", str(data),
                     "--target", "los_angeles",
                     "--embedding-dim", "8", "--epochs", "1",
                     "--pretrain-epochs", "1",
                     "--model", str(model)])
        assert code == 0
        out = capsys.readouterr().out
        assert "recall" in out

    def test_bench_requires_valid_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["bench", "--preset", "yelp", "--experiment", "bogus"])

    def test_bench_parses(self):
        args = build_parser().parse_args(
            ["bench", "--preset", "yelp", "--experiment", "ablation"])
        assert args.experiment == "ablation"

    def test_bench_dispatch(self, capsys, monkeypatch):
        """The bench command routes to the right runner and prints."""
        import repro.eval.experiment as experiment

        table = {m: {k: 0.5 for k in (2, 4, 6, 8, 10)}
                 for m in ("recall", "precision", "ndcg", "map")}

        monkeypatch.setattr(
            experiment, "run_ablation",
            lambda ctx: {"ST-TransRec": table, "ST-TransRec-1": table},
        )

        class FakeContext:
            pass

        monkeypatch.setattr(experiment, "build_context",
                            lambda preset, scale: FakeContext())
        code = main(["bench", "--preset", "yelp",
                     "--experiment", "ablation"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ST-TransRec-1" in out
        assert "recall@10" in out  # the bar chart footer

    def test_fleet_smoke_parses(self):
        args = build_parser().parse_args(["fleet-smoke"])
        assert args.seed == 3

    def test_compare_subset(self, capsys):
        code = main(["compare", "--preset", "foursquare",
                     "--methods", "ItemPop", "CRCF",
                     "--scale", "0.15"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ItemPop" in out
        assert "CRCF" in out


class TestResumableTraining:
    def test_checkpoint_and_resume_flags(self, tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        ckpt = tmp_path / "run.npz"
        main(["generate", "--preset", "foursquare", "--out", str(data),
              "--scale", "0.15"])
        base = ["train", "--data", str(data), "--target", "los_angeles",
                "--embedding-dim", "8", "--epochs", "2",
                "--pretrain-epochs", "1"]
        code = main(base + ["--checkpoint-every", "1",
                            "--checkpoint-path", str(ckpt)])
        assert code == 0
        assert ckpt.exists()
        out = capsys.readouterr().out
        assert "trained 2 epochs" in out

        code = main(["train", "--data", str(data),
                     "--target", "los_angeles",
                     "--embedding-dim", "8", "--epochs", "3",
                     "--pretrain-epochs", "1",
                     "--resume-from", str(ckpt)])
        assert code == 0
        out = capsys.readouterr().out
        assert "trained 1 epochs" in out    # only the remaining epoch

    def test_fault_smoke_parses(self):
        args = build_parser().parse_args(["fault-smoke", "--seed", "5"])
        assert args.seed == 5
        assert args.func.__name__ == "cmd_fault_smoke"


class TestTraceToolingParsers:
    def test_trace_report_requires_telemetry_dir(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace-report"])

    def test_trace_report_defaults(self):
        args = build_parser().parse_args(
            ["trace-report", "--telemetry-dir", "t"])
        assert args.timelines == 1
        assert args.func.__name__ == "cmd_trace_report"

    def test_metrics_report_format_defaults_to_console(self):
        args = build_parser().parse_args(
            ["metrics-report", "--telemetry-dir", "t"])
        assert args.format == "console"

    def test_metrics_report_rejects_unknown_format(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["metrics-report", "--telemetry-dir", "t",
                 "--format", "bogus"])


class TestTraceToolingCommands:
    """``trace-report`` / ``metrics-report`` on a hand-written tree.

    Spinning a real fleet is integration-test territory
    (test_fleet_tracing.py); here a tiny synthetic telemetry tree
    exercises the CLI plumbing: loaders, format switches, exit codes.
    """

    def _span(self, name, cat, ts_ms, dur_ms, trace="t1", proc="router"):
        return {"trace": trace, "span": f"s-{name}", "parent": "",
                "name": name, "cat": cat, "ts_ms": ts_ms,
                "dur_ms": dur_ms, "proc": proc}

    def _tree(self, root):
        from repro.obs.slo import SloTracker, default_serving_slos
        from repro.obs.spans import (
            CAT_ADMISSION,
            CAT_MERGE,
            CAT_QUEUE,
            CAT_SCORE,
        )
        from repro.obs.telemetry import Telemetry

        telemetry = Telemetry(root, run_name="cli-test")
        telemetry.counter("fleet.shard.requests").inc(3)
        telemetry.save()
        # One degraded trace whose covering segments sum to 10ms.
        trace = {
            "kind": "trace", "trace_id": "t1", "user_id": 7,
            "start_ms": 100.0, "latency_ms": 10.0, "quality": "partial",
            "deadline_met": True, "shed": False, "shed_reason": "",
            "outcome": "ok", "keep_reason": "degraded", "attrs": {},
            "events": [
                self._span("queue_wait", CAT_QUEUE, 100.0, 2.0),
                self._span("admission", CAT_ADMISSION, 102.0, 1.0),
                self._span("fanout_wait", CAT_SCORE, 103.0, 5.0),
                self._span("finalize", CAT_MERGE, 108.0, 2.0),
            ],
        }
        loose = dict(self._span("score_slice", CAT_SCORE, 104.0, 3.0,
                                proc="shard-0"))
        loose["kind"] = "span"
        with (root / "traces.jsonl").open("w") as handle:
            handle.write(json.dumps(trace) + "\n")
            handle.write(json.dumps(loose) + "\n")
        slo = SloTracker(default_serving_slos(250.0))
        for _ in range(4):
            slo.record_request(answered=True, deadline_met=True,
                               latency_ms=5.0)
        (root / "slo.json").write_text(json.dumps(
            {"kind": "slo", "deadline_ms": 250.0,
             "shards": {"2": slo.summary()}}))
        return root

    def test_trace_report_renders_attribution(self, tmp_path, capsys):
        root = self._tree(tmp_path)
        code = main(["trace-report", "--telemetry-dir", str(root)])
        assert code == 0
        out = capsys.readouterr().out
        assert "p99 attribution" in out
        assert "kept because: degraded=1" in out
        assert "slowest trace(s)" in out

    def test_trace_report_empty_tree_exits_nonzero(self, tmp_path):
        code = main(["trace-report", "--telemetry-dir", str(tmp_path)])
        assert code == 1

    def test_metrics_report_console_includes_flight_and_slo(
            self, tmp_path, capsys):
        root = self._tree(tmp_path)
        code = main(["metrics-report", "--telemetry-dir", str(root)])
        assert code == 0
        out = capsys.readouterr().out
        assert "flight recorder: 1 kept trace(s)" in out
        assert "SLO summary" in out
        assert "deadline_hit" in out

    def test_metrics_report_json_is_parseable(self, tmp_path, capsys):
        root = self._tree(tmp_path)
        code = main(["metrics-report", "--telemetry-dir", str(root),
                     "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["traces"]["kept"] == 1
        assert doc["slo"][0]["shards"]["2"]["objectives"]
        assert "fleet.shard.requests" in doc["metrics"]

    def test_metrics_report_prometheus_format(self, tmp_path, capsys):
        root = self._tree(tmp_path)
        code = main(["metrics-report", "--telemetry-dir", str(root),
                     "--format", "prometheus"])
        assert code == 0
        assert "fleet_shard_requests 3.0" in capsys.readouterr().out

    def test_metrics_report_empty_tree_exits_nonzero(self, tmp_path):
        code = main(["metrics-report", "--telemetry-dir", str(tmp_path)])
        assert code == 1


class TestBlasThreads:
    """Commands that train or fold in within the calling process limit
    the BLAS pool before they do (``repro.utils.blas``)."""

    class Limited(Exception):
        pass

    @pytest.fixture
    def spy(self, monkeypatch):
        import repro.cli as cli

        def limit():
            raise self.Limited

        monkeypatch.setattr(cli, "limit_blas_threads", limit)

    def test_train_limits_before_fitting(self, tmp_path, spy):
        data = tmp_path / "data.jsonl"
        main(["generate", "--preset", "foursquare", "--out", str(data),
              "--scale", "0.15"])
        with pytest.raises(self.Limited):
            main(["train", "--data", str(data), "--target", "los_angeles",
                  "--embedding-dim", "8", "--epochs", "1"])

    @pytest.mark.parametrize("argv", [
        ["stream-smoke", "--tiny"],
        ["case-study", "--preset", "foursquare"]])
    def test_in_process_commands_limit_first(self, argv, spy):
        with pytest.raises(self.Limited):
            main(argv)
