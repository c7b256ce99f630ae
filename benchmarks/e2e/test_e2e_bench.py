"""Tests of the end-to-end benchmark.

Run from the repository root with ``PYTHONPATH=src python -m pytest
benchmarks/e2e`` (about three minutes: every workload runs twice at a
few-second window, untraced and traced).
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
METRICS = json.loads((HERE / "metrics.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
import compare  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "benchmarks/e2e/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def applies(entry: dict, workload: str) -> bool:
    return entry["workloads"] == "all" or workload in entry["workloads"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3",
                     "--seconds", "3", "--trace", str(trace))
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    final = json.loads(lines[-1])
    record = json.loads(next(line for line in lines
                             if line.startswith("RECORD "))[len("RECORD "):])

    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True
    assert final["attempted"] >= 1 and final["failed"] == 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(final["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        entry = final["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert math.isfinite(entry["value"]), metric["name"]

    assert [c for c in record["checks"] if not c["passed"]] == []
    assert any(c["name"] == "no leaked child processes"
               for c in record["checks"])
    if trace:
        for metric in METRICS["layers"]:
            if applies(metric, workload):
                entry = record["layers"][metric["name"]]
                assert entry["unit"] == metric["unit"]
                assert math.isfinite(entry["value"]), metric["name"]


def session_members(sid: int) -> list:
    """Pids of live processes in session ``sid``."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # After the command name: state, ppid, pgrp, session, ...
        if int(fields[3]) == sid and fields[0] != "Z":
            members.append(int(stat.parent.name))
    return members


def run_in_session(args: list) -> int:
    """Run ``args`` as the leader of a new session; once it exits, return
    its status after asserting that nothing it started is still alive."""
    proc = subprocess.Popen(args, cwd=ROOT, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    status = proc.wait(timeout=600)
    left = session_members(proc.pid)
    for pid in left:
        os.kill(pid, signal.SIGKILL)
    assert left == []
    return status


@pytest.mark.parametrize("workload", ["train_dp", "serve_uniform"])
def test_no_process_outlives_the_run(workload):
    """Shared memory starts a resource tracker, which outlives the script
    for a moment unless the script stops it."""
    assert run_in_session(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "0"]) == 0


# A child that exits and leaves a process of its own running.
LEAVE_AN_ORPHAN = """
import os, sys, time
sys.path.insert(0, sys.argv[1])
import run
run.adopt_orphans()
if os.fork() == 0:
    if os.fork() == 0:
        time.sleep(120)
    os._exit(0)
time.sleep(0.5)
run.stop_processes()
"""


def test_orphans_of_children_are_stopped():
    assert run_in_session(
        [sys.executable, "-c", LEAVE_AN_ORPHAN, str(HERE)]) == 0


def test_fails_without_the_program(tmp_path):
    """A directory with only the benchmark's files yields no result."""
    (tmp_path / "benchmarks").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = run_bench("--workload", WORKLOADS[0], "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = [w["name"] for w in SPEC["workloads"]]
    for section in ("end_to_end", "per_layer"):
        names += [m["name"] for m in SPEC[section]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
    bounds = {}
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
        assert 0 < metric["bound"] <= 0.25
        bounds[metric["name"]] = metric["bound"]
    assert bounds["setup_s"] == max(bounds.values())
    layer_units = {m["name"]: m["unit"] for m in METRICS["layers"]}
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert layer_units[metric["name"]] == metric["unit"]


def test_metrics_json_names_known_workloads_and_metrics():
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    extra = {m["name"] for m in METRICS["workload_metrics"]}
    for entry in METRICS["workload_metrics"] + METRICS["layers"]:
        assert UNIT.match(entry["unit"]), entry["name"]
        if entry["workloads"] != "all":
            assert set(entry["workloads"]) <= set(WORKLOADS), entry["name"]
    for layer in METRICS["layers"]:
        assert set(layer["moves"]) <= e2e | extra, layer["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_accounting_fails_when_a_layer_is_missing(workload):
    names = run.blocking_layers(workload)
    assert names, workload
    # Layers that cover 99% of the unit pass.
    layers = {name: 99.0 / len(names) for name in names}
    assert run.account(layers, names, 100.0)["passed"]
    # Dropping any one of them fails, naming it, however small it is.
    for name in names:
        partial = {n: v for n, v in layers.items() if n != name}
        books = run.account(partial, names, 100.0)
        assert not books["passed"] and books["missing"] == [name]
    # So does time that no layer covers.
    books = run.account(layers, names, 110.0)
    assert not books["passed"] and books["gap_ms"] == pytest.approx(11.0)


def test_reference_speed_scales_each_sample_by_the_speed_around_it():
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import workloads
    ref = workloads.PROBE_REFERENCE_S
    probe = workloads.SpeedProbe(every_cpu=False)
    # Half the reference speed around t=0, the reference speed around t=10.
    probe.times = [0.0, 0.2, 10.0, 10.2]
    probe.samples = [2 * ref, 2 * ref, ref, ref]
    speeds = probe.speed_at(np.array([0.1, 10.1, 4.0, 6.0]))
    assert speeds == pytest.approx([0.5, 1.0, 0.5, 1.0])   # nearest outside
    # Operations twice as slow in the slow stretch read the same.
    out = workloads.reference_metrics(
        probe, np.array([0.004, 0.004, 0.002, 0.002]),
        np.array([0.1, 0.1, 10.1, 10.1]), job_s=1.0, capacity_rps=100.0)
    assert out["p50_ms"] == pytest.approx(2.0)
    assert out["p99_ms"] == pytest.approx(2.0)
    assert out["wall.p99_ms"] == pytest.approx(4.0)
    # Totals use the run's speed: mean sample 1.5x the reference time.
    assert out["host.speed"] == pytest.approx(2 / 3)
    assert out["job_s"] == pytest.approx(2 / 3)
    assert out["capacity_rps"] == pytest.approx(150.0)
    assert out["wall.job_s"] == 1.0


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, steady, "lower", 0.1) == "within bound"
    slower = [x * 1.3 for x in steady]
    assert compare.verdict(steady, slower, "lower", 0.1) == "worse"
    assert compare.verdict(slower, steady, "lower", 0.1) == "better"
    assert compare.verdict(steady, slower, "higher", 0.1) == "better"
    noisy = [50.0, 100.0, 150.0, 80.0, 130.0]
    assert compare.verdict(steady, noisy, "lower", 0.1) == "unresolved"
    assert compare.verdict(noisy, [10.0, 11.0], "lower", 0.1) == "better"
    zeros = [0.0, 0.0, 0.0]
    assert compare.verdict(zeros, zeros, "lower", 0.0) == "within bound"
    assert compare.verdict(zeros, [0.0, 0.01], "lower", 0.0) == "worse"
