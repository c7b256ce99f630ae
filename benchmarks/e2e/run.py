#!/usr/bin/env python3
"""End-to-end benchmark: training, fleet serving and streaming.

Run from the repository root::

    python benchmarks/e2e/run.py                      # all workloads
    python benchmarks/e2e/run.py --workload serve_zipf --seed 3
    python benchmarks/e2e/run.py --trace --out run.json

One workload runs in this process.  Several (the default is all five)
run one after another, each in a fresh child process running this
script; with ``--trace`` every workload runs untraced and then traced,
and the difference is printed as the tracing overhead.

Every metric is printed with its name and unit, followed by the
workload's correctness checks.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics of ``BENCHMARK.json`` untraced, its per-layer
metrics traced.  The exit status is 1 when a check fails.

The program under test is imported from ``src/`` of the checkout this
script lives in; without it the script exits with status 2.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import math
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
METRICS = json.loads((HERE / "metrics.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
RECORD_PREFIX = "RECORD "
ACCOUNTING_BAND = (0.95, 1.05)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PR_SET_CHILD_SUBREAPER = 36
ORPHAN_GRACE_S = 5.0


def units() -> dict:
    """Unit of every metric the benchmark can print."""
    out = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    out.update({m["name"]: m["unit"] for m in SPEC["per_layer"]})
    out.update({m["name"]: m["unit"] for m in METRICS["workload_metrics"]})
    out.update({m["name"]: m["unit"] for m in METRICS["layers"]})
    return out


def applies(entry: dict, workload: str) -> bool:
    return entry["workloads"] == "all" or workload in entry["workloads"]


def blocking(entry: dict, workload: str) -> bool:
    flag = entry.get("blocking", False)
    return flag is True or (isinstance(flag, list) and workload in flag)


def blocking_layers(workload: str) -> List[str]:
    """The layers a workload's end-to-end unit waits on, in path order."""
    return [m["name"] for m in METRICS["layers"]
            if applies(m, workload) and blocking(m, workload)]


def account(layers: Dict[str, float], names: Sequence[str],
            measured_ms: float) -> dict:
    """Add the blocking layers up against the measured end-to-end time.

    Each layer is timed on its own (a span, a wrapper around a public
    call, or the program's own clock), and the end-to-end time on the
    benchmark's clock, so time that no layer covers shows as the gap,
    and a layer that is not measured fails the check.
    """
    missing = [name for name in names if name not in layers]
    summed = sum(layers.get(name, 0.0) for name in names)
    share = summed / measured_ms
    lo, hi = ACCOUNTING_BAND
    return {"layers_ms": summed, "measured_ms": measured_ms,
            "gap_ms": measured_ms - summed, "share": share,
            "passed": bool(lo <= share <= hi) and not missing,
            "missing": missing}


def import_program():
    """Put ``<root>/src`` first on the path and import the workloads."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"run.py: {src / 'repro'} is missing; the benchmark needs "
              f"the repository checkout it ships in", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import workloads
    return workloads


def environment() -> dict:
    """What a result needs to be comparable: CPUs, BLAS and threads."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "threads_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "commit": commit,
    }


def metric_entry(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run a workload and build its record (everything it measured)."""
    workloads = import_program()
    started = time.perf_counter()
    outcome = workloads.WORKLOADS[name](seed, seconds, trace)
    unit_of = units()
    wanted = [m["name"] for m in SPEC["end_to_end"]] + [
        m["name"] for m in METRICS["workload_metrics"] if applies(m, name)]
    metrics = {m: metric_entry(outcome.metrics.get(m, math.nan), unit_of[m])
               for m in wanted}
    checks = [{"name": c, "passed": ok, "detail": d}
              for c, ok, d in outcome.checks]
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "metrics": metrics, "checks": checks,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "info": outcome.info,
    }
    if trace:
        unit, measured = outcome.accounting
        # World generation is measured during set-up, with the metrics.
        measured_layers = {**outcome.metrics, **outcome.layers}
        books = account(measured_layers, blocking_layers(name), measured)
        measured_layers["bench.unaccounted_ms"] = books["gap_ms"]
        layer_names = [m["name"] for m in METRICS["layers"]
                       if applies(m, name)]
        record["layers"] = {
            m: metric_entry(measured_layers.get(m, math.nan), unit_of[m])
            for m in layer_names}
        record["accounting"] = {"unit": unit, **books}
        lo, hi = ACCOUNTING_BAND
        missing = ", ".join(books["missing"])
        checks.append({
            "name": f"blocking layers add up to {lo:.0%}-{hi:.0%} of the "
                    f"mean {unit} time",
            "passed": books["passed"],
            "detail": f"{books['layers_ms']:.2f} ms of {measured:.2f} ms "
                      f"({books['share']:.1%}); unaccounted "
                      f"{books['gap_ms']:+.2f} ms"
                      + (f"; not measured: {missing}" if missing else "")})
    broken = [n for n, e in list(metrics.items())
              + list(record.get("layers", {}).items())
              if not math.isfinite(e["value"])]
    for entries in (metrics, record.get("layers", {})):
        for entry in entries.values():
            if not math.isfinite(entry["value"]):
                entry["value"] = None
    checks.append({"name": "every metric is a finite number",
                   "passed": not broken, "detail": ", ".join(broken)})
    record["wall_s"] = time.perf_counter() - started
    record["env"] = environment()
    return record


def adopt_orphans() -> None:
    """Become the reaper of this process's orphaned descendants (Linux).

    A process that a worker or shard starts and leaves behind when it
    exits, such as a resource tracker of its own, is then re-parented to
    this process instead of to init, so :func:`stop_processes` can wait
    for it.
    """
    with contextlib.suppress(OSError, AttributeError):
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER,
                                                1, 0, 0, 0)


def child_pids() -> List[int]:
    """Pids of this process's children, exited but unreaped ones too."""
    me, pids = os.getpid(), []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            ppid = int(stat.read_text().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == me:
            pids.append(int(stat.parent.name))
    return pids


def stop_processes() -> None:
    """Stop every process this one started, and wait for each to end.

    The workloads close their fleets and trainers, so normally no worker
    or shard is left; an exception can leave some, which are stopped
    here.  Then the multiprocessing resource tracker, which the first
    shared-memory block starts and which would otherwise outlive this
    process until it notices the exit, is stopped and reaped.  Last,
    any other child (an orphan adopted through :func:`adopt_orphans`)
    gets :data:`ORPHAN_GRACE_S` to finish on its own, then is killed;
    each is reaped.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(5.0)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()
    deadline = time.monotonic() + ORPHAN_GRACE_S
    # A pid that cannot be waited for ends the loop after a second pass.
    while time.monotonic() < deadline + ORPHAN_GRACE_S:
        left = child_pids()
        if not left:
            return
        for pid in left:
            with contextlib.suppress(ChildProcessError):
                if time.monotonic() >= deadline:
                    with contextlib.suppress(ProcessLookupError):
                        os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                else:
                    os.waitpid(pid, os.WNOHANG)
        time.sleep(0.01)


def result_line(record: dict) -> dict:
    """The result line: end-to-end metrics, or per-layer when traced."""
    names = [m["name"] for m in
             SPEC["per_layer" if record["trace"] else "end_to_end"]]
    source = record["layers"] if record["trace"] else record["metrics"]
    return {
        "correct": all(c["passed"] for c in record["checks"]),
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: source[n] for n in names},
    }


def print_record(record: dict) -> None:
    mode = "traced" if record["trace"] else "untraced"
    print(f"== {record['workload']} (seed {record['seed']}, {mode}, "
          f"{record['wall_s']:.1f} s)")
    for name, entry in record["metrics"].items():
        print(f"  {name:<34} {_fmt(entry['value']):>14} {entry['unit']}")
    for name, entry in record.get("layers", {}).items():
        print(f"  layer {name:<28} {_fmt(entry['value']):>14} "
              f"{entry['unit']}")
    print(f"  operations: {record['attempted']} attempted, "
          f"{record['failed']} failed")
    for check in record["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        detail = f" ({check['detail']})" if check["detail"] else ""
        print(f"  {status} {check['name']}{detail}")


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


# ----------------------------------------------------------------------
# Several workloads, one child process each
# ----------------------------------------------------------------------
def run_child(name: str, seed: int, seconds: float, trace: bool) -> dict:
    # The child leads its own process group, so a child that times out
    # is stopped together with any shard or worker it started.
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds)]
        + (["--trace"] if trace else []),
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=900)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{name}: child timed out") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = stdout.splitlines()
    records = [json.loads(line[len(RECORD_PREFIX):]) for line in lines
               if line.startswith(RECORD_PREFIX)]
    for line in lines[:-1]:
        if not line.startswith(RECORD_PREFIX):
            print(line)
    if proc.returncode not in (0, 1) or not records:
        sys.stderr.write(stderr)
        raise RuntimeError(f"{name}: child exited with status "
                           f"{proc.returncode} and no record")
    return records[0]


def print_overhead(untraced: dict, traced: dict) -> None:
    print(f"== {traced['workload']}: tracing overhead (traced - untraced)")
    for name, entry in untraced["metrics"].items():
        a, b = entry["value"], traced["metrics"][name]["value"]
        if a is None or b is None:
            continue
        share = f" ({(b - a) / a:+.1%})" if a else ""
        print(f"  {name:<34} {b - a:>+14.6g} {entry['unit']}{share}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=7,
                        help="workload seed (default 7)")
    parser.add_argument("--seconds", type=float,
                        default=float(SPEC["run_seconds"]),
                        help="measured window per workload (default "
                             "BENCHMARK.json run_seconds)")
    # "--trace" alone traces; "--trace 1" and "--trace 0" spell the
    # choice out, for callers that always pass a value.
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1),
                        help="report per-layer metrics")
    parser.add_argument("--out", type=Path,
                        help="write every record, with the environment, "
                             "to this JSON file")
    args = parser.parse_args(argv)
    # One BLAS/OpenMP thread per process unless the caller chose a value
    # (an empty value selects the library default).  With the defaults,
    # every shard and worker starts a thread per CPU; on a 2-CPU host the
    # 2-shard fleet's p50 then read 49, 44 and 11 ms on three seeds, a
    # spread no regression bound can gate.  The record keeps the values
    # in effect.
    for name in THREAD_VARS:
        os.environ.setdefault(name, "1")
    names = args.workload or WORKLOAD_NAMES
    trace = bool(args.trace)

    if len(names) == 1:
        adopt_orphans()
        try:
            record = run_one(names[0], args.seed, args.seconds, trace)
        finally:
            stop_processes()
        records = {names[0]: record}
        print_record(record)
        print(RECORD_PREFIX + json.dumps(record))
        final = result_line(record)
    else:
        records = {}
        for name in names:
            record = run_child(name, args.seed, args.seconds, False)
            if trace:
                record["traced"] = run_child(name, args.seed, args.seconds,
                                             True)
                print_overhead(record, record["traced"])
            records[name] = record
        runs = [r for record in records.values()
                for r in (record, record.get("traced")) if r is not None]
        final = {
            "correct": all(result_line(r)["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in records.values()),
            "failed": sum(r["failed"] for r in records.values()),
            "metrics": {f"{name}/{metric}": entry
                        for name, record in records.items()
                        for metric, entry in
                        result_line(record)["metrics"].items()},
        }
    if args.out is not None:
        first = next(iter(records.values()))
        args.out.write_text(json.dumps({
            "env": first["env"], "seed": args.seed,
            "seconds": args.seconds, "trace": trace, "workloads": records,
        }, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
