#!/usr/bin/env python
"""CI regression gate for the hot-path benchmarks.

Compares a fresh ``BENCH_train.json`` / ``BENCH_serving.json`` pair
(produced by ``repro perf-bench``) against the committed baselines in
``benchmarks/perf/baselines.json``.  Only *ratio* metrics (speedups)
are gated — they transfer across machines far better than absolute
times.  Exits non-zero and prints one line per regression.

Usage (what CI runs)::

    PYTHONPATH=src python -m repro.cli perf-bench --tiny
    python benchmarks/perf/check_regression.py --profile tiny

The ``tiny`` profile gates only the microbenchmarks that are stable at
smoke scale; the ``full`` profile additionally gates the headline
2-worker train-step speedup (>= 1.5x after tolerance).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.fleet.chaos import check_chaos_against_baseline  # noqa: E402
from repro.perf.bench import (  # noqa: E402
    check_against_baseline,
    check_fleet_against_baseline,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--profile", choices=["tiny", "full"],
                        default="tiny",
                        help="baseline profile to gate against")
    parser.add_argument("--train", default="BENCH_train.json",
                        help="path to BENCH_train.json")
    parser.add_argument("--serving", default="BENCH_serving.json",
                        help="path to BENCH_serving.json")
    parser.add_argument("--baselines",
                        default=str(Path(__file__).with_name(
                            "baselines.json")),
                        help="committed baselines file")
    args = parser.parse_args(argv)

    baselines = json.loads(Path(args.baselines).read_text())
    profile = baselines[args.profile]

    regressions = []
    skipped = []
    gated = 0
    for name, path in (("train", args.train), ("serving", args.serving)):
        spec = profile.get(name)
        if spec is None:
            continue
        payload = json.loads(Path(path).read_text())
        regressions += [f"[{name}] {msg}"
                        for msg in check_against_baseline(payload, spec)]
        gated += len(spec.get("metrics", {}))

    # Fleet scaling and chaos resilience metrics gate separately: each
    # can be skipped (not failed) — their bars need enough CPUs to be
    # physically measurable, and chaos rows only exist after
    # `repro chaos-bench` has run.  Both read the serving payload.
    serving_payload = json.loads(Path(args.serving).read_text())
    for name, checker in (("fleet", check_fleet_against_baseline),
                          ("chaos", check_chaos_against_baseline)):
        spec = profile.get(name)
        if spec is None:
            continue
        section_regressions, skip_reason = checker(serving_payload, spec)
        if skip_reason:
            skipped.append(skip_reason)
        else:
            gated += len(spec.get("metrics", {}))
        regressions += [f"[{name}] {msg}" for msg in section_regressions]

    if regressions:
        for msg in regressions:
            print(f"REGRESSION {msg}")
        return 1
    for reason in skipped:
        print(f"SKIPPED {reason}")
    print(f"perf gate ({args.profile}): {gated} metrics within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
