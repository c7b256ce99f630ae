"""Design-choice ablation — MMD estimator: quadratic vs linear vs unbiased.

Section 3.2's complexity analysis motivates the linear-time MMD of
Long et al. [16]: "a direct implementation of MMD takes time O(D²) ...
we adopt the technique ... which enables to compute MMD with cost O(D)".
This bench verifies the trade-off empirically: the linear estimator's
MMD term is computed faster per batch while recommendation quality stays
in the same band as the quadratic estimator.
"""

import dataclasses
import time

import numpy as np

from repro.baselines.st_transrec_method import STTransRecMethod
from repro.transfer.kernels import GaussianKernel
from repro.transfer.mmd import MMDBatch

ESTIMATORS = ("quadratic", "linear", "unbiased")


def _quality(context, estimator):
    scores = []
    for seed in (0, 1):
        profile = dataclasses.replace(context.profile, seed=seed)
        method = STTransRecMethod(
            profile.st_transrec_config(mmd_estimator=estimator)
        )
        method.fit(context.split)
        scores.append(
            context.evaluator.evaluate(method).scores["recall"][10]
        )
    return float(np.mean(scores))


def _speed(batch_size, dim=32, repeats=30):
    """Seconds per MMD term as training runs it: ``MMDBatch``'s
    forward and backward."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(batch_size, dim))
    y = rng.normal(size=(batch_size, dim))
    kernel = GaussianKernel(1.0)
    one = np.ones(())
    out = {}
    for name in ("quadratic", "linear"):
        started = time.perf_counter()
        for _ in range(repeats):
            MMDBatch(x, y, kernel, name).backward(one)
        out[name] = (time.perf_counter() - started) / repeats
    return out


def test_mmd_estimator_ablation(benchmark, foursquare_context,
                                results_sink):
    quality = benchmark.pedantic(
        lambda: {est: _quality(foursquare_context, est)
                 for est in ESTIMATORS},
        rounds=1, iterations=1,
    )
    speed = _speed(batch_size=512)
    lines = [f"{'estimator':<12}{'recall@10':<12}"]
    for est in ESTIMATORS:
        lines.append(f"{est:<12}{quality[est]:<12.4f}")
    lines.append("")
    lines.append(f"{'estimator':<12}{'sec/batch (n=512)':<20}")
    for name, seconds in speed.items():
        lines.append(f"{name:<12}{seconds:<20.5f}")
    results_sink("ablation_mmd_estimator", "\n".join(lines))

    # O(n) vs O(n²): the linear estimator must be clearly faster at
    # large batch sizes...
    assert speed["linear"] < speed["quadratic"]
    # ...without collapsing recommendation quality.
    assert quality["linear"] > 0.6 * quality["quadratic"]
