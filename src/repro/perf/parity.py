"""Cross-precision parity: does f32 training land where f64 lands?

The shared-memory transport in :mod:`repro.perf` is guarded by
bit-identity tests.  Precision cannot be:
f32 arithmetic legitimately diverges from f64 step by step.  What must
*not* diverge is the quantity the paper reports — final ranking quality.
This module trains the same synthetic crossing-city task once per
precision (same seeds, same batch streams; the f32 parameters start as
the bitwise downcast of the f64 draws, see :mod:`repro.nn.init`) and
compares the final eval metrics (HR/NDCG from :mod:`repro.eval`) within
an explicit tolerance band.

Tolerance methodology: the band is expressed in absolute metric points
(e.g. ``0.05`` = five points of recall@10).  Tiny synthetic worlds are
deliberately noisy — a few hundred interactions, short budgets — so the
band is wider than what a full-size run would need; what it catches is
the failure mode that matters, a precision bug (wrong cast, silent
f64 promotion, f32 overflow) knocking the trained model off the f64
trajectory entirely rather than jittering it.

Fault injection composes: ``run_precision_parity(..., with_faults=True)``
repeats the f32 leg with a NaN-gradient fault and asserts the
:class:`~repro.reliability.guards.GradientGuard` still drops the
poisoned contribution — overflow-to-inf being far easier in f32 is
exactly why the guard must keep working there.

Run from the shell: ``repro precision-parity [--scale S]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.config import STTransRecConfig
from repro.core.recommend import Recommender
from repro.eval.protocol import RankingEvaluator
from repro.perf.config import PerfConfig
from repro.reliability.faults import Fault, FaultPlan
from repro.utils.logging import get_logger

logger = get_logger("perf.parity")

#: (metric, k) pairs compared by default — the headline table numbers.
DEFAULT_METRICS: Tuple[Tuple[str, int], ...] = (
    ("recall", 10), ("ndcg", 10), ("recall", 4), ("ndcg", 4),
)


@dataclass
class MetricDelta:
    """One compared metric across the two precisions."""

    metric: str
    k: int
    f64: float
    f32: float

    @property
    def delta(self) -> float:
        return abs(self.f64 - self.f32)


@dataclass
class ParityReport:
    """Outcome of one cross-precision parity run."""

    deltas: list = field(default_factory=list)
    tolerance: float = 0.0
    fault_checked: bool = False
    fault_trips: int = 0

    @property
    def max_delta(self) -> float:
        return max((d.delta for d in self.deltas), default=0.0)

    @property
    def passed(self) -> bool:
        ok = self.max_delta <= self.tolerance
        if self.fault_checked:
            ok = ok and self.fault_trips >= 1
        return ok

    def table(self) -> str:
        lines = [f"{'metric':<12}{'f64':>10}{'f32':>10}{'|delta|':>10}"]
        for d in self.deltas:
            label = f"{d.metric}@{d.k}"
            lines.append(f"{label:<12}{d.f64:>10.4f}"
                         f"{d.f32:>10.4f}{d.delta:>10.4f}")
        lines.append(f"max |delta| {self.max_delta:.4f} "
                     f"(tolerance {self.tolerance:.4f}) -> "
                     f"{'PASS' if self.passed else 'FAIL'}")
        if self.fault_checked:
            lines.append(f"nan-grad guard trips in f32: {self.fault_trips}")
        return "\n".join(lines)


def _parity_world(scale: float, seed: int):
    from repro.data.split import make_crossing_city_split
    from repro.data.synthetic import foursquare_like, generate_dataset

    dataset, _truth = generate_dataset(foursquare_like(scale=scale,
                                                       seed=seed))
    return make_crossing_city_split(dataset, "los_angeles")


def _train_and_eval(split, config: STTransRecConfig, precision: str,
                    epochs: int, num_workers: int,
                    metrics: Tuple[Tuple[str, int], ...],
                    eval_seed: int,
                    fault_plan: Optional[FaultPlan] = None,
                    ) -> Tuple[Dict[Tuple[str, int], float], int]:
    """One training leg; returns metric values and guard trip count."""
    from repro.parallel.data_parallel import DataParallelTrainer

    trainer = DataParallelTrainer(
        split, config, num_workers=num_workers,
        perf=PerfConfig(precision=precision), fault_plan=fault_plan)
    try:
        history = trainer.train(epochs)
        trips = sum(s.faults.nonfinite_contributions for s in history)
        recommender = Recommender(trainer.model, trainer.index,
                                  split.train, split.target_city)
        evaluator = RankingEvaluator(split, seed=eval_seed)
        result = evaluator.evaluate(recommender)
    finally:
        trainer.close()
    values = {(m, k): float(result.scores[m][k]) for m, k in metrics}
    return values, trips


def run_precision_parity(scale: float = 0.5, embedding_dim: int = 32,
                         epochs: int = 2, num_workers: int = 1,
                         tolerance: float = 0.05,
                         metrics: Tuple[Tuple[str, int], ...]
                         = DEFAULT_METRICS,
                         seed: int = 7, eval_seed: int = 42,
                         with_faults: bool = False) -> ParityReport:
    """Train f64 and f32 on the same task; compare final eval metrics.

    With ``with_faults`` the f32 leg runs *again* under a
    ``nan_grad`` fault at step 1 and the report additionally requires
    the gradient guard to have dropped at least one contribution.
    """
    split = _parity_world(scale, seed)
    config = STTransRecConfig(embedding_dim=embedding_dim,
                              epochs=epochs, seed=seed)

    logger.info("parity: training f64 reference...")
    f64_values, _ = _train_and_eval(split, config, "f64", epochs,
                                    num_workers, metrics, eval_seed)
    logger.info("parity: training f32...")
    f32_values, _ = _train_and_eval(split, config, "f32", epochs,
                                    num_workers, metrics, eval_seed)

    report = ParityReport(tolerance=tolerance)
    for m, k in metrics:
        report.deltas.append(MetricDelta(m, k, f64_values[(m, k)],
                                         f32_values[(m, k)]))

    if with_faults:
        logger.info("parity: f32 under nan-grad fault injection...")
        plan = FaultPlan([Fault.nan_grad(worker=0, step=1)])
        _values, trips = _train_and_eval(split, config, "f32", epochs,
                                         num_workers, metrics, eval_seed,
                                         fault_plan=plan)
        report.fault_checked = True
        report.fault_trips = trips
    return report
