"""The paper's ranking evaluation protocol (Section 4.1).

For each crossing-city test user: sample 100 target-city POIs the user
never visited, pool them with the ground-truth POIs, rank all candidates
by model score, and compute Recall/Precision/NDCG/MAP at
k ∈ {2, 4, 6, 8, 10}.  Scores are averaged over test users.

Any model implementing :class:`ScoringModel` (a ``score_candidates``
method in dataset-id space) can be evaluated — ST-TransRec's
:class:`~repro.core.recommend.Recommender` and every baseline share this
interface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Sequence

import numpy as np

from repro.data.split import CrossingCitySplit
from repro.eval.metrics import METRIC_NAMES, all_metrics_at_k
from repro.utils.rng import SeedLike, as_rng

DEFAULT_CUTOFFS = (2, 4, 6, 8, 10)
NUM_SAMPLED_NEGATIVES = 100


class ScoringModel(Protocol):
    """Anything that can score candidate POIs for a user."""

    def score_candidates(self, user_id: int,
                         candidate_poi_ids: Sequence[int]) -> np.ndarray:
        """Higher score = stronger recommendation."""
        ...


@dataclass
class EvaluationResult:
    """Averaged metrics per (metric, k) plus per-user detail.

    ``scores[metric][k]`` is the mean over evaluated users; users whose
    ground truth is empty or who are unknown to the model are skipped
    and counted in ``skipped_users``.
    """

    scores: Dict[str, Dict[int, float]]
    num_users: int
    skipped_users: int = 0
    per_user: Dict[int, Dict[str, Dict[int, float]]] = field(
        default_factory=dict)

    def table(self) -> str:
        """Human-readable metric table (rows: metric, cols: k)."""
        cutoffs = sorted(next(iter(self.scores.values())).keys())
        lines = ["metric    " + "".join(f"@{k:<8}" for k in cutoffs)]
        for metric in METRIC_NAMES:
            row = f"{metric:<10}"
            for k in cutoffs:
                row += f"{self.scores[metric][k]:<9.4f}"
            lines.append(row)
        return "\n".join(lines)


class RankingEvaluator:
    """Runs the 100-sampled-negative protocol over a split.

    The negative sample for each user is drawn once at construction (per
    seed), so all models evaluated with the same evaluator rank exactly
    the same candidate sets — the comparison the paper's figures make.
    """

    def __init__(self, split: CrossingCitySplit,
                 cutoffs: Sequence[int] = DEFAULT_CUTOFFS,
                 num_negatives: Optional[int] = NUM_SAMPLED_NEGATIVES,
                 seed: SeedLike = 0) -> None:
        if not cutoffs:
            raise ValueError("need at least one cutoff k")
        self.split = split
        self.cutoffs = tuple(sorted(set(int(k) for k in cutoffs)))
        rng = as_rng(seed)
        target_pois = [p.poi_id for p in
                       split.train.pois_in_city(split.target_city)]
        target_set = set(target_pois)
        self._candidates: Dict[int, List[int]] = {}
        for user in split.test_users:
            truth = split.ground_truth.get(user, set())
            if not truth:
                continue
            # POIs in the target city the user never visited (train or test).
            visited_train = split.train.pois_of_user(user)
            pool = sorted(target_set - truth - visited_train)
            if not pool:
                continue
            if num_negatives is None:
                # Full-ranking evaluation: rank against the whole
                # catalogue (unbiased, unlike sampled negatives).
                sampled = pool
            else:
                size = min(num_negatives, len(pool))
                sampled = rng.choice(pool, size=size, replace=False)
            self._candidates[user] = sorted(truth) + [int(p) for p in sampled]

    @property
    def evaluable_users(self) -> List[int]:
        return sorted(self._candidates)

    def evaluate(self, model: ScoringModel,
                 keep_per_user: bool = False) -> EvaluationResult:
        """Score, rank, and average metrics for ``model``."""
        totals: Dict[str, Dict[int, float]] = {
            m: {k: 0.0 for k in self.cutoffs} for m in METRIC_NAMES
        }
        per_user: Dict[int, Dict[str, Dict[int, float]]] = {}
        evaluated = 0
        skipped = 0
        for user, candidates in self._candidates.items():
            truth = self.split.ground_truth[user]
            try:
                scores = np.asarray(model.score_candidates(user, candidates))
            except KeyError:
                skipped += 1
                continue
            order = np.argsort(-scores, kind="stable")
            ranked = [candidates[i] for i in order]
            user_scores: Dict[str, Dict[int, float]] = {
                m: {} for m in METRIC_NAMES
            }
            for k in self.cutoffs:
                metrics = all_metrics_at_k(ranked, truth, k)
                for m, value in metrics.items():
                    totals[m][k] += value
                    user_scores[m][k] = value
            if keep_per_user:
                per_user[user] = user_scores
            evaluated += 1
        if evaluated == 0:
            raise RuntimeError("no users could be evaluated")
        averaged = {
            m: {k: totals[m][k] / evaluated for k in self.cutoffs}
            for m in METRIC_NAMES
        }
        return EvaluationResult(
            scores=averaged,
            num_users=evaluated,
            skipped_users=skipped,
            per_user=per_user,
        )
