"""Top-k crossing-city recommendation (Problem 1).

Wraps a trained ST-TransRec with the entity index and target-city POI
catalogue so callers can ask, in dataset id space: *which target-city
POIs should user u see?*  Also used by the Table 3 case study, which
needs the textual descriptions of recommended POIs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.model import STTransRec
from repro.data.dataset import CheckinDataset
from repro.data.vocabulary import DatasetIndex


def visited_poi_ids(dataset: CheckinDataset, user_id: int) -> Set[int]:
    """POIs the user has visited in ``dataset`` (any city).

    The single source of truth for visited-POI exclusion: both
    :class:`Recommender` and the serving layer
    (:class:`repro.serving.RecommendationService`) filter candidates
    through this set, so offline and online rankings can never disagree
    about what "already visited" means.
    """
    return dataset.pois_of_user(user_id)


class Recommender:
    """Scores and ranks target-city POIs for users.

    All scoring goes through one batched
    :class:`~repro.serving.InferenceEngine`, built at construction from
    the model *as it is then*: a recommender serves a snapshot.  After
    the model changes (more training, a fold-in), build a new
    ``Recommender`` — or serve through
    :class:`repro.serving.RecommendationService`, whose ``fold_in``
    keeps its engine in sync.

    Parameters
    ----------
    model:
        A trained :class:`STTransRec`.  The engine computes in the
        model's parameter dtype, so f32 models are scored in f32.
    index:
        The entity index the model was trained under.
    dataset:
        Training dataset (for the target-city POI catalogue and the
        user's visited set).
    target_city:
        The city whose POIs are recommended.
    """

    def __init__(self, model: STTransRec, index: DatasetIndex,
                 dataset: CheckinDataset, target_city: str) -> None:
        from repro.serving.engine import InferenceEngine

        self.model = model
        self.index = index
        self.dataset = dataset
        self.target_city = target_city
        self._engine = InferenceEngine.from_model(
            model, index, dataset, target_city,
            dtype=model.user_embeddings.weight.data.dtype)
        self.target_poi_ids = self._engine.catalogue_poi_ids

    # ------------------------------------------------------------------
    def _user_index(self, user_id: int) -> int:
        user_index = self.index.users.get(user_id)
        if user_index < 0:
            raise KeyError(f"user {user_id} unknown to the model")
        return user_index

    def score_candidates(self, user_id: int,
                         candidate_poi_ids: Sequence[int]) -> np.ndarray:
        """Model scores for explicit candidate POIs (dataset ids)."""
        candidate_indices = np.array(
            [self.index.pois.index_of(int(p)) for p in candidate_poi_ids],
            dtype=np.int64)
        return self._engine.score_pois_for_user(self._user_index(user_id),
                                                candidate_indices)

    def recommend(self, user_id: int, k: int = 10,
                  exclude_visited: bool = True) -> List[Tuple[int, float]]:
        """Top-k (poi_id, score) in the target city for ``user_id``.

        Parameters
        ----------
        exclude_visited:
            Drop POIs the user already visited in training data (always
            true in the paper's protocol, where test users have no
            target-city training check-ins at all).
        """
        return self._rank([(user_id, self._user_index(user_id))], k,
                          exclude_visited)[user_id]

    def describe_recommendations(
            self, user_id: int, k: int = 5,
            words_per_poi: int = 5) -> List[Tuple[int, List[str]]]:
        """Top-k POIs with their description words (Table 3 layout)."""
        ranked = self.recommend(user_id, k=k)
        out = []
        for poi_id, _score in ranked:
            words = list(self.dataset.pois[poi_id].words)[:words_per_poi]
            out.append((poi_id, words))
        return out

    def recommend_batch(self, user_ids: Sequence[int], k: int = 10,
                        exclude_visited: bool = True
                        ) -> Dict[int, List[Tuple[int, float]]]:
        """Top-k lists for many users in one engine pass.

        Unknown users are skipped; the dict lets callers detect them by
        absence.
        """
        known = [(u, self.index.users.get(u)) for u in user_ids]
        return self._rank([(u, idx) for u, idx in known if idx >= 0], k,
                          exclude_visited)

    batch_recommend = recommend_batch

    def _rank(self, users: Sequence[Tuple[int, int]], k: int,
              exclude_visited: bool) -> Dict[int, List[Tuple[int, float]]]:
        """Rank the catalogue for ``(user_id, user_index)`` pairs."""
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        if not users:
            return {}
        exclude: Optional[List[Set[int]]] = None
        if exclude_visited:
            exclude = [visited_poi_ids(self.dataset, u) for u, _ in users]
        ranked = self._engine.top_k_catalogue(
            [idx for _u, idx in users], k, exclude_poi_ids=exclude)
        return {u: row for (u, _idx), row in zip(users, ranked)}

    def attach_engine(self, engine) -> None:
        """Use a prebuilt :class:`repro.serving.InferenceEngine`.

        The engine must serve this recommender's target-city catalogue;
        anything else would silently rank a different candidate set.
        """
        if not np.array_equal(np.asarray(engine.catalogue_poi_ids),
                              self.target_poi_ids):
            raise ValueError(
                "engine catalogue does not match the recommender's "
                "target-city catalogue")
        self._engine = engine

    def export_recommendations(self, path, user_ids: Sequence[int],
                               k: int = 10) -> int:
        """Write top-k lists as JSONL (one user per line); returns count.

        Line format: ``{"user_id": ..., "recommendations":
        [{"poi_id": ..., "score": ...}, ...]}`` — the shape a serving
        layer or downstream analysis job consumes.
        """
        import json
        from pathlib import Path

        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        results = self.recommend_batch(user_ids, k=k)
        with path.open("w", encoding="utf-8") as fh:
            for user_id in sorted(results):
                fh.write(json.dumps({
                    "user_id": user_id,
                    "recommendations": [
                        {"poi_id": poi_id, "score": score}
                        for poi_id, score in results[user_id]
                    ],
                }) + "\n")
        return len(results)

    def user_top_words(self, user_id: int, k: int = 10) -> List[str]:
        """Most frequent words over the user's visited POIs.

        Table 3 presents a user's preferences via the top words of
        their source-city check-ins.
        """
        counts: Dict[str, int] = {}
        for record in self.dataset.user_profile(user_id):
            for word in self.dataset.pois[record.poi_id].words:
                counts[word] = counts.get(word, 0) + 1
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return [word for word, _ in ranked[:k]]
