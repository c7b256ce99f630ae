"""Recommender (top-k inference) tests."""

import copy

import numpy as np
import pytest

from repro.core.config import STTransRecConfig
from repro.core.recommend import Recommender
from repro.core.trainer import STTransRecTrainer

from tests.test_core_trainer import fast_config


@pytest.fixture(scope="module")
def recommender(tiny_split):
    trainer = STTransRecTrainer(tiny_split, fast_config())
    trainer.fit()
    return Recommender(trainer.model, trainer.index, tiny_split.train,
                       "shelbyville")


class TestRecommend:
    def test_topk_sorted_by_score(self, recommender, tiny_split):
        user = tiny_split.test_users[0]
        ranked = recommender.recommend(user, k=5)
        scores = [s for _, s in ranked]
        assert scores == sorted(scores, reverse=True)
        assert len(ranked) == 5

    def test_recommends_only_target_city(self, recommender, tiny_split):
        user = tiny_split.test_users[0]
        for poi_id, _ in recommender.recommend(user, k=10):
            assert tiny_split.train.pois[poi_id].city == "shelbyville"

    def test_excludes_visited_when_asked(self, recommender, tiny_split):
        # Local users have target-city training check-ins to exclude.
        local = next(u for u in tiny_split.train.users_in_city("shelbyville")
                     if u not in tiny_split.test_users)
        visited = {r.poi_id
                   for r in tiny_split.train.user_profile(local)
                   if r.city == "shelbyville"}
        assert visited
        ranked = recommender.recommend(local, k=50, exclude_visited=True)
        assert not ({p for p, _ in ranked} & visited)

    def test_include_visited_flag(self, recommender, tiny_split):
        local = next(u for u in tiny_split.train.users_in_city("shelbyville")
                     if u not in tiny_split.test_users)
        with_visited = recommender.recommend(local, k=100,
                                             exclude_visited=False)
        without = recommender.recommend(local, k=100, exclude_visited=True)
        assert len(with_visited) > len(without)

    def test_invalid_k(self, recommender, tiny_split):
        with pytest.raises(ValueError):
            recommender.recommend(tiny_split.test_users[0], k=0)

    def test_unknown_user_raises(self, recommender):
        with pytest.raises(KeyError):
            recommender.score_candidates(99999, [0])


class TestBatchAndExport:
    def test_batch_skips_unknown_users(self, recommender, tiny_split):
        users = tiny_split.test_users[:2] + [10**9]
        results = recommender.batch_recommend(users, k=3)
        assert set(results) == set(tiny_split.test_users[:2])
        for ranked in results.values():
            assert len(ranked) == 3

    def test_export_jsonl_roundtrip(self, recommender, tiny_split,
                                    tmp_path):
        import json
        path = tmp_path / "recs" / "out.jsonl"
        count = recommender.export_recommendations(
            path, tiny_split.test_users[:3], k=4)
        assert count == 3
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3
        first = json.loads(lines[0])
        assert set(first) == {"user_id", "recommendations"}
        assert len(first["recommendations"]) == 4
        assert {"poi_id", "score"} == set(first["recommendations"][0])


class TestRecommendBatch:
    """recommend_batch: engine-backed batching with identical semantics."""

    def test_matches_per_user_recommend(self, recommender, tiny_split):
        users = tiny_split.test_users[:4]
        batched = recommender.recommend_batch(users, k=5)
        assert set(batched) == set(users)
        for user_id in users:
            expected = recommender.recommend(user_id, k=5)
            assert [p for p, _ in batched[user_id]] == \
                [p for p, _ in expected]
            np.testing.assert_allclose(
                [s for _, s in batched[user_id]],
                [s for _, s in expected], atol=1e-9)

    def test_uses_serving_engine(self, recommender, tiny_split):
        recommender.recommend_batch(tiny_split.test_users[:2], k=3)
        from repro.serving.engine import InferenceEngine
        assert isinstance(recommender._engine, InferenceEngine)

    def test_exclusion_semantics_identical(self, recommender, tiny_split):
        local = next(u for u in tiny_split.train.users_in_city("shelbyville")
                     if u not in tiny_split.test_users)
        batched = recommender.recommend_batch([local], k=100)[local]
        looped = recommender.recommend(local, k=100)
        assert [p for p, _ in batched] == [p for p, _ in looped]
        raw = recommender.recommend_batch([local], k=100,
                                          exclude_visited=False)[local]
        assert len(raw) > len(batched)

    def test_skips_unknown_users(self, recommender, tiny_split):
        users = tiny_split.test_users[:2] + [10**9]
        batched = recommender.recommend_batch(users, k=3)
        assert set(batched) == set(tiny_split.test_users[:2])

    def test_invalid_k(self, recommender, tiny_split):
        with pytest.raises(ValueError):
            recommender.recommend_batch(tiny_split.test_users[:1], k=0)

    def test_attach_engine_catalogue_mismatch_rejected(self, recommender,
                                                       tiny_split):
        class FakeEngine:
            catalogue_poi_ids = np.array([1, 2, 3])

        with pytest.raises(ValueError):
            recommender.attach_engine(FakeEngine())


class TestSnapshot:
    """One engine, built at construction: every entry point serves the
    model as it was when the recommender was built."""

    def test_entry_points_agree_after_the_model_changes(self, recommender,
                                                        tiny_split):
        model = copy.deepcopy(recommender.model)
        snapshot = Recommender(model, recommender.index, tiny_split.train,
                               "shelbyville")
        user, other = tiny_split.test_users[:2]
        before = snapshot.recommend_batch([user], k=5)[user]
        moved = recommender.recommend(other, k=5)
        assert moved != before

        # Give ``user`` the embedding of ``other`` in the live model.
        rows = model.user_embeddings.weight.data
        rows[recommender.index.users.index_of(user)] = \
            rows[recommender.index.users.index_of(other)]

        assert snapshot.recommend_batch([user], k=5)[user] == before
        assert snapshot.recommend(user, k=5) == before
        assert snapshot.batch_recommend([user], k=5)[user] == before
        catalogue = snapshot.target_poi_ids
        scores = snapshot.score_candidates(user, catalogue)
        top = {p: s for p, s in before}
        for poi_id, score in zip(catalogue, scores):
            if poi_id in top:
                assert score == top[poi_id]

        fresh = Recommender(model, recommender.index, tiny_split.train,
                            "shelbyville")
        assert fresh.recommend(user, k=5) == moved


class TestCaseStudyHelpers:
    def test_describe_recommendations(self, recommender, tiny_split):
        user = tiny_split.test_users[0]
        described = recommender.describe_recommendations(user, k=3)
        assert len(described) == 3
        for poi_id, words in described:
            assert isinstance(words, list)

    def test_user_top_words_ranked_by_frequency(self, recommender,
                                                tiny_split):
        user = tiny_split.test_users[0]
        words = recommender.user_top_words(user, k=5)
        assert len(words) <= 5
        assert len(set(words)) == len(words)
