"""RecommendationService tests: cache, fold-in invalidation, parity."""

import numpy as np
import pytest

from repro.core.checkpoint import save_checkpoint
from repro.core.config import STTransRecConfig
from repro.core.model import STTransRec, UserSideBPR
from repro.core.recommend import Recommender
from repro.data.dataset import CheckinDataset
from repro.data.records import CheckinRecord
from repro.serving.service import RecommendationService
from tests.oracle import score_pois_for_user


def make_model(index, seed=0):
    config = STTransRecConfig(embedding_dim=16, seed=seed)
    model = STTransRec(index.num_users, index.num_pois, index.num_words,
                       config)
    model.eval()
    return model


@pytest.fixture()
def world(tiny_split):
    dataset = tiny_split.train
    return dataset, dataset.build_index()


@pytest.fixture()
def service(world):
    dataset, index = world
    svc = RecommendationService(make_model(index), index, dataset,
                                "shelbyville", use_batcher=False)
    yield svc
    svc.close()


class TestRecommend:
    def test_matches_offline_recommender(self, world, service):
        dataset, index = world
        offline = Recommender(service.model, index, dataset, "shelbyville")
        for user_id in sorted(dataset.users)[:5]:
            served = service.recommend(user_id, k=5)
            expected = offline.recommend(user_id, k=5)
            assert [p for p, _ in served] == [p for p, _ in expected]
            np.testing.assert_allclose([s for _, s in served],
                                       [s for _, s in expected], atol=1e-9)

    def test_visited_pois_excluded(self, world, service):
        dataset, _index = world
        local = next(iter(dataset.users_in_city("shelbyville")))
        visited = {r.poi_id for r in dataset.user_profile(local)
                   if r.city == "shelbyville"}
        assert visited
        served = service.recommend(local, k=100)
        assert not ({p for p, _ in served} & visited)

    def test_unknown_user_raises(self, service):
        with pytest.raises(KeyError):
            service.recommend(10**9)

    def test_invalid_k(self, service):
        with pytest.raises(ValueError):
            service.recommend(0, k=0)

    def test_through_batcher(self, world):
        dataset, index = world
        model = make_model(index)
        with RecommendationService(model, index, dataset, "shelbyville",
                                   use_batcher=True,
                                   max_wait_ms=1.0) as svc:
            direct = RecommendationService(model, index, dataset,
                                           "shelbyville", use_batcher=False,
                                           cache_size=0)
            user = sorted(dataset.users)[0]
            assert svc.recommend(user, k=5) == direct.recommend(user, k=5)

    def test_recommend_many_matches_single(self, world, service):
        dataset, _index = world
        users = sorted(dataset.users)[:4]
        many = service.recommend_many(users, k=5)
        assert set(many) == set(users)
        for user_id in users:
            assert many[user_id] == service.recommend(user_id, k=5)

    def test_recommend_many_skips_unknown(self, world, service):
        dataset, _index = world
        users = sorted(dataset.users)[:2] + [10**9]
        many = service.recommend_many(users, k=3)
        assert set(many) == set(users[:2])


class TestCache:
    def test_second_request_is_a_hit(self, world, service):
        dataset, _index = world
        user = sorted(dataset.users)[0]
        first = service.recommend(user, k=5)
        assert service.cache.hits == 0
        second = service.recommend(user, k=5)
        assert service.cache.hits == 1
        assert first == second

    def test_cache_disabled(self, world):
        dataset, index = world
        with RecommendationService(make_model(index), index, dataset,
                                   "shelbyville", cache_size=0,
                                   use_batcher=False) as svc:
            assert svc.cache is None
            user = sorted(dataset.users)[0]
            assert svc.recommend(user, k=5) == svc.recommend(user, k=5)


class TestFoldIn:
    def test_fold_in_invalidates_only_that_user(self, world, service):
        dataset, _index = world
        user_a, user_b = sorted(dataset.users)[:2]
        before = service.recommend(user_a, k=5)
        service.recommend(user_b, k=5)
        new_poi = before[0][0]  # top recommendation becomes a check-in

        service.fold_in(user_a, [new_poi])

        hits_before = service.cache.hits
        misses_before = service.cache.misses
        after = service.recommend(user_a, k=5)
        # user_a's entry was invalidated: this request recomputed.
        assert service.cache.misses == misses_before + 1
        assert service.cache.hits == hits_before
        # The served list reflects the update: the folded-in check-in is
        # now an (excluded) visited POI, and the embedding moved.
        assert new_poi not in [p for p, _ in after]
        assert after != before

        # user_b's entry stayed cached.
        service.recommend(user_b, k=5)
        assert service.cache.hits == hits_before + 1

    def test_fold_in_updates_served_scores(self, world, service):
        dataset, _index = world
        user = sorted(dataset.users)[0]
        before = service.recommend(user, k=5, exclude_visited=False)
        service.fold_in(user, [before[1][0]])
        after = service.recommend(user, k=5, exclude_visited=False)
        assert not np.allclose([s for _, s in before],
                               [s for _, s in after])
        # Engine and model agree after the refresh.
        user_index = service.index.users.index_of(user)
        np.testing.assert_allclose(
            service.engine.score_catalogue([user_index])[0],
            score_pois_for_user(service.model, user_index,
                                service.engine.catalogue_poi_indices),
            atol=1e-6)

    def test_fold_in_unknown_user_raises(self, service):
        with pytest.raises(KeyError):
            service.fold_in(10**9, [0])

    def test_fold_in_rejects_bad_input_before_any_row_moves(self, world,
                                                            service):
        dataset, _index = world
        user = sorted(dataset.users)[0]
        poi = int(service.engine.catalogue_poi_ids[0])
        before = service.model.user_vectors()
        with pytest.raises(KeyError):
            service.fold_in(user, [poi, 10**9])
        with pytest.raises(ValueError):
            service.fold_in(user, [])
        np.testing.assert_array_equal(before, service.model.user_vectors())
        assert service.fold_ins == 0

    def test_fold_in_returns_the_updated_row(self, world, service):
        dataset, index = world
        user = sorted(dataset.users)[0]
        row = service.fold_in(user, service.engine.catalogue_poi_ids[:1])
        np.testing.assert_array_equal(
            row, service.model.user_vectors()[index.users.index_of(user)])

    def test_observed_pois_gain_against_the_candidate_mean(self, world,
                                                           service):
        dataset, index = world
        user = sorted(dataset.users)[1]
        u = index.users.index_of(user)
        catalogue = service.engine.catalogue_poi_indices
        observed = [0, 1]
        before = score_pois_for_user(service.model, u, catalogue)
        service.fold_in(user, service.engine.catalogue_poi_ids[observed])
        after = score_pois_for_user(service.model, u, catalogue)
        # BPR optimizes relative ordering: the observed POIs must gain
        # against the candidate average.
        assert after[observed].mean() - after.mean() > \
            before[observed].mean() - before.mean()

    def test_fold_in_never_draws_a_visited_negative(self, world,
                                                    monkeypatch):
        dataset, _index = world
        catalogue = sorted(p.poi_id for p in
                           dataset.pois_in_city("shelbyville"))
        user = sorted(dataset.users)[0]
        # The user's base-data visits cover three quarters of the
        # catalogue; the fold-in positives are two of the rest.
        cut = 3 * len(catalogue) // 4
        extra = [CheckinRecord(user, poi_id, "shelbyville")
                 for poi_id in catalogue[:cut]]
        heavy = CheckinDataset(dataset.pois.values(),
                               list(dataset.checkins) + extra)
        index = heavy.build_index()
        new_pois = catalogue[cut:cut + 2]
        calls = []
        grads = UserSideBPR.grads

        def recording(bpr, neg):
            calls.append(np.asarray(neg).copy())
            return grads(bpr, neg)

        monkeypatch.setattr(UserSideBPR, "grads", recording)
        with RecommendationService(make_model(index), index, heavy,
                                   "shelbyville", use_batcher=False) as svc:
            svc.fold_in(user, new_pois)
        # Each BPR step scores the positives against these negatives.
        negatives = np.concatenate(calls)
        assert negatives.size > 0
        visited = {index.pois.index_of(p)
                   for p in catalogue[:cut] + new_pois}
        assert not set(negatives.tolist()) & visited

    def test_refresh_model_drops_whole_cache(self, world, service):
        dataset, _index = world
        users = sorted(dataset.users)[:2]
        for u in users:
            service.recommend(u, k=5)
        assert len(service.cache) == 2
        service.refresh_model()
        assert len(service.cache) == 0


class TestFromCheckpointAndStats:
    def test_from_checkpoint(self, world, tmp_path):
        dataset, index = world
        model = make_model(index)
        path = tmp_path / "serve.npz"
        save_checkpoint(model, index, path)
        with RecommendationService.from_checkpoint(
                path, dataset, "shelbyville", use_batcher=False) as svc:
            offline = Recommender(model, index, dataset, "shelbyville")
            user = sorted(dataset.users)[0]
            served = svc.recommend(user, k=5)
            expected = offline.recommend(user, k=5)
            assert [p for p, _ in served] == [p for p, _ in expected]

    def test_stats_structure(self, world, service):
        dataset, _index = world
        user = sorted(dataset.users)[0]
        service.recommend(user, k=5)
        service.recommend(user, k=5)
        stats = service.stats()
        assert stats["requests"]["count"] == 2
        assert stats["cache_misses"]["count"] == 1
        assert stats["cache_hits"]["count"] == 1
        assert stats["cache"]["hit_rate"] == 0.5
        assert stats["engine"]["users_scored"] == 1
        assert stats["batcher"] is None
        assert stats["fold_ins"] == 0
