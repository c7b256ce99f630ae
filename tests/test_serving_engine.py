"""InferenceEngine tests: score parity with the model, ranking, refresh."""

import numpy as np
import pytest

from repro.core.checkpoint import load_checkpoint, save_checkpoint
from repro.core.config import STTransRecConfig
from repro.core.model import STTransRec
from repro.core.recommend import Recommender
from repro.serving.engine import InferenceEngine


def make_model(index, *, embedding_dim=16, dropout=0.2, seed=0,
               interaction_features="concat_product"):
    """A randomly initialized model (scoring parity needs no training)."""
    config = STTransRecConfig(embedding_dim=embedding_dim, dropout=dropout,
                              seed=seed,
                              interaction_features=interaction_features)
    model = STTransRec(index.num_users, index.num_pois, index.num_words,
                       config)
    model.eval()
    return model


@pytest.fixture(scope="module")
def world(tiny_split):
    dataset = tiny_split.train
    return dataset, dataset.build_index()


class TestScoreParity:
    """Engine scores must match ``STTransRec.score_pois_for_user``."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("features", ["concat", "concat_product"])
    def test_parity_across_random_checkpoints(self, world, tmp_path,
                                              seed, features):
        dataset, index = world
        model = make_model(index, seed=seed, dropout=0.3,
                           interaction_features=features,
                           embedding_dim=8 + 4 * seed)
        path = tmp_path / f"ckpt_{features}_{seed}.npz"
        save_checkpoint(model, index, path)
        restored, r_index = load_checkpoint(path)
        engine = InferenceEngine.from_model(restored, r_index, dataset,
                                            "shelbyville")
        users = list(range(min(6, index.num_users)))
        batched = engine.score_catalogue(users)
        for i, u in enumerate(users):
            expected = restored.score_pois_for_user(
                u, engine.catalogue_poi_indices)
            np.testing.assert_allclose(batched[i], expected, atol=1e-6)

    def test_parity_ignores_training_mode(self, world):
        """Dropout must be disabled: parity holds even for a model left
        in train mode (predict_scores itself switches to eval)."""
        dataset, index = world
        model = make_model(index, dropout=0.5)
        model.train()
        engine = InferenceEngine.from_model(model, index, dataset,
                                            "shelbyville")
        expected = model.score_pois_for_user(0, engine.catalogue_poi_indices)
        np.testing.assert_allclose(engine.score_catalogue([0])[0],
                                   expected, atol=1e-6)

    def test_score_pois_for_user_arbitrary_subset(self, world):
        dataset, index = world
        model = make_model(index)
        engine = InferenceEngine.from_model(model, index, dataset,
                                            "shelbyville")
        subset = np.arange(index.num_pois)[::3]
        np.testing.assert_allclose(
            engine.score_pois_for_user(1, subset),
            model.score_pois_for_user(1, subset), atol=1e-6)

    def test_float32_engine_close(self, world):
        dataset, index = world
        model = make_model(index)
        engine = InferenceEngine.from_model(model, index, dataset,
                                            "shelbyville", dtype=np.float32)
        expected = model.score_pois_for_user(0, engine.catalogue_poi_indices)
        np.testing.assert_allclose(engine.score_catalogue([0])[0],
                                   expected, atol=1e-4)

    def test_batch_rows_independent_of_batch_composition(self, world):
        dataset, index = world
        model = make_model(index)
        engine = InferenceEngine.from_model(model, index, dataset,
                                            "shelbyville")
        alone = engine.score_catalogue([2])[0]
        in_batch = engine.score_catalogue([0, 1, 2, 3])[2]
        np.testing.assert_allclose(alone, in_batch, atol=1e-12)


class TestRanking:
    def test_top_k_matches_recommender(self, world):
        dataset, index = world
        model = make_model(index)
        engine = InferenceEngine.from_model(model, index, dataset,
                                            "shelbyville")
        recommender = Recommender(model, index, dataset, "shelbyville")
        user_ids = sorted(dataset.users)[:5]
        user_indices = [index.users.index_of(u) for u in user_ids]
        from repro.core.recommend import visited_poi_ids
        exclude = [visited_poi_ids(dataset, u) for u in user_ids]
        ranked = engine.top_k_catalogue(user_indices, 5,
                                        exclude_poi_ids=exclude)
        for user_id, engine_top in zip(user_ids, ranked):
            expected = recommender.recommend(user_id, k=5)
            assert [p for p, _ in engine_top] == [p for p, _ in expected]
            np.testing.assert_allclose([s for _, s in engine_top],
                                       [s for _, s in expected], atol=1e-9)

    def test_exclusion_drops_pois(self, world):
        dataset, index = world
        model = make_model(index)
        engine = InferenceEngine.from_model(model, index, dataset,
                                            "shelbyville")
        full = engine.top_k_catalogue([0], 3)[0]
        banned = {full[0][0]}
        filtered = engine.top_k_catalogue([0], 3,
                                          exclude_poi_ids=[banned])[0]
        assert full[0][0] not in [p for p, _ in filtered]

    def test_slices_merge_to_the_catalogue_ranking(self, world):
        from repro.core.recommend import visited_poi_ids
        from repro.fleet.partition import merge_topk, split_catalogue

        dataset, index = world
        engine = InferenceEngine.from_model(make_model(index), index,
                                            dataset, "shelbyville")
        user_ids = sorted(dataset.users)[:5]
        user_indices = [index.users.index_of(u) for u in user_ids]
        exclude = [visited_poi_ids(dataset, u) for u in user_ids]
        expected = engine.top_k_catalogue(user_indices, 5,
                                          exclude_poi_ids=exclude)
        slices = split_catalogue(engine.catalogue_size, 3)
        partials = [engine.top_k_slice(user_indices, 5, lo, hi, exclude)
                    for lo, hi in slices]
        for i, row in enumerate(expected):
            merged = merge_topk(
                [triple for part in partials for triple in part[i]], 5)
            assert merged == row
        for (lo, hi), part in zip(slices, partials):
            for triples in part:
                for position, poi_id, _score in triples:
                    assert lo <= position < hi
                    assert engine.catalogue_poi_ids[position] == poi_id

    def test_invalid_k(self, world):
        dataset, index = world
        engine = InferenceEngine.from_model(make_model(index), index,
                                            dataset, "shelbyville")
        with pytest.raises(ValueError):
            engine.top_k_catalogue([0], 0)

    def test_misaligned_exclusions_rejected(self, world):
        dataset, index = world
        engine = InferenceEngine.from_model(make_model(index), index,
                                            dataset, "shelbyville")
        with pytest.raises(ValueError):
            engine.top_k_catalogue([0, 1], 3, exclude_poi_ids=[set()])


class TestRefresh:
    def test_engine_is_frozen_until_refresh(self, world):
        dataset, index = world
        model = make_model(index)
        engine = InferenceEngine.from_model(model, index, dataset,
                                            "shelbyville")
        before = engine.score_catalogue([0])[0]
        model.user_embeddings.weight.data[0] += 0.5
        np.testing.assert_array_equal(engine.score_catalogue([0])[0], before)
        engine.refresh_user(0)
        after = engine.score_catalogue([0])[0]
        assert not np.allclose(after, before)
        np.testing.assert_allclose(
            after,
            model.score_pois_for_user(0, engine.catalogue_poi_indices),
            atol=1e-6)

    def test_refresh_user_leaves_others_untouched(self, world):
        dataset, index = world
        model = make_model(index)
        engine = InferenceEngine.from_model(model, index, dataset,
                                            "shelbyville")
        other_before = engine.score_catalogue([1])[0]
        model.user_embeddings.weight.data[0] += 0.5
        engine.refresh_user(0)
        np.testing.assert_array_equal(engine.score_catalogue([1])[0],
                                      other_before)

    def test_full_refresh_picks_up_all_parameters(self, world):
        dataset, index = world
        model = make_model(index)
        engine = InferenceEngine.from_model(model, index, dataset,
                                            "shelbyville")
        model.poi_bias.weight.data[:] += 1.0
        engine.refresh()
        np.testing.assert_allclose(
            engine.score_catalogue([0])[0],
            model.score_pois_for_user(0, engine.catalogue_poi_indices),
            atol=1e-6)


class TestConstruction:
    def test_empty_catalogue_rejected(self, world):
        _dataset, index = world
        with pytest.raises(ValueError):
            InferenceEngine(make_model(index), index, [])

    def test_unknown_city_rejected(self, world):
        dataset, index = world
        with pytest.raises(ValueError):
            InferenceEngine.from_model(make_model(index), index, dataset,
                                       "atlantis")

    def test_bad_dtype_rejected(self, world):
        dataset, index = world
        with pytest.raises(ValueError):
            InferenceEngine.from_model(make_model(index), index, dataset,
                                       "shelbyville", dtype=np.int32)

    def test_from_checkpoint_roundtrip(self, world, tmp_path):
        dataset, index = world
        model = make_model(index)
        path = tmp_path / "m.npz"
        save_checkpoint(model, index, path)
        engine = InferenceEngine.from_checkpoint(path, dataset,
                                                 "shelbyville")
        np.testing.assert_allclose(
            engine.score_catalogue([0])[0],
            model.score_pois_for_user(0, engine.catalogue_poi_indices),
            atol=1e-6)

    def test_stats_counters(self, world):
        dataset, index = world
        engine = InferenceEngine.from_model(make_model(index), index,
                                            dataset, "shelbyville")
        engine.score_catalogue([0, 1])
        stats = engine.stats()
        assert stats["batches_scored"] == 1
        assert stats["users_scored"] == 2
        assert stats["pairs_scored"] == 2 * engine.catalogue_size
