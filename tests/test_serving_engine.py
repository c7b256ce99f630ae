"""InferenceEngine tests: score parity with the model, ranking, refresh."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.checkpoint import load_checkpoint, save_checkpoint
from repro.core.config import STTransRecConfig
from repro.core.model import STTransRec
from repro.core.recommend import Recommender
from repro.serving import engine as engine_module
from repro.serving.engine import Exclusions, InferenceEngine
from tests.oracle import score_pois_for_user


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
    """Engine scores must match the tape's
    (``tests.oracle.score_pois_for_user``)."""

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
            expected = score_pois_for_user(
                restored, u, engine.catalogue_poi_indices)
            np.testing.assert_allclose(batched[i], expected, atol=1e-6)

    def test_parity_ignores_training_mode(self, world):
        """Dropout must be disabled: parity holds even for a model left
        in train mode (predict_scores itself switches to eval)."""
        dataset, index = world
        model = make_model(index, dropout=0.5)
        model.train()
        engine = InferenceEngine.from_model(model, index, dataset,
                                            "shelbyville")
        expected = score_pois_for_user(model, 0,
                                       engine.catalogue_poi_indices)
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
            score_pois_for_user(model, 1, subset), atol=1e-6)

    def test_float32_engine_close(self, world):
        dataset, index = world
        model = make_model(index)
        engine = InferenceEngine.from_model(model, index, dataset,
                                            "shelbyville", dtype=np.float32)
        expected = score_pois_for_user(model, 0,
                                       engine.catalogue_poi_indices)
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


class TestTiles:
    """A batch scored in tiles has the bytes of the batch scored at once."""

    PER = 3     # users per tile while patched

    @pytest.mark.parametrize("dim", [16, 32, 64])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("tower", [None, [16]])
    @pytest.mark.parametrize("features", ["concat", "concat_product"])
    def test_rows_bit_identical_to_one_tile(self, world, monkeypatch,
                                            dtype, tower, features, dim):
        dataset, index = world
        config = STTransRecConfig(embedding_dim=dim, seed=5,
                                  hidden_sizes=tower,
                                  interaction_features=features)
        model = STTransRec(index.num_users, index.num_pois,
                           index.num_words, config)
        # Spread the logits over several units: a random-init model's
        # sit so near 0 that the sigmoid would hide a 1-ulp difference.
        for param in model.parameters():
            param.data *= 2.5
        engine = InferenceEngine.from_model(model, index, dataset,
                                            "shelbyville", dtype=dtype)
        per = self.PER
        for size in (1, per - 1, per, per + 1, 3 * per + 1):
            users = np.arange(7, 7 + size) % index.num_users
            # An odd slice leaves a short remainder of rows in each tile.
            for lo, hi in ((0, engine.catalogue_size), (5, 18)):
                monkeypatch.setattr(engine_module, "_CHUNK_ROWS", 10 ** 9)
                whole = engine.score_catalogue(users, lo, hi)
                monkeypatch.setattr(engine_module, "_CHUNK_ROWS",
                                    per * (hi - lo))
                tiled = engine.score_catalogue(users, lo, hi)
                assert tiled.dtype == whole.dtype == np.dtype(dtype)
                for i in range(size):
                    assert tiled[i].tobytes() == whole[i].tobytes(), \
                        (size, lo, hi, i)


def loop_top_k(engine, user_indices, k, lo, hi, exclude_poi_ids):
    """The per-user ranking loop ``top_k_slice`` replaced: the oracle."""
    position = {int(p): i for i, p in enumerate(engine.catalogue_poi_ids)}
    scores = engine.score_catalogue(user_indices, lo=lo, hi=hi)
    all_positions = np.arange(lo, hi, dtype=np.int64)
    all_ids = engine.catalogue_poi_ids[lo:hi]
    out = []
    for i in range(len(user_indices)):
        row, positions, ids = scores[i], all_positions, all_ids
        if exclude_poi_ids is not None and exclude_poi_ids[i]:
            masked = [pos - lo for pos in (
                position.get(p) for p in exclude_poi_ids[i])
                if pos is not None and lo <= pos < hi]
            if masked:
                keep = np.ones(hi - lo, dtype=bool)
                keep[masked] = False
                row, positions, ids = row[keep], positions[keep], ids[keep]
        order = np.argsort(-row, kind="stable")[:k]
        out.append([(int(positions[j]), int(ids[j]), float(row[j]))
                    for j in order])
    return out


class TestTopKSlice:
    """``top_k_slice`` ranks exactly as the per-user loop it replaced."""

    def test_edge_cases_match_the_loop(self, world):
        dataset, index = world
        engine = InferenceEngine.from_model(make_model(index), index,
                                            dataset, "shelbyville")
        ids = [int(p) for p in engine.catalogue_poi_ids]
        lo, hi = 6, 14
        inside, outside = ids[lo:hi], ids[:lo] + ids[hi:]
        other_city = next(p.poi_id for p in dataset.pois_in_city(
            "springfield"))
        excludes = [
            None,
            set(),
            set(inside[:6]),                   # 2 left for k = 4
            set(inside),                       # nothing left
            set(outside) | {other_city, -1, 10 ** 9},   # all ignored
            {inside[0], outside[0], -7},
            set(inside[1::2]) | set(outside[::3]),
        ]
        users = list(range(len(excludes)))
        for k in (1, 4, hi - lo, hi - lo + 3):
            got = engine.top_k_slice(users, k, lo, hi, excludes)
            assert got == loop_top_k(engine, users, k, lo, hi, excludes)
            assert [len(row) for row in got] == [
                min(k, n) for n in (8, 8, 2, 0, 8, 7, 4)]
        assert engine.top_k_slice(users, 3, lo, hi) == \
            loop_top_k(engine, users, 3, lo, hi, None)

    def test_ties_keep_ascending_catalogue_position(self, world):
        dataset, index = world
        pois = [p.poi_id for p in dataset.pois_in_city("shelbyville")][:5]
        # Every POI listed three times: each score appears thrice.
        engine = InferenceEngine(make_model(index), index, pois * 3)
        excludes = [None, {pois[1]}, {pois[0], pois[4], -3}]
        users = [0, 1, 2]
        for lo, hi in ((0, 15), (2, 13)):
            got = engine.top_k_slice(users, 7, lo, hi, excludes)
            assert got == loop_top_k(engine, users, 7, lo, hi, excludes)
            for row in got:
                for (pos_a, _, score_a), (pos_b, _, score_b) in zip(
                        row, row[1:]):
                    assert score_a > score_b or (
                        score_a == score_b and pos_a < pos_b)
        best = engine.top_k_slice([0], 3)[0]
        assert [pos % 5 for pos, _, _ in best] == [best[0][0]] * 3
        assert [pos for pos, _, _ in best] == \
            [best[0][0], best[0][0] + 5, best[0][0] + 10]


def _bits(rows):
    """Ranked rows with each score as its float64 bytes, so NaN scores
    and the sign of zero compare exactly."""
    return [[(pos, poi, struct.pack("<d", score))
             for pos, poi, score in row] for row in rows]


# Scores that tie, straddle zero's sign or are NaN, beside a random one.
_SCORE_POOL = [0.0, -0.0, 0.25, 0.5, 0.75, 1.0, float("nan")]


@st.composite
def _ranking_cases(draw, catalogue_ids):
    """A batch of adversarial score rows, a slice, a k and exclusions."""
    size = len(catalogue_ids)
    lo = draw(st.integers(0, size - 1))
    hi = draw(st.integers(lo + 1, size))
    width = hi - lo
    batch = draw(st.integers(1, 9))
    k = draw(st.sampled_from(sorted({1, 2, max(1, width - 1), width,
                                     width + 2,
                                     draw(st.integers(1, width + 2))})))
    score = st.one_of(st.sampled_from(_SCORE_POOL),
                      st.floats(0.0, 1.0, width=32))
    rows = []
    for _ in range(batch):
        kind = draw(st.sampled_from(["mixed", "mixed", "equal", "nan"]))
        if kind == "mixed":
            rows.append(draw(st.lists(score, min_size=width,
                                      max_size=width)))
        else:
            value = draw(score) if kind == "equal" else float("nan")
            rows.append([value] * width)
    inside = [int(p) for p in catalogue_ids[lo:hi]]
    everywhere = [int(p) for p in catalogue_ids] + [-1, 10 ** 9]
    excludes = []
    for _ in range(batch):
        kind = draw(st.sampled_from(
            ["none", "empty", "some", "some", "slice"]))
        if kind == "none":
            excludes.append(None)
        elif kind == "empty":
            excludes.append([])
        elif kind == "slice":
            excludes.append(inside + draw(st.lists(
                st.sampled_from(everywhere), max_size=3)))
        else:
            excludes.append(draw(st.lists(st.sampled_from(everywhere),
                                          max_size=width + 3)))
    return np.array(rows), lo, hi, k, excludes


class TestPartialSelection:
    """The partial top-k selection ranks exactly as the per-user loop,
    over adversarial score rows: ties at the k-th place, all-equal and
    all-NaN rows, ±0, fully excluded rows, duplicated catalogue ids."""

    @pytest.fixture(scope="class")
    def engines(self, world):
        dataset, index = world
        pois = [p.poi_id for p in dataset.pois_in_city("shelbyville")]
        # The first four ids appear twice, the third a third time: each
        # is excluded at its last place.
        catalogue = pois[:14] + pois[:4] + [pois[2]]
        model = make_model(index)
        return {dtype: InferenceEngine(model, index, catalogue, dtype=dtype)
                for dtype in (np.float32, np.float64)}

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data(), dtype=st.sampled_from([np.float32, np.float64]),
           form=st.sampled_from(["sets", "lists", "arrays", "flat"]))
    def test_matches_the_loop(self, engines, data, dtype, form):
        engine = engines[dtype]
        scores, lo, hi, k, excludes = data.draw(
            _ranking_cases(engine.catalogue_poi_ids))
        scores = scores.astype(dtype)
        oracle = [None if ids is None else set(ids) for ids in excludes]
        given_excludes = {
            "sets": oracle,
            "lists": excludes,
            "arrays": [None if ids is None else np.array(ids, dtype=np.int64)
                       for ids in excludes],
            "flat": Exclusions.of(excludes),
        }[form]
        engine.score_catalogue = lambda users, lo=0, hi=None: scores.copy()
        try:
            users = list(range(len(scores)))
            got = engine.top_k_slice(users, k, lo, hi, given_excludes)
            expected = loop_top_k(engine, users, k, lo, hi, oracle)
        finally:
            del engine.score_catalogue
        assert _bits(got) == _bits(expected)

    def test_smallest_k_equals_the_stable_sort(self):
        rng = np.random.default_rng(8)
        for dtype in (np.float32, np.float64):
            keys = -rng.random((64, 40)).astype(dtype)
            keys[::5, 10:] = np.inf                     # excluded tails
            keys[1] = np.inf                            # fully excluded
            keys[2] = -0.5                              # all equal
            keys[3, ::2], keys[3, 1::2] = 0.0, -0.0     # signed zeros
            keys[4, ::3] = keys[4, 7]                   # ties at k-th
            for k in (1, 2, 9, 10, 39, 40, 41):
                np.testing.assert_array_equal(
                    engine_module._smallest_k(keys, k),
                    np.argsort(keys, axis=1, kind="stable")[:, :k])


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
            score_pois_for_user(model, 0,
                                engine.catalogue_poi_indices),
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
            score_pois_for_user(model, 0,
                                engine.catalogue_poi_indices),
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
            score_pois_for_user(model, 0,
                                engine.catalogue_poi_indices),
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
