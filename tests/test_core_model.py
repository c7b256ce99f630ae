"""ST-TransRec network tests (its graph on the tape, ``tests/oracle``)."""

import numpy as np
import pytest

from repro.core.config import STTransRecConfig
from repro.core.model import InteractionBCE, STTransRec, UserSideBPR
from repro.core.trainer import _AnchorTerm
from repro.text.skipgram import SkipgramBatch
from tests.oracle import (
    interaction_logits,
    poi_embedding_batch,
    predict_scores,
    score_pois_for_user,
)


@pytest.fixture(scope="module")
def model():
    config = STTransRecConfig(embedding_dim=8, hidden_sizes=[8, 4], seed=0)
    return STTransRec(num_users=6, num_pois=10, num_words=12, config=config)


class TestForward:
    def test_logits_shape(self, model):
        logits = interaction_logits(model, np.array([0, 1]), np.array([2, 3]))
        assert logits.shape == (2,)

    def test_scores_in_unit_interval(self, model):
        scores = predict_scores(model, np.array([0, 1, 2]),
                                      np.array([0, 1, 2]))
        assert ((scores >= 0) & (scores <= 1)).all()

    def test_predict_restores_training_mode(self, model):
        model.train()
        predict_scores(model, np.array([0]), np.array([0]))
        assert model.training
        model.eval()
        predict_scores(model, np.array([0]), np.array([0]))
        assert not model.training

    def test_score_pois_for_user(self, model):
        scores = score_pois_for_user(model, 2, np.arange(10))
        assert scores.shape == (10,)

    def test_poi_bias_shifts_logits(self, model):
        model.eval()
        base = interaction_logits(model, np.array([0]), np.array([5])).item()
        model.poi_bias.weight.data[5, 0] += 3.0
        shifted = interaction_logits(model, np.array([0]),
                                     np.array([5])).item()
        np.testing.assert_allclose(shifted - base, 3.0, atol=1e-9)
        model.poi_bias.weight.data[5, 0] -= 3.0


class TestFeatureModes:
    def test_concat_vs_product_tower_width(self):
        concat_cfg = STTransRecConfig(embedding_dim=8,
                                      interaction_features="concat")
        prod_cfg = STTransRecConfig(embedding_dim=8,
                                    interaction_features="concat_product")
        m_concat = STTransRec(4, 4, 4, concat_cfg)
        m_prod = STTransRec(4, 4, 4, prod_cfg)
        assert m_concat.tower.tower[0].in_features == 16
        assert m_prod.tower.tower[0].in_features == 24

    def test_concat_mode_forward_works(self):
        cfg = STTransRecConfig(embedding_dim=8,
                               interaction_features="concat")
        m = STTransRec(4, 4, 4, cfg)
        logits = interaction_logits(m, np.array([0]), np.array([1]))
        assert logits.shape == (1,)


class TestEmbeddingAccess:
    def test_poi_vectors_copy(self, model):
        vectors = model.poi_vectors()
        vectors[0, 0] = 999.0
        assert model.poi_embeddings.weight.data[0, 0] != 999.0

    def test_poi_embedding_batch_in_graph(self, model):
        batch = poi_embedding_batch(model, np.array([0, 1]))
        assert batch.requires_grad

    def test_deterministic_init_per_seed(self):
        cfg = STTransRecConfig(embedding_dim=8, seed=5)
        a = STTransRec(4, 4, 4, cfg)
        b = STTransRec(4, 4, 4, cfg)
        np.testing.assert_array_equal(a.poi_embeddings.weight.data,
                                      b.poi_embeddings.weight.data)

    def test_repr(self, model):
        assert "STTransRec" in repr(model)


def _pair(bad):
    return np.array([0, bad])


# Each pass's entry, with ``bad`` in one id array: (table rows, call).
_ENTRIES = {
    "interaction-users": (6, lambda m, bad: InteractionBCE(
        m, _pair(bad), np.array([0, 1]), np.array([1.0, 0.0]))),
    "interaction-pois": (10, lambda m, bad: InteractionBCE(
        m, np.array([0, 1]), _pair(bad), np.array([1.0, 0.0]))),
    "anchor-users": (6, lambda m, bad: _AnchorTerm(
        m, np.zeros((6, 8)), _pair(bad))),
    "skipgram-pois": (10, lambda m, bad: SkipgramBatch(
        m.poi_embeddings.weight.data, m.word_embeddings.weight.data,
        _pair(bad), np.array([0, 1]), np.array([[0], [1]]))),
    "skipgram-pos-words": (12, lambda m, bad: SkipgramBatch(
        m.poi_embeddings.weight.data, m.word_embeddings.weight.data,
        np.array([0, 1]), _pair(bad), np.array([[0], [1]]))),
    "skipgram-neg-words": (12, lambda m, bad: SkipgramBatch(
        m.poi_embeddings.weight.data, m.word_embeddings.weight.data,
        np.array([0, 1]), np.array([0, 1]), _pair(bad)[:, None])),
    "bpr-users": (6, lambda m, bad: UserSideBPR(
        m, _pair(bad), np.array([0, 1]))),
    "bpr-pos": (10, lambda m, bad: UserSideBPR(
        m, np.array([0, 1]), _pair(bad))),
    "bpr-neg": (10, lambda m, bad: UserSideBPR(
        m, np.array([0, 1]), np.array([0, 1])).grads(_pair(bad))),
}


class TestIdRange:
    """The passes gather with ``take``, which wraps negative ids; each
    checks its id arrays where it enters instead."""

    @pytest.mark.parametrize("edge", ["negative", "num_rows"])
    @pytest.mark.parametrize("entry", sorted(_ENTRIES))
    def test_out_of_range_ids_raise(self, model, entry, edge):
        rows, call = _ENTRIES[entry]
        with pytest.raises(IndexError, match=f"out of range \\[0, {rows}\\)"):
            call(model, -1 if edge == "negative" else rows)

    @pytest.mark.parametrize("entry", sorted(_ENTRIES))
    def test_last_row_is_in_range(self, model, entry):
        rows, call = _ENTRIES[entry]
        call(model, rows - 1)
