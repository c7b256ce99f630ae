"""Layer tests: Linear, Embedding, Dropout, Sequential, MLP."""

import numpy as np
import pytest

from repro.nn.layers import MLP, Dropout, Embedding, Linear, ReLU, Sequential, Sigmoid
from repro.nn.tensor import Tensor


class TestLinear:
    def test_forward_shape_and_value(self):
        layer = Linear(3, 2, rng=0)
        layer.weight.data[...] = np.eye(3, 2)
        layer.bias.data[...] = [1.0, 1.0]
        out = layer(Tensor(np.array([[1.0, 2.0, 3.0]])))
        np.testing.assert_allclose(out.data, [[2.0, 3.0]])

    def test_no_bias(self):
        layer = Linear(3, 2, bias=False, rng=0)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            Linear(0, 2)
        with pytest.raises(ValueError):
            Linear(2, -1)

    def test_gradients_flow(self):
        layer = Linear(4, 3, rng=0)
        out = layer(Tensor(np.ones((2, 4)))).sum()
        out.backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None


class TestEmbedding:
    def test_lookup_returns_rows(self):
        emb = Embedding(5, 3, rng=0)
        out = emb(np.array([1, 3]))
        np.testing.assert_array_equal(out.data, emb.weight.data[[1, 3]])

    def test_out_of_range_raises(self):
        emb = Embedding(5, 3, rng=0)
        with pytest.raises(IndexError):
            emb(np.array([5]))
        with pytest.raises(IndexError):
            emb(np.array([-1]))

    def test_only_touched_rows_get_grad(self):
        emb = Embedding(5, 3, rng=0)
        emb(np.array([2])).sum().backward()
        grad = emb.weight.grad
        assert grad[2].sum() == 3.0
        np.testing.assert_array_equal(grad[[0, 1, 3, 4]], 0.0)

    def test_gaussian_init_scale(self):
        emb = Embedding(500, 16, std=0.01, rng=0)
        assert abs(emb.weight.data.std() - 0.01) < 0.002


class TestEmbeddingValidation:
    """The single-pass unsigned-view range check and its fallbacks."""

    def test_empty_ids_ok(self):
        emb = Embedding(5, 3, rng=0)
        out = emb(np.array([], dtype=np.int64))
        assert out.shape == (0, 3)

    def test_non_integer_ids_raise_typeerror(self):
        emb = Embedding(5, 3, rng=0)
        with pytest.raises(TypeError, match="must be integers"):
            emb(np.array([1.0, 2.0]))

    def test_error_message_reports_min_and_max(self):
        emb = Embedding(5, 3, rng=0)
        with pytest.raises(IndexError, match=r"min=-2, max=7"):
            emb(np.array([-2, 3, 7]))

    def test_boundary_ids_accepted(self):
        emb = Embedding(5, 3, rng=0)
        out = emb(np.array([0, 4]))
        np.testing.assert_array_equal(out.data, emb.weight.data[[0, 4]])

    def test_unsigned_dtype_ids(self):
        emb = Embedding(5, 3, rng=0)
        out = emb(np.array([1, 4], dtype=np.uint16))
        np.testing.assert_array_equal(out.data, emb.weight.data[[1, 4]])
        with pytest.raises(IndexError):
            emb(np.array([5], dtype=np.uint16))

    def test_narrow_dtype_oversized_table_falls_back(self):
        # num_embeddings (300) exceeds int8's unsigned-view range, so a
        # wrapped negative could alias into range; the two-pass fallback
        # must still reject it.
        emb = Embedding(300, 2, rng=0)
        ids = np.array([-1], dtype=np.int8)  # wraps to 255 < 300
        with pytest.raises(IndexError):
            emb(ids)
        out = emb(np.array([100], dtype=np.int8))
        np.testing.assert_array_equal(out.data, emb.weight.data[[100]])

    def test_non_contiguous_ids(self):
        emb = Embedding(10, 3, rng=0)
        ids = np.arange(10)[::2]
        out = emb(ids)
        np.testing.assert_array_equal(out.data, emb.weight.data[ids])
        with pytest.raises(IndexError):
            emb(np.array([0, 11, 2, 4])[1::2])  # non-contiguous, max=11

    def test_matches_two_pass_semantics(self):
        emb = Embedding(128, 2, rng=0)
        rng = np.random.default_rng(0)
        for _ in range(20):
            ids = rng.integers(-5, 135, size=8)
            expected_bad = ids.min() < 0 or ids.max() >= 128
            if expected_bad:
                with pytest.raises(IndexError):
                    emb(ids)
            else:
                emb(ids)


class TestDropout:
    def test_eval_mode_is_identity(self):
        drop = Dropout(0.5, rng=0)
        drop.eval()
        x = Tensor(np.ones((4, 4)))
        np.testing.assert_array_equal(drop(x).data, x.data)

    def test_zero_rate_is_identity_in_train(self):
        drop = Dropout(0.0)
        x = Tensor(np.ones((4, 4)))
        assert drop(x) is x

    def test_training_scales_survivors(self):
        drop = Dropout(0.5, rng=0)
        out = drop(Tensor(np.ones((100, 100)))).data
        kept = out[out > 0]
        np.testing.assert_allclose(kept, 2.0)
        # roughly half survive
        assert 0.4 < (out > 0).mean() < 0.6

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            Dropout(1.0)
        with pytest.raises(ValueError):
            Dropout(-0.1)


class TestSequentialAndActivations:
    def test_applies_in_order(self):
        seq = Sequential(ReLU(), Sigmoid())
        out = seq(Tensor(np.array([-1.0, 0.0])))
        np.testing.assert_allclose(out.data, [0.5, 0.5])

    def test_len_and_getitem(self):
        seq = Sequential(ReLU(), Sigmoid())
        assert len(seq) == 2
        assert isinstance(seq[0], ReLU)

    def test_train_eval_propagates(self):
        drop = Dropout(0.5, rng=0)
        seq = Sequential(Linear(2, 2, rng=0), drop)
        seq.eval()
        assert not drop.training
        seq.train()
        assert drop.training


class TestMLP:
    def test_output_is_flat_logits(self):
        mlp = MLP(6, [8, 4], rng=0)
        out = mlp(Tensor(np.zeros((5, 6))))
        assert out.shape == (5,)

    def test_depth_property(self):
        assert MLP(4, [8, 4, 2], rng=0).depth == 3

    def test_requires_hidden_layers(self):
        with pytest.raises(ValueError):
            MLP(4, [])

    def test_parameter_count(self):
        mlp = MLP(4, [8], dropout=0.0, rng=0)
        # Linear(4,8): 32+8, head Linear(8,1): 8+1
        assert mlp.num_parameters() == 32 + 8 + 8 + 1

    def test_dropout_layers_inserted(self):
        mlp = MLP(4, [8, 8], dropout=0.2, rng=0)
        kinds = [type(s).__name__ for s in mlp.tower.steps]
        assert kinds.count("Dropout") == 2
