"""Module container tests: discovery, modes, state dicts."""

import numpy as np
import pytest

from repro.core.config import STTransRecConfig
from repro.core.model import STTransRec
from repro.nn.layers import Dropout, Linear, Sequential
from repro.nn.module import Module
from repro.nn.tensor import Tensor
from repro.streaming import CheckinEvent, IncrementalUpdater


class Composite(Module):
    def __init__(self):
        super().__init__()
        self.linear = Linear(3, 2, rng=0)
        self.blocks = [Linear(2, 2, rng=1), Dropout(0.5, rng=2)]
        self.scale = Tensor(np.ones(1), requires_grad=True)
        self.buffer = Tensor(np.zeros(1))  # not trainable

    def forward(self, x):
        return self.blocks[0](self.linear(x)) * self.scale


class TestDiscovery:
    def test_named_parameters_include_nested_and_lists(self):
        names = {n for n, _ in Composite().named_parameters()}
        assert "linear.weight" in names
        assert "linear.bias" in names
        assert "blocks.0.weight" in names
        assert "scale" in names
        assert "buffer" not in names  # requires_grad False

    def test_parameters_count(self):
        model = Composite()
        # linear 3*2+2, blocks.0 2*2+2, scale 1
        assert model.num_parameters() == 8 + 6 + 1

    def test_modules_walks_children(self):
        kinds = [type(m).__name__ for m in Composite().modules()]
        assert kinds.count("Linear") == 2
        assert "Dropout" in kinds


class TestModes:
    def test_train_eval_toggle_recursively(self):
        model = Composite()
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())


class TestStateDict:
    def test_roundtrip(self):
        a, b = Composite(), Composite()
        state = a.state_dict()
        b.load_state_dict(state)
        for (_, pa), (_, pb) in zip(a.named_parameters(),
                                    b.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_state_dict_is_a_copy(self):
        model = Composite()
        state = model.state_dict()
        state["scale"][0] = 99.0
        assert model.scale.data[0] == 1.0

    def test_missing_key_raises(self):
        model = Composite()
        state = model.state_dict()
        state.pop("scale")
        with pytest.raises(KeyError):
            model.load_state_dict(state)

    def test_unexpected_key_raises(self):
        model = Composite()
        state = model.state_dict()
        state["phantom"] = np.zeros(1)
        with pytest.raises(KeyError):
            model.load_state_dict(state)

    def test_shape_mismatch_raises(self):
        model = Composite()
        state = model.state_dict()
        state["scale"] = np.zeros(7)
        with pytest.raises(ValueError):
            model.load_state_dict(state)


class TestZeroGradAndCall:
    def test_zero_grad_clears_all(self):
        model = Composite()
        out = model(Tensor(np.ones((1, 3)))).sum()
        out.backward()
        assert model.linear.weight.grad is not None
        model.zero_grad()
        assert model.linear.weight.grad is None

    def test_forward_not_implemented_on_base(self):
        with pytest.raises(NotImplementedError):
            Module()(1)


class TestTrainableOnly:
    def test_discovery_and_state_dict_unchanged_inside_freeze(self):
        model = Composite()
        names = [n for n, _ in model.named_parameters()]
        keys = list(model.state_dict())
        sub_names = [n for n, _ in model.linear.named_parameters()]
        with model.trainable_only(model.scale):
            assert [n for n, _ in model.named_parameters()] == names
            assert list(model.state_dict()) == keys
            assert [n for n, _ in model.linear.named_parameters()] \
                == sub_names
            assert model.num_parameters() == 8 + 6 + 1
            assert model.scale.requires_grad
            assert not model.linear.weight.requires_grad
            assert not model.blocks[0].bias.requires_grad
        assert "buffer" not in names

    def test_frozen_parameters_get_no_grad(self):
        model = Composite()
        with model.trainable_only(model.scale):
            model(Tensor(np.ones((2, 3)))).sum().backward()
        assert model.scale.grad is not None
        assert model.linear.weight.grad is None
        assert model.blocks[0].weight.grad is None

    def test_state_restored_on_exit_and_on_error(self):
        model = Composite()
        with model.trainable_only(model.scale):
            pass
        assert all(p.requires_grad for p in model.parameters())
        with pytest.raises(RuntimeError, match="boom"):
            with model.trainable_only(model.linear.weight):
                raise RuntimeError("boom")
        assert all(p.requires_grad for p in model.parameters())
        assert not model.buffer.requires_grad
        assert all(not m._frozen_ids for m in model.modules())

    def test_nested_scope_narrows_and_restores(self):
        model = Composite()
        with model.trainable_only(model.scale, model.linear.weight):
            with model.trainable_only(model.scale):
                assert not model.linear.weight.requires_grad
            assert model.linear.weight.requires_grad
            assert not model.linear.bias.requires_grad
        assert all(p.requires_grad for p in model.parameters())

    def test_retrain_restores_flags_when_a_step_raises(self, tiny_dataset,
                                                       monkeypatch):
        dataset, _truth = tiny_dataset
        index = dataset.build_index()
        model = STTransRec(index.num_users, index.num_pois,
                           index.num_words,
                           STTransRecConfig(embedding_dim=8, seed=3))
        model.train()
        pool = [p.poi_id for p in dataset.pois_in_city("shelbyville")]
        updater = IncrementalUpdater(model, index, dataset, pool,
                                     retrain_steps=4, rng=0)
        user = sorted(dataset.users)[0]
        updater.ingest([CheckinEvent(seq=0, user_id=user,
                                     poi_id=pool[0], city="shelbyville",
                                     timestamp=1e12)])
        names = [n for n, _ in model.named_parameters()]
        calls = []
        real = updater._sample_negatives

        def flaky(rows):
            calls.append(len(rows))
            if len(calls) == 2:
                # Mid-loop, the freeze is active and discovery is whole.
                assert [n for n, _ in model.named_parameters()] == names
                assert not model.poi_embeddings.weight.requires_grad
                raise RuntimeError("sampler failed")
            return real(rows)

        monkeypatch.setattr(updater, "_sample_negatives", flaky)
        with pytest.raises(RuntimeError, match="sampler failed"):
            updater.retrain()
        assert len(calls) == 2
        assert all(p.requires_grad for p in model.parameters())
        assert [n for n, _ in model.named_parameters()] == names
        assert not model.user_embeddings.sparse_grad
        assert model.training
        assert all(p.grad is None for p in model.parameters())
