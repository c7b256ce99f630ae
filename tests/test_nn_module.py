"""Module container tests: discovery, modes, state dicts."""

import numpy as np
import pytest

from repro.nn.layers import Dropout, Linear, Sequential
from repro.nn.module import Module, Parameter


class Composite(Module):
    def __init__(self):
        super().__init__()
        self.linear = Linear(3, 2, rng=0)
        self.blocks = [Linear(2, 2, rng=1), Dropout(0.5, rng=2)]
        self.scale = Parameter(np.ones(1))
        self.buffer = np.zeros(1)  # a plain array, not a parameter


class TestDiscovery:
    def test_named_parameters_include_nested_and_lists(self):
        names = {n for n, _ in Composite().named_parameters()}
        assert "linear.weight" in names
        assert "linear.bias" in names
        assert "blocks.0.weight" in names
        assert "scale" in names
        assert "buffer" not in names

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
        for p in model.parameters():
            p.grad = np.ones_like(p.data)
        model.zero_grad()
        assert all(p.grad is None for p in model.parameters())
