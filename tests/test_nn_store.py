"""The parameter store: every parameter a view of one flat buffer, kept
so through loads, copies and a second optimizer."""

import copy
import pickle

import numpy as np
import pytest

from repro.core.checkpoint import load_checkpoint, save_checkpoint
from repro.core.config import STTransRecConfig
from repro.core.model import STTransRec
from repro.data.vocabulary import DatasetIndex
from repro.nn.module import Parameter
from repro.nn.optim import Adam
from repro.nn.store import ParameterStore
from repro.parallel.data_parallel import DataParallelTrainer

from tests.test_core_trainer import fast_config


def small_model(seed=0):
    config = STTransRecConfig(embedding_dim=4, hidden_sizes=[4], seed=seed)
    return STTransRec(num_users=5, num_pois=6, num_words=4, config=config)


def assert_packed(model):
    """Every parameter's data is a view of its store's one buffer, at
    its slot, in parameter order.  Reads the store the parameters point
    at rather than asking for one, which would re-pack a stale store."""
    params = model.parameters()
    store = params[0]._store
    assert store is not None
    assert len(store.params) == len(params)
    base = store.data.__array_interface__["data"][0]
    for p, q, slot in zip(params, store.params, store.layout.slots):
        assert p is q and p._store is store
        assert p.data.base is store.data
        assert p.data.__array_interface__["data"][0] == base + slot.offset
        assert p.data.shape == slot.shape
    assert store.layout.size == store.data.size == \
        sum(p.data.size for p in params)
    return store


def step_all(optimizer, value=1.0):
    for p in optimizer.params:
        p.grad = np.full_like(p.data, value)
    optimizer.step()


class TestPacking:
    def test_construction_packs_the_model(self):
        store = assert_packed(small_model())
        assert store.grad.shape == store.data.shape
        for grad, slot in zip(store.grads, store.layout.slots):
            assert grad.base is store.grad and grad.shape == slot.shape

    def test_optimizers_share_the_model_store(self):
        model = small_model()
        store = assert_packed(model)
        data = store.data
        first = Adam(model.parameters())
        second = Adam(model.parameters(), lr=0.5)
        assert first.store is second.store is store
        assert store.data is data           # not packed again
        step_all(second)
        assert_packed(model)

    def test_load_state_dict_keeps_the_views(self):
        model, other = small_model(0), small_model(1)
        store = assert_packed(model)
        model.load_state_dict(other.state_dict())
        assert assert_packed(model) is store
        np.testing.assert_array_equal(store.data,
                                      other.parameter_store().data)

    def test_load_checkpoint_returns_a_packed_model(self, tmp_path):
        model = small_model()
        index = DatasetIndex(user_ids=list(range(5)),
                             poi_ids=list(range(6)),
                             words=["a", "b", "c", "d"])
        path = tmp_path / "ckpt.npz"
        save_checkpoint(model, index, path)
        for precision in (None, "f32"):
            loaded, _ = load_checkpoint(path, precision=precision)
            store = assert_packed(loaded)
            if precision is None:
                assert store.data.tobytes() == \
                    model.parameter_store().data.tobytes()
            else:
                assert store.data.dtype == np.float32

    def test_data_parallel_resume_keeps_the_views(self, tiny_split,
                                                  tmp_path):
        path = tmp_path / "dp.npz"
        with DataParallelTrainer(tiny_split, fast_config()) as trainer:
            trainer.run_steps(2)
            trainer.save(path)
            saved = trainer.optimizer.store.data.copy()
        with DataParallelTrainer(tiny_split, fast_config()) as resumed:
            store = assert_packed(resumed.model)
            resumed.resume(path)
            assert assert_packed(resumed.model) is store
            assert resumed.optimizer.store is store
            assert store.data.tobytes() == saved.tobytes()

    def test_mixed_dtypes_name_the_parameters(self):
        with pytest.raises(ValueError, match="b: float32"):
            ParameterStore([("a", Parameter(np.ones(2))),
                            ("b", Parameter(np.ones(2, np.float32)))])


class TestCopies:
    @pytest.mark.parametrize("how", ["deepcopy", "pickle"])
    def test_a_copy_steps_its_own_buffer(self, how):
        model = small_model()
        original = assert_packed(model)
        before = original.data.copy()
        clone = (copy.deepcopy(model) if how == "deepcopy"
                 else pickle.loads(pickle.dumps(model)))
        optimizer = Adam(clone.parameters(), lr=0.1)
        step_all(optimizer)
        store = assert_packed(clone)
        assert store is optimizer.store
        assert store is not original
        assert not np.shares_memory(store.data, original.data)
        assert store.data.tobytes() != before.tobytes()
        assert assert_packed(model) is original
        assert original.data.tobytes() == before.tobytes()

    def test_a_stale_store_is_packed_again_before_a_step(self):
        model = small_model()
        optimizer = Adam(model.parameters(), lr=0.1)
        store = optimizer.store
        table = model.user_embeddings.weight
        alone = Adam([table], lr=0.1)       # takes the table away
        assert table.data.base is alone.store.data
        step_all(alone)
        moved = table.data.copy()
        step_all(optimizer, value=0.0)      # re-packs, then steps
        assert assert_packed(model) is store
        np.testing.assert_array_equal(table.data, moved)

    def test_a_reshaped_parameter_is_refused(self):
        model = small_model()
        optimizer = Adam(model.parameters())
        model.poi_bias.weight.data = np.zeros(3)
        with pytest.raises(ValueError, match="poi_bias.weight"):
            optimizer.step()
