"""Gradient-averaging correctness of the data-parallel trainer.

Synchronous data parallelism must apply exactly the mean of the worker
gradients — this is what makes W-worker training mathematically
equivalent to large-batch single-process training.  These tests verify
the all-reduce arithmetic directly on the master, without IPC, and that
a replica's tape-free step gives the autograd tape's gradient bytes.
"""

import numpy as np
import pytest

from repro.core.config import STTransRecConfig
from repro.core.model import STTransRec
from repro.nn.dtypes import using_dtype
from repro.parallel.data_parallel import (
    DataParallelTrainer,
    _replica_grads,
    _reseed_dropout,
)

from tests.oracle import Tensor, bce_with_logits, interaction_logits
from tests.test_core_trainer import fast_config


def small_model(seed=0):
    config = STTransRecConfig(embedding_dim=4, hidden_sizes=[4], seed=seed)
    return STTransRec(num_users=5, num_pois=6, num_words=4, config=config)


def batch_gradients(model, users, pois, labels):
    """Gradient dict for one batch, leaving the model unchanged."""
    model.zero_grad()
    loss = bce_with_logits(interaction_logits(model, users, pois), labels)
    loss.backward()
    return {name: p.grad.copy() if p.grad is not None
            else np.zeros_like(p.data)
            for name, p in model.named_parameters()}


def tape_replica_grads(model, users, pois, labels, out):
    """A replica's step through the autograd tape: the reference for the
    trainer's tape-free ``_replica_grads``, with its signature.  Writes
    each parameter's gradient into its part of the flat vector ``out``,
    in parameter order (zeros where the tape did not reach)."""
    model.zero_grad()
    loss = bce_with_logits(interaction_logits(model, users, pois), labels)
    loss.backward()
    start = 0
    for p in model.parameters():
        part = out[start:start + p.data.size]
        part[...] = 0.0 if p.grad is None else p.grad.reshape(-1)
        start += p.data.size
    return loss.item()


class TestGradientAveraging:
    def test_mean_of_worker_grads_equals_fullbatch_grad(self):
        """mean(grad(batch_1), grad(batch_2)) == grad(batch_1 ∪ batch_2)
        when the batches are equal-sized (BCE means per batch)."""
        model = small_model()
        model.eval()  # disable dropout for exact comparison
        rng = np.random.default_rng(0)
        users = rng.integers(0, 5, size=8)
        pois = rng.integers(0, 6, size=8)
        labels = rng.integers(0, 2, size=8).astype(float)

        g_half1 = batch_gradients(model, users[:4], pois[:4], labels[:4])
        g_half2 = batch_gradients(model, users[4:], pois[4:], labels[4:])
        g_full = batch_gradients(model, users, pois, labels)

        for name in g_full:
            averaged = (g_half1[name] + g_half2[name]) / 2.0
            np.testing.assert_allclose(averaged, g_full[name], atol=1e-10)

    def test_replicas_from_same_state_agree(self):
        """Two replicas loaded from one state dict produce identical
        gradients on identical batches."""
        a, b = small_model(seed=0), small_model(seed=1)
        b.load_state_dict(a.state_dict())
        a.eval()
        b.eval()
        users = np.array([0, 1, 2])
        pois = np.array([3, 4, 5])
        labels = np.array([1.0, 0.0, 1.0])
        g_a = batch_gradients(a, users, pois, labels)
        g_b = batch_gradients(b, users, pois, labels)
        for name in g_a:
            np.testing.assert_allclose(g_a[name], g_b[name], atol=1e-12)


class TestReplicaStep:
    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    @pytest.mark.parametrize("features", ["concat", "concat_product"])
    @pytest.mark.parametrize("precision", ["f64", "f32"])
    def test_flat_vector_and_loss_match_the_tape(self, precision, features,
                                                 dropout):
        """Packed into the transport's flat vector, the tape-free step's
        gradient and its loss have the tape's bytes; both draw the same
        dropout masks.  Repeated ids exercise the scatters' order."""
        with using_dtype(precision):
            config = STTransRecConfig(
                embedding_dim=4, hidden_sizes=[6, 3], dropout=dropout,
                interaction_features=features, seed=2)
            model = STTransRec(num_users=7, num_pois=9, num_words=5,
                               config=config)
            model.train()
            layout = model.parameter_store().layout
            rng = np.random.default_rng(3)
            users = rng.integers(0, 7, size=24)
            pois = rng.integers(0, 9, size=24)
            labels = (rng.random(24) < 0.3).astype(np.float64)
            runs = []
            for step in (_replica_grads, tape_replica_grads):
                _reseed_dropout(model, 11, 4)
                flat = np.full(layout.size, np.nan, dtype=layout.dtype)
                loss = step(model, users, pois, labels, flat)
                runs.append((flat, loss,
                             model.training_rng.bit_generator.state))
        (flat, loss, rng_after), (ref_flat, ref_loss, ref_rng_after) = runs
        assert flat.dtype == ref_flat.dtype == layout.dtype
        assert flat.tobytes() == ref_flat.tobytes()
        assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
        assert rng_after == ref_rng_after
        word = {slot.name: slot for slot in layout.slots}[
            "word_embeddings.weight"]
        assert not word.view(flat).any() and flat.any()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_training_never_runs_the_tape(self, tiny_split, monkeypatch,
                                          workers):
        """A worker that reached the tape would crash and be respawned,
        which the fault stats would show."""
        def tape(*args, **kwargs):
            raise AssertionError("Tensor.backward called")

        monkeypatch.setattr(Tensor, "backward", tape)
        with DataParallelTrainer(tiny_split, fast_config(dropout=0.3),
                                 num_workers=workers) as trainer:
            losses = trainer.run_steps(4)
            faults = trainer.last_fault_stats
        assert len(losses) == 4 and np.isfinite(losses).all()
        assert faults.total_faults == 0
