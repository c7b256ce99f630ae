"""Deterministic workloads for the backend bit-identity gate.

The functions here compute exactly the quantities the backend refactor
must preserve: an nn-level forward/backward/Adam sequence and a full
data-parallel train-step run with its checkpoint arrays, in both
precision policies.  ``python -m tests.golden_backend`` (run against
the *pre-refactor* tree) froze their outputs into
``tests/data/backend_golden.npz``; ``tests/test_nn_backend.py`` re-runs
the same functions and asserts every array is bit-identical to that
frozen capture.

Nothing in this module may depend on wall clock, machine, or dict
ordering — every RNG is explicitly seeded and every batch is fixed.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Dict

import numpy as np

from repro.nn.dtypes import using_dtype
from repro.nn.layers import MLP, Embedding
from repro.nn.losses import bce_with_logits, negative_sampling_loss
from repro.nn.ops import concat
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor, softplus, stable_sigmoid

GOLDEN_PATH = Path(__file__).parent / "data" / "backend_golden.npz"

PRECISIONS = ("f64", "f32")


def _pair_rows(emb, users: np.ndarray, pois: np.ndarray) -> Tensor:
    """``[emb(users), emb(pois)]`` side by side, from one lookup."""
    rows = emb(np.concatenate([users, pois]))
    return concat([rows[:users.size], rows[users.size:]], axis=1)


def nn_case(precision: str) -> Dict[str, np.ndarray]:
    """Forward, backward, and five Adam steps on a small tower.

    Covers the ops the training hot path exercises: embedding gather,
    slicing, concat, the Linear/ReLU tower, both losses, the stable
    sigmoid/softplus kernels and Adam.

    Each batch's user and POI rows come from one lookup over the
    concatenated ids, split afterwards: its backward scatters the
    concatenated rows in one pass, the order the capture was taken in.
    """
    out: Dict[str, np.ndarray] = {}
    with using_dtype(precision):
        emb = Embedding(60, 8, std=0.05, rng=5)
        mlp = MLP(16, [12, 6], dropout=0.0, rng=7)
        rng = np.random.default_rng(11)
        users = rng.integers(0, 60, size=32)
        pois = rng.integers(0, 60, size=32)
        labels = (rng.random(32) < 0.5).astype(np.float64)

        x = _pair_rows(emb, users, pois)
        logits = mlp(x)
        loss = bce_with_logits(logits, labels)
        pos = logits[:4]
        neg = logits[4:20].reshape(4, 4)
        loss2 = negative_sampling_loss(pos, neg)
        total = loss + loss2
        total.backward()

        out["logits"] = logits.data.copy()
        out["bce_loss"] = np.asarray(loss.data).copy()
        out["ns_loss"] = np.asarray(loss2.data).copy()
        out["emb_grad"] = emb.weight.grad.copy()
        for name, p in mlp.named_parameters():
            out[f"grad.{name}"] = np.asarray(p.grad).copy()

        params = [emb.weight] + [p for _n, p in mlp.named_parameters()]
        opt = Adam(params, lr=1e-2)
        fixed = np.linspace(-4.0, 4.0, 32)
        for step in range(5):
            opt.zero_grad()
            srng = np.random.default_rng(100 + step)
            u = srng.integers(0, 60, size=32)
            v = srng.integers(0, 60, size=32)
            y = (srng.random(32) < 0.5).astype(np.float64)
            h = _pair_rows(emb, u, v)
            step_loss = bce_with_logits(mlp(h), y)
            step_loss.backward()
            opt.step()
        out["adam_emb"] = emb.weight.data.copy()
        for name, p in mlp.named_parameters():
            out[f"adam.{name}"] = p.data.copy()

        sig_in = Tensor(fixed * 12.5)
        out["stable_sigmoid"] = stable_sigmoid(sig_in.data).copy()
        out["softplus"] = softplus(sig_in.data).copy()
    return out


def _train_world():
    from repro.data.split import make_crossing_city_split
    from repro.data.synthetic import (CitySpec, SyntheticConfig,
                                      generate_dataset)

    config = SyntheticConfig(
        cities=[
            CitySpec("springfield", grid_shape=(4, 4), num_regions=2,
                     num_pois=40, num_local_users=20,
                     accessibility_skew=1.2, topic_tilt=0.8),
            CitySpec("shelbyville", grid_shape=(4, 4), num_regions=2,
                     num_pois=36, num_local_users=18,
                     accessibility_skew=1.4, topic_tilt=0.5),
        ],
        target_city="shelbyville",
        num_topics=4,
        shared_words_per_topic=6,
        city_words_per_topic=3,
        num_generic_words=8,
        generic_fraction=0.15,
        words_per_poi=5,
        city_dependent_fraction=0.4,
        num_crossing_users=10,
        checkins_per_local_user=15,
        crossing_target_checkins=4,
        drift=0.25,
        trips_per_user=4,
        preference_concentration=0.25,
        seed=3,
    )
    dataset, _truth = generate_dataset(config)
    return make_crossing_city_split(dataset, "shelbyville")


def train_step_case(precision: str) -> Dict[str, np.ndarray]:
    """Ten single-process train steps + the checkpoint arrays they save."""
    from repro.core.checkpoint import save_checkpoint
    from repro.core.config import STTransRecConfig
    from repro.parallel.data_parallel import DataParallelTrainer
    from repro.perf.config import PerfConfig

    split = _train_world()
    config = STTransRecConfig(embedding_dim=8, batch_size=32, seed=3)
    trainer = DataParallelTrainer(split, config, num_workers=1,
                                  perf=PerfConfig(precision=precision))
    out: Dict[str, np.ndarray] = {}
    try:
        losses = trainer.run_steps(10)
        out["losses"] = np.asarray(losses, dtype=np.float64)
        for name, p in trainer.model.named_parameters():
            out[f"param.{name}"] = p.data.copy()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "golden.ckpt.npz"
            save_checkpoint(trainer.model, trainer._master.index, path)
            with np.load(path, allow_pickle=False) as archive:
                for key in sorted(archive.files):
                    out[f"ckpt.{key}"] = np.array(archive[key])
    finally:
        trainer.close()
    return out


def compute_all() -> Dict[str, np.ndarray]:
    """Every golden array, keyed ``<case>/<precision>/<name>``."""
    arrays: Dict[str, np.ndarray] = {}
    for precision in PRECISIONS:
        for case, fn in (("nn", nn_case), ("train", train_step_case)):
            for name, value in fn(precision).items():
                arrays[f"{case}/{precision}/{name}"] = value
    return arrays


def main() -> None:
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    arrays = compute_all()
    np.savez_compressed(GOLDEN_PATH, **arrays)
    print(f"wrote {GOLDEN_PATH} ({len(arrays)} arrays)")


if __name__ == "__main__":
    main()
