"""Checkpoint save/load tests."""

import numpy as np
import pytest

from repro.core.checkpoint import load_checkpoint, save_checkpoint
from repro.core.recommend import Recommender
from repro.core.trainer import STTransRecTrainer

from tests.test_core_trainer import fast_config


@pytest.fixture(scope="module")
def trained(tiny_split):
    trainer = STTransRecTrainer(tiny_split, fast_config())
    trainer.fit()
    return trainer


class TestRoundTrip:
    def test_parameters_identical_after_reload(self, trained, tmp_path):
        path = tmp_path / "model.npz"
        save_checkpoint(trained.model, trained.index, path)
        model, index = load_checkpoint(path)
        for (name, original), (_n2, restored) in zip(
                trained.model.named_parameters(),
                model.named_parameters()):
            np.testing.assert_array_equal(original.data, restored.data)

    def test_index_identical(self, trained, tmp_path):
        path = tmp_path / "model.npz"
        save_checkpoint(trained.model, trained.index, path)
        _model, index = load_checkpoint(path)
        assert index.users.keys() == trained.index.users.keys()
        assert index.pois.keys() == trained.index.pois.keys()
        assert index.words.keys() == trained.index.words.keys()

    def test_config_round_trips(self, trained, tmp_path):
        path = tmp_path / "model.npz"
        save_checkpoint(trained.model, trained.index, path)
        model, _ = load_checkpoint(path)
        assert model.config == trained.model.config

    def test_restored_model_scores_identically(self, trained, tmp_path,
                                               tiny_split):
        path = tmp_path / "model.npz"
        save_checkpoint(trained.model, trained.index, path)
        model, index = load_checkpoint(path)
        original = Recommender(trained.model, trained.index,
                               tiny_split.train, "shelbyville")
        restored = Recommender(model, index, tiny_split.train,
                               "shelbyville")
        user = tiny_split.test_users[0]
        np.testing.assert_allclose(
            [s for _, s in original.recommend(user, k=10)],
            [s for _, s in restored.recommend(user, k=10)],
        )

    def test_model_in_eval_mode(self, trained, tmp_path):
        path = tmp_path / "model.npz"
        save_checkpoint(trained.model, trained.index, path)
        model, _ = load_checkpoint(path)
        assert not model.training

    def test_creates_parent_dirs(self, trained, tmp_path):
        path = tmp_path / "deep" / "dir" / "model.npz"
        save_checkpoint(trained.model, trained.index, path)
        assert path.exists()


class TestErrors:
    def test_non_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "random.npz"
        np.savez(path, junk=np.zeros(3))
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_tampered_format_named_in_error(self, trained, tmp_path):
        """A manifest with the wrong format version is rejected with a
        message naming both the found and the expected format."""
        import json

        path = tmp_path / "model.npz"
        save_checkpoint(trained.model, trained.index, path)
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        manifest = json.loads(bytes(arrays["__manifest__"]).decode("utf-8"))
        manifest["format"] = "repro.checkpoint.v999"
        arrays["__manifest__"] = np.frombuffer(
            json.dumps(manifest).encode("utf-8"), dtype=np.uint8)
        np.savez(path, **arrays)

        with pytest.raises(ValueError) as excinfo:
            load_checkpoint(path)
        message = str(excinfo.value)
        assert "repro.checkpoint.v999" in message
        assert "repro.checkpoint.v1" in message

    def test_missing_format_field_rejected(self, trained, tmp_path):
        import json

        path = tmp_path / "model.npz"
        save_checkpoint(trained.model, trained.index, path)
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        manifest = json.loads(bytes(arrays["__manifest__"]).decode("utf-8"))
        del manifest["format"]
        arrays["__manifest__"] = np.frombuffer(
            json.dumps(manifest).encode("utf-8"), dtype=np.uint8)
        np.savez(path, **arrays)

        with pytest.raises(ValueError, match="expected"):
            load_checkpoint(path)


class TestSuffixNormalization:
    def test_suffixless_path_round_trips(self, trained, tmp_path):
        """save_checkpoint("ckpt") writes ckpt.npz (np.savez appends the
        suffix); load_checkpoint("ckpt") must open the same file."""
        path = tmp_path / "ckpt"
        save_checkpoint(trained.model, trained.index, path)
        assert (tmp_path / "ckpt.npz").exists()
        model, _index = load_checkpoint(path)
        for (name, original), (_n2, restored) in zip(
                trained.model.named_parameters(),
                model.named_parameters()):
            np.testing.assert_array_equal(original.data, restored.data)

    def test_foreign_suffix_normalized(self, trained, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(trained.model, trained.index, path)
        assert (tmp_path / "model.ckpt.npz").exists()
        load_checkpoint(path)

    def test_explicit_npz_still_works(self, trained, tmp_path):
        path = tmp_path / "model.npz"
        save_checkpoint(trained.model, trained.index, path)
        assert path.exists()
        load_checkpoint(path)


class TestFormatV2:
    def _training_state(self, trained):
        from repro.core.checkpoint import TrainingState

        params = list(trained.model.parameters())
        return TrainingState(
            epochs_completed=3,
            global_step=41,
            optimizer_state={
                "step_count": 41,
                "m": [np.full_like(p.data, 0.5) for p in params],
                "v": [np.full_like(p.data, 0.25) for p in params],
            },
            rng_state=np.random.default_rng(9).bit_generator.state,
        )

    def test_v2_round_trips_training_state(self, trained, tmp_path):
        from repro.core.checkpoint import load_training_checkpoint

        path = tmp_path / "v2.npz"
        state = self._training_state(trained)
        save_checkpoint(trained.model, trained.index, path,
                        training_state=state)
        _model, _index, restored = load_training_checkpoint(path)
        assert restored.epochs_completed == 3
        assert restored.global_step == 41
        assert restored.optimizer_state["step_count"] == 41
        for saved, loaded in zip(state.optimizer_state["m"],
                                 restored.optimizer_state["m"]):
            np.testing.assert_array_equal(saved, loaded)
        assert restored.rng_state == state.rng_state

    def test_v2_loads_through_plain_load_checkpoint(self, trained,
                                                    tmp_path):
        """A serving-only reader ignores the training state cleanly."""
        path = tmp_path / "v2.npz"
        save_checkpoint(trained.model, trained.index, path,
                        training_state=self._training_state(trained))
        model, _index = load_checkpoint(path)
        for (name, original), (_n2, restored) in zip(
                trained.model.named_parameters(),
                model.named_parameters()):
            np.testing.assert_array_equal(original.data, restored.data)

    def test_v1_file_has_no_training_state(self, trained, tmp_path):
        from repro.core.checkpoint import load_training_checkpoint

        path = tmp_path / "v1.npz"
        save_checkpoint(trained.model, trained.index, path)
        _model, _index, state = load_training_checkpoint(path)
        assert state is None

    def test_save_replaces_atomically(self, trained, tmp_path):
        """No .tmp leftovers, and the second save fully replaces the
        first."""
        path = tmp_path / "atomic.npz"
        save_checkpoint(trained.model, trained.index, path)
        save_checkpoint(trained.model, trained.index, path,
                        training_state=self._training_state(trained))
        leftovers = list(tmp_path.glob("*.tmp*"))
        assert leftovers == []
        from repro.core.checkpoint import load_training_checkpoint

        _m, _i, state = load_training_checkpoint(path)
        assert state is not None


def _rewrite_config(path, **fields):
    """Set manifest config ``fields`` in a saved checkpoint."""
    import json

    with np.load(path) as archive:
        arrays = {name: archive[name] for name in archive.files}
    manifest = json.loads(bytes(arrays["__manifest__"]).decode("utf-8"))
    manifest["config"].update(fields)
    arrays["__manifest__"] = np.frombuffer(
        json.dumps(manifest).encode("utf-8"), dtype=np.uint8)
    np.savez(path, **arrays)


class TestRemovedTowerDecay:
    """Files written while the config had ``tower_weight_decay`` store
    it (null unless set): null loads, a value is refused."""

    def test_null_field_serves_and_resumes(self, tiny_split, tmp_path):
        from repro.parallel.data_parallel import DataParallelTrainer

        path, legacy = tmp_path / "v3.npz", tmp_path / "legacy.npz"
        with DataParallelTrainer(tiny_split, fast_config()) as trainer:
            trainer.train(epochs=1, checkpoint_every=1,
                          checkpoint_path=path)
        legacy.write_bytes(path.read_bytes())
        _rewrite_config(legacy, tower_weight_decay=None)

        model, index = load_checkpoint(legacy)
        recommender = Recommender(model, index, tiny_split.train,
                                  tiny_split.target_city)
        user = tiny_split.test_users[0]
        assert len(recommender.recommend(user, k=3)) == 3

        finals = []
        for source in (path, legacy):
            with DataParallelTrainer(tiny_split, fast_config()) as trainer:
                trainer.train(epochs=2, resume_from=source)
                finals.append(trainer.optimizer.store.data.tobytes())
        assert finals[0] == finals[1]

    def test_set_field_is_refused(self, trained, tmp_path):
        path = tmp_path / "decay.npz"
        save_checkpoint(trained.model, trained.index, path)
        _rewrite_config(path, tower_weight_decay=1e-4)
        with pytest.raises(ValueError, match="tower_weight_decay=0.0001"):
            load_checkpoint(path)
