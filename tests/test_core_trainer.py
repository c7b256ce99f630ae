"""Joint trainer tests on the tiny dataset."""

import dataclasses

import numpy as np
import pytest

from repro.core.config import STTransRecConfig
from repro.core.trainer import EpochStats, STTransRecTrainer, _Grads
from repro.nn.backend import ArrayBackend
from repro.nn.dtypes import using_dtype
from tests.oracle import (
    Tensor,
    assert_within_band,
    bce_with_logits,
    forward,
    interaction_logits,
    mmd_between_embeddings,
    poi_embedding_batch,
    skipgram_batch_loss,
)


def fast_config(**overrides):
    params = dict(
        embedding_dim=8,
        hidden_sizes=[8],
        epochs=2,
        pretrain_epochs=2,
        mmd_batch_size=16,
        batch_size=32,
        grid_shape=(4, 4),
        segmentation_threshold=0.2,
        seed=0,
    )
    params.update(overrides)
    return STTransRecConfig(**params)


@pytest.fixture(scope="module")
def trained(tiny_split):
    trainer = STTransRecTrainer(tiny_split, fast_config())
    result = trainer.fit()
    return trainer, result


class TestConstruction:
    def test_components_built(self, tiny_split):
        trainer = STTransRecTrainer(tiny_split, fast_config())
        assert trainer.source_cities == ["springfield"]
        assert len(trainer.source_interactions) == 1
        assert trainer.source_mmd_pool.size > 0
        assert trainer.target_mmd_pool.size > 0
        assert "shelbyville" in trainer.segmentations

    def test_mmd_pool_contains_resampled_draws(self, tiny_split):
        with_rs = STTransRecTrainer(tiny_split,
                                    fast_config(resample_alpha=1.0))
        without_rs = STTransRecTrainer(tiny_split,
                                       fast_config(resample_alpha=0.0))
        assert len(with_rs.target_mmd_pool) >= len(without_rs.target_mmd_pool)

    def test_pool_indices_valid(self, tiny_split):
        trainer = STTransRecTrainer(tiny_split, fast_config())
        assert trainer.source_mmd_pool.max() < trainer.index.num_pois
        assert trainer.source_mmd_pool.min() >= 0

    def test_mmd_pools_are_city_pure(self, tiny_split):
        """Source pool holds only source-city POIs; target pool only
        target-city POIs — mixing would corrupt the Eq. 10 estimate."""
        trainer = STTransRecTrainer(tiny_split, fast_config())
        city_of = {
            trainer.index.pois.index_of(p.poi_id): p.city
            for p in tiny_split.train.pois.values()
        }
        assert all(city_of[int(i)] == "springfield"
                   for i in trainer.source_mmd_pool)
        assert all(city_of[int(i)] == "shelbyville"
                   for i in trainer.target_mmd_pool)

    def test_pool_frequency_tracks_checkins_plus_resampling(self,
                                                            tiny_split):
        """Without resampling the pool is exactly the check-in multiset."""
        trainer = STTransRecTrainer(tiny_split,
                                    fast_config(resample_alpha=0.0))
        from collections import Counter
        pool_counts = Counter(int(i) for i in trainer.target_mmd_pool)
        checkin_counts = Counter(
            trainer.index.pois.index_of(r.poi_id)
            for r in tiny_split.train.checkins_in_city("shelbyville")
        )
        assert pool_counts == checkin_counts


class TestTraining:
    def test_history_length(self, trained):
        _trainer, result = trained
        assert result.epochs == 2
        assert np.isfinite(result.final_loss)

    def test_loss_components_tracked(self, trained):
        _trainer, result = trained
        stats = result.history[-1]
        assert stats.interaction_source > 0
        assert stats.interaction_target > 0
        assert stats.context_source > 0
        assert stats.mmd >= 0 or np.isfinite(stats.mmd)

    def test_interaction_loss_decreases(self, tiny_split):
        trainer = STTransRecTrainer(tiny_split, fast_config(epochs=6))
        result = trainer.fit()
        first = result.history[0].interaction_source
        last = result.history[-1].interaction_source
        assert last < first

    def test_model_in_eval_mode_after_fit(self, trained):
        trainer, _result = trained
        assert not trainer.model.training

    def test_deterministic_given_seed(self, tiny_split):
        a = STTransRecTrainer(tiny_split, fast_config())
        b = STTransRecTrainer(tiny_split, fast_config())
        a.fit()
        b.fit()
        np.testing.assert_array_equal(a.model.poi_embeddings.weight.data,
                                      b.model.poi_embeddings.weight.data)


class TestVariantFlags:
    def test_no_text_skips_context(self, tiny_split):
        trainer = STTransRecTrainer(tiny_split, fast_config(use_text=False))
        result = trainer.fit()
        assert result.history[-1].context_source == 0.0
        assert not hasattr(trainer, "source_contexts")

    def test_no_mmd_skips_transfer(self, tiny_split):
        trainer = STTransRecTrainer(tiny_split, fast_config(use_mmd=False))
        result = trainer.fit()
        assert result.history[-1].mmd == 0.0

    def test_anchor_zero_supported(self, tiny_split):
        trainer = STTransRecTrainer(tiny_split, fast_config(user_anchor=0.0))
        trainer.fit()

    def test_multi_kernel_mmd_supported(self, tiny_split):
        trainer = STTransRecTrainer(tiny_split,
                                    fast_config(mmd_kernel="multi"))
        result = trainer.fit()
        assert result.history[-1].mmd >= 0.0 or True  # trained, finite
        from repro.transfer.kernels import MultiGaussianKernel
        assert isinstance(trainer._kernel, MultiGaussianKernel)

    def test_linear_estimator_supported(self, tiny_split):
        trainer = STTransRecTrainer(tiny_split,
                                    fast_config(mmd_estimator="linear"))
        trainer.fit()


class TestEarlyStopping:
    def test_stops_when_loss_plateaus(self, tiny_split):
        # An enormous min_loss_delta means nothing after the first epoch
        # ever "improves", so training stops after 1 + patience epochs.
        trainer = STTransRecTrainer(
            tiny_split,
            fast_config(epochs=10, patience=2, min_loss_delta=1e9),
        )
        result = trainer.fit()
        assert result.epochs == 3

    def test_runs_full_budget_when_improving(self, tiny_split):
        trainer = STTransRecTrainer(
            tiny_split,
            fast_config(epochs=3, patience=3, min_loss_delta=0.0),
        )
        result = trainer.fit()
        assert result.epochs == 3

    def test_disabled_by_default(self, tiny_split):
        trainer = STTransRecTrainer(tiny_split, fast_config(epochs=3))
        assert trainer.config.patience is None
        assert trainer.fit().epochs == 3

    def test_invalid_patience_rejected(self):
        import pytest as _pytest
        with _pytest.raises(ValueError):
            fast_config(patience=0)


class TestEpochCallback:
    def test_called_once_per_epoch(self, tiny_split):
        trainer = STTransRecTrainer(tiny_split, fast_config(epochs=3))
        seen = []
        trainer.fit(epoch_callback=lambda tr, stats: seen.append(
            (tr is trainer, stats.epoch)))
        assert seen == [(True, 0), (True, 1), (True, 2)]

    def test_callback_exception_propagates(self, tiny_split):
        trainer = STTransRecTrainer(tiny_split, fast_config(epochs=2))

        def boom(tr, stats):
            raise RuntimeError("observer failed")

        import pytest as _pytest
        with _pytest.raises(RuntimeError, match="observer failed"):
            trainer.fit(epoch_callback=boom)


class TestPretraining:
    def test_user_warm_start_near_profile_mean(self, tiny_split):
        trainer = STTransRecTrainer(tiny_split, fast_config())
        trainer.pretrain()
        user_id = next(iter(tiny_split.train.users))
        u = trainer.index.users.index_of(user_id)
        rows = [trainer.index.pois.index_of(r.poi_id)
                for r in tiny_split.train.user_profile(user_id)]
        expected = trainer.model.poi_embeddings.weight.data[rows].mean(axis=0)
        np.testing.assert_allclose(
            trainer.model.user_embeddings.weight.data[u], expected
        )

    def test_pretrain_moves_poi_embeddings(self, tiny_split):
        trainer = STTransRecTrainer(tiny_split, fast_config())
        before = trainer.model.poi_embeddings.weight.data.copy()
        trainer.pretrain()
        assert not np.allclose(before,
                               trainer.model.poi_embeddings.weight.data)

    @pytest.mark.parametrize("use_text", [True, False])
    def test_pretrain_then_epoch_trains_like_fit(self, tiny_split,
                                                 use_text):
        """``pretrain()`` then ``train_epoch()`` uses the kernel
        bandwidth ``fit`` uses, sized on the pre-trained embeddings
        rather than the random init, and trains the same first epoch."""
        config = fast_config(use_text=use_text)
        fitted = STTransRecTrainer(tiny_split, config)
        seen = []
        first = fitted.fit(epochs=1, epoch_callback=lambda t, _stats:
                           seen.append(t._kernel.bandwidth)).history[0]
        manual = STTransRecTrainer(tiny_split, config)
        provisional = manual._kernel.bandwidth
        manual.pretrain()
        assert manual._kernel.bandwidth == seen[0] != provisional
        stats = manual.train_epoch(0)
        assert dataclasses.replace(stats, seconds=0.0) == \
            dataclasses.replace(first, seconds=0.0)


# ----------------------------------------------------------------------
# The tape-free joint step against the autograd tape
# ----------------------------------------------------------------------
def full_graph_step(trainer, users, pois, labels, ctx):
    """One joint step (Eq. 3) through the autograd tape, as the trainer
    ran it before its steps left the tape.  Returns the loss components
    the epoch stats average: ``(interaction, context, mmd, total)``,
    ``None`` for a term the step did not have."""
    cfg = trainer.config
    model = trainer.model
    trainer.optimizer.zero_grad()
    loss = bce_with_logits(interaction_logits(model, users, pois), labels)
    interaction = loss.item()
    if cfg.user_anchor > 0:
        unique_users = np.unique(users)
        diff = forward(model.user_embeddings, unique_users) \
            - Tensor(trainer._anchors[unique_users])
        loss = loss + (diff * diff).mean() * cfg.user_anchor
    context = mmd_value = None
    if ctx is not None:
        ctx_loss = skipgram_batch_loss(model.poi_embeddings,
                                       model.word_embeddings, *ctx)
        context = ctx_loss.item()
        loss = loss + ctx_loss * cfg.lambda_text
    if cfg.use_mmd and cfg.lambda_mmd > 0:
        src_idx = trainer._sample_pool(trainer.source_mmd_pool,
                                       cfg.mmd_batch_size)
        tgt_idx = trainer._sample_pool(trainer.target_mmd_pool,
                                       cfg.mmd_batch_size)
        mmd = mmd_between_embeddings(
            poi_embedding_batch(model, src_idx),
            poi_embedding_batch(model, tgt_idx),
            kernel=trainer._kernel, estimator=cfg.mmd_estimator)
        mmd_value = mmd.item()
        loss = loss + mmd * cfg.lambda_mmd
    total = loss.item()
    loss.backward()
    trainer.optimizer.step()
    return interaction, context, mmd_value, total


def full_graph_epoch(trainer, epoch):
    """``train_epoch`` over :func:`full_graph_step`; ``seconds`` is 0."""
    cfg = trainer.config
    trainer.model.train()
    sums = dict.fromkeys(("is", "it", "cs", "ct", "mmd", "total"), 0.0)
    counts = dict.fromkeys(("is", "it", "cs", "ct", "mmd", "total"), 0)
    contexts = {
        side: (trainer._cycling_context(sampler) if cfg.use_text
               else iter(()))
        for side, sampler in (
            ("source", getattr(trainer, "source_contexts", None)),
            ("target", getattr(trainer, "target_contexts", None)))}
    if cfg.user_anchor > 0 and trainer._anchors is None:
        trainer._refresh_anchors()
    for name, batch in trainer._interaction_batches():
        ctx = next(contexts[name], None) if cfg.use_text else None
        values = full_graph_step(trainer, *batch, ctx)
        side = "t" if name == "target" else "s"
        for key, value in zip(("i" + side, "c" + side, "mmd", "total"),
                              values):
            if value is not None:
                sums[key] += value
                counts[key] += 1

    def avg(key):
        return sums[key] / counts[key] if counts[key] else 0.0

    return EpochStats(epoch=epoch, total=avg("total"),
                      interaction_source=avg("is"),
                      interaction_target=avg("it"),
                      context_source=avg("cs"), context_target=avg("ct"),
                      mmd=avg("mmd"), seconds=0.0)


def full_graph_pretrain(trainer, epochs):
    """``pretrain`` through the tape, with its per-check-in warm start,
    then the kernel bandwidth re-estimated on the pre-trained scale."""
    if trainer.config.use_text:
        full_graph_skipgram(trainer, epochs)
    if trainer.config.mmd_bandwidth is None:
        trainer._kernel = trainer._build_kernel()


def full_graph_skipgram(trainer, epochs):
    """The skipgram epochs and the user warm start, through the tape."""
    cfg = trainer.config
    model = trainer.model
    for _ in range(epochs):
        for sampler in (trainer.source_contexts, trainer.target_contexts):
            for batch in sampler.epoch(cfg.batch_size):
                trainer.optimizer.zero_grad()
                skipgram_batch_loss(model.poi_embeddings,
                                    model.word_embeddings,
                                    *batch).backward()
                trainer.optimizer.step()
    poi_emb = model.poi_embeddings.weight.data
    user_emb = model.user_embeddings.weight.data
    for user_id in trainer.train_data.users:
        u = trainer.index.users.get(user_id)
        if u < 0:
            continue
        rows = [trainer.index.pois.index_of(r.poi_id)
                for r in trainer.train_data.user_profile(user_id)]
        if rows:
            user_emb[u] = poi_emb[rows].mean(axis=0)


def _stats_fields(stats):
    fields = dataclasses.asdict(stats)
    del fields["seconds"]              # wall clock
    return fields


def assert_same_training(split, config):
    """pretrain(1) then two epochs, tape-free and through the tape:
    every parameter, Adam moment and epoch-stats field within the
    tape band of the model's dtype (``tests/oracle/band.py``), and the
    same step count."""
    got = STTransRecTrainer(split, config)
    ref = STTransRecTrainer(split, config)
    got.pretrain(1)
    full_graph_pretrain(ref, 1)
    got._refresh_anchors()
    ref._refresh_anchors()
    dtype = got.model.poi_embeddings.weight.data.dtype
    for epoch in range(2):
        a = _stats_fields(got.train_epoch(epoch))
        b = _stats_fields(full_graph_epoch(ref, epoch))
        assert a.keys() == b.keys()
        for key in a:
            assert_within_band(np.float64(a[key]), np.float64(b[key]),
                               f"epoch {epoch} {key}", dtype=dtype)
    for (name, p), (_, q) in zip(got.model.named_parameters(),
                                 ref.model.named_parameters()):
        assert_within_band(p.data, q.data, name)
    a, b = got.optimizer.state_dict(), ref.optimizer.state_dict()
    assert a["step_count"] == b["step_count"] > 0
    for key in ("m", "v"):
        for x, y in zip(a[key], b[key]):
            assert_within_band(x, y, key)
    return got


def matrix_config(**overrides):
    params = dict(hidden_sizes=[8, 4], weight_decay=1e-3,
                  lambda_text=0.5, lambda_mmd=0.7, dropout=0.2)
    params.update(overrides)
    return fast_config(**params)


class TestTapeFreeStep:
    @pytest.mark.parametrize("kernel", ["gaussian", "multi"])
    @pytest.mark.parametrize("estimator",
                             ["quadratic", "unbiased", "linear"])
    @pytest.mark.parametrize("features", ["concat", "concat_product"])
    @pytest.mark.parametrize("precision", ["f64", "f32"])
    def test_configuration_matrix_bit_identical(self, tiny_split, precision,
                                                features, estimator,
                                                kernel):
        """Every configuration trains as the tape does, within the band
        (the fused scatters, Grams and negatives reorder additions, so
        the test ids keep their name but not their bytes)."""
        config = matrix_config(interaction_features=features,
                               mmd_estimator=estimator, mmd_kernel=kernel)
        with using_dtype(precision):
            trainer = assert_same_training(tiny_split, config)
        assert trainer.model.poi_embeddings.weight.data.dtype == \
            np.dtype(np.float64 if precision == "f64" else np.float32)

    @pytest.mark.parametrize("overrides", [
        dict(use_text=False), dict(use_mmd=False), dict(user_anchor=0.0),
        dict(dropout=0.0)],
        ids=["no-text", "no-mmd", "no-anchor", "no-dropout"])
    @pytest.mark.parametrize("precision", ["f64", "f32"])
    def test_switches_bit_identical(self, tiny_split, precision, overrides):
        with using_dtype(precision):
            assert_same_training(tiny_split, matrix_config(**overrides))

    def test_band_sees_a_dropped_lookup(self, tiny_split, monkeypatch):
        """A step that loses the last lookup of each table it reaches
        twice (the MMD target rows, the anchor rows, the negative word
        rows) falls outside the f64 band: the band is far tighter than
        any term's contribution."""
        real = _Grads.value

        def drop_last_lookup(self, param, out=None):
            lookups = self._lookups.get(id(param))
            if lookups is not None and len(lookups) > 1:
                lookups.pop()
            return real(self, param, out)

        monkeypatch.setattr(_Grads, "value", drop_last_lookup)
        with pytest.raises(AssertionError, match="relative error"):
            assert_same_training(tiny_split, matrix_config())

    def test_untouched_parameters_keep_no_grad(self, tiny_split):
        """The word table without text, and everything but the POI and
        word tables in pretraining, keep ``grad=None``: Adam leaves
        their moments at zero."""
        trainer = STTransRecTrainer(tiny_split, matrix_config())
        trainer.pretrain(1)
        params = dict(trainer.model.named_parameters())
        state = trainer.optimizer.state_dict()
        for (name, p), m in zip(params.items(), state["m"]):
            if name in ("poi_embeddings.weight", "word_embeddings.weight"):
                assert p.grad is not None and m.any(), name
            else:
                assert p.grad is None and not m.any(), name

        trainer = STTransRecTrainer(tiny_split,
                                    matrix_config(use_text=False))
        trainer.train_epoch()
        word = trainer.model.word_embeddings.weight
        assert word.grad is None
        index = [p is word for p in trainer.optimizer.params].index(True)
        assert not trainer.optimizer.state_dict()["m"][index].any()

    def test_joint_step_takes_the_fused_adam_path(self, tiny_split,
                                                  monkeypatch):
        trainer = STTransRecTrainer(tiny_split, matrix_config())
        store = trainer.optimizer.store
        assert store is trainer.model.parameter_store()
        fused = []
        real = ArrayBackend.adam_update
        monkeypatch.setattr(
            ArrayBackend, "adam_update",
            lambda self, m, v, grad, *a, **k: fused.append(
                grad is store.grad) or real(self, m, v, grad, *a, **k))
        trainer.train_epoch()
        assert fused == [True] * trainer.optimizer._step_count
        assert fused

    def test_fit_never_builds_a_graph(self, tiny_split, monkeypatch):
        def refuse(self, grad=None):
            raise AssertionError("the trainer ran the autograd tape")

        monkeypatch.setattr(Tensor, "backward", refuse)
        result = STTransRecTrainer(tiny_split, fast_config()).fit()
        assert result.epochs == 2
        assert np.isfinite(result.final_loss)
