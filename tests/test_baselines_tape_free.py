"""PACE and SH-CDL's closed-form steps against the autograd tape.

Each baseline's training step is a closed numpy pass.  The references
here are the same steps on the tape (``tests/oracle``), written as the
baselines ran them before: every step term's gradients, then whole
fits (every Adam step) with the tape step swapped in, in f64 and f32.
SH-CDL matches byte for byte.  PACE matches within the tape band
(``tests/oracle/band.py``): its step scatters each table's lookups in
one pass and scores skipgram negatives with ``einsum``, as the joint
trainer does, so its test ids keep their name but not their bytes.
"""

import numpy as np
import pytest

from repro.baselines import pace as pace_module
from repro.baselines import sh_cdl as sh_cdl_module
from repro.baselines.pace import PACE, _PACENetwork
from repro.baselines.sh_cdl import SHCDL, _Autoencoder
from repro.nn.dtypes import using_dtype
from repro.nn.module import Parameter
from tests.oracle import (
    Tensor,
    assert_within_band,
    bce_with_logits,
    concat,
    forward,
    leaf,
    mse,
    negative_sampling_loss,
    rowwise_dot,
    skipgram_batch_loss,
)

PRECISIONS = ["f64", "f32"]


def _bytes_equal(got, want, label):
    assert (got is None) == (want is None), label
    if got is not None:
        got, want = np.asarray(got), np.asarray(want)
        assert got.dtype == want.dtype, label
        assert got.tobytes() == want.tobytes(), label


# ----------------------------------------------------------------------
# PACE
# ----------------------------------------------------------------------
def tape_spatial_loss(network, batch):
    """Skipgram over POI→neighbour edges with the context table."""
    poi_idx, ctx_idx, neg_idx = batch
    center = forward(network.poi_embeddings, poi_idx)
    positive = forward(network.poi_context, ctx_idx)
    pos_scores = rowwise_dot(center, positive)
    b, k = np.asarray(neg_idx).shape
    negatives = forward(network.poi_context, np.asarray(neg_idx).reshape(-1))
    center_rep = center.gather_rows(np.repeat(np.arange(b), k))
    neg_scores = rowwise_dot(center_rep, negatives).reshape(b, k)
    return negative_sampling_loss(pos_scores, neg_scores)


def tape_pace_step(network, users, pois, labels, word_iter, spatial_iter):
    """``pace._step_grads`` through the tape, as ``PACE.fit`` ran it."""
    params = network.parameters()
    for p in params:
        p.grad = None
    joined = concat([forward(network.user_embeddings, users),
                     forward(network.poi_embeddings, pois)], axis=1)
    loss = bce_with_logits(
        forward(network.tower, forward(network.dropout, joined)), labels)
    word_batch = next(word_iter, None)
    if word_batch is not None:
        loss = loss + skipgram_batch_loss(
            network.poi_embeddings, network.word_embeddings, *word_batch)
    spatial_batch = next(spatial_iter, None)
    if spatial_batch is not None:
        loss = loss + tape_spatial_loss(network, spatial_batch)
    loss.backward()
    return [p.grad for p in params]


def _pace_world(seed=0):
    rng = np.random.default_rng(seed)
    network = _PACENetwork(30, 40, 25, 8, [8, 4], 0.2, rng)
    b, k = 12, 3
    batch = (rng.integers(0, 30, b), rng.integers(0, 40, b),
             (rng.random(b) < 0.3).astype(np.float64))
    words = (rng.integers(0, 40, b), rng.integers(0, 25, b),
             rng.integers(0, 25, (b, k)))
    spatial = (rng.integers(0, 40, b), rng.integers(0, 40, b),
               rng.integers(0, 40, (b, k)))
    return network, rng, batch, words, spatial


def _pace_fit(split, precision, step=None, monkeypatch=None):
    if step is not None:
        monkeypatch.setattr(pace_module, "_step_grads", step)
    with using_dtype(precision):
        return PACE(embedding_dim=8, hidden_sizes=[8, 4], dropout=0.2,
                    epochs=2, batch_size=32, num_negatives=2,
                    seed=1).fit(split)


class TestPACETapeFree:
    @pytest.mark.parametrize("terms", ["interaction", "words", "spatial",
                                       "all"])
    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_step_terms_bit_identical(self, precision, terms):
        with using_dtype(precision):
            network, rng, batch, words, spatial = _pace_world()
            word_batches = [words] if terms in ("words", "all") else []
            spatial_batches = [spatial] if terms in ("spatial", "all") \
                else []
            state = rng.bit_generator.state
            want = tape_pace_step(network, *batch, iter(word_batches),
                                  iter(spatial_batches))
            rng.bit_generator.state = state
            got = pace_module._step_grads(network, *batch,
                                          iter(word_batches),
                                          iter(spatial_batches))
        names = [name for name, _ in network.named_parameters()]
        assert sum(g is not None for g in got) == len(names) - (
            terms in ("interaction", "spatial")) - (
            terms in ("interaction", "words"))
        for name, g, w in zip(names, got, want):
            assert (g is None) == (w is None), name
            if g is not None:
                assert_within_band(g, w, name)

    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_fit_bit_identical(self, tiny_split, precision, monkeypatch):
        got = _pace_fit(tiny_split, precision)
        want = _pace_fit(tiny_split, precision, tape_pace_step, monkeypatch)
        for (name, p), (_, q) in zip(got._network.named_parameters(),
                                     want._network.named_parameters()):
            assert_within_band(p.data, q.data, name)
        user = sorted(tiny_split.train.users)[0]
        pois = sorted(tiny_split.train.pois)[:20]
        assert_within_band(got.score_candidates(user, pois),
                           tape_pace_scores(want, user, pois), "scores")


def tape_pace_scores(method, user_id, poi_ids):
    """``PACE.score_candidates`` through the tape."""
    network = method._network
    u = method.index.users.get(user_id)
    rows = np.array([method.index.pois.index_of(int(p)) for p in poi_ids])
    users = np.full(len(rows), u, dtype=np.int64)
    joined = concat([forward(network.user_embeddings, users),
                     forward(network.poi_embeddings, rows)], axis=1)
    logits = forward(network.tower, forward(network.dropout, joined))
    return logits.sigmoid().numpy().copy()


# ----------------------------------------------------------------------
# SH-CDL
# ----------------------------------------------------------------------
def tape_reconstruction_grads(autoencoder, x):
    """``sh_cdl._reconstruction_grads`` through the tape."""
    params = autoencoder.parameters()
    for p in params:
        p.grad = None
    pred = forward(autoencoder.decoder,
                   forward(autoencoder.encoder, Tensor(x)))
    mse(pred, x).backward()
    return [p.grad for p in params]


def tape_preference_grads(params, latents, users, city_rows, pois, labels):
    """``sh_cdl._preference_grads`` through the tape."""
    user_table, city_table, poi_bias = params
    for p in params:
        p.grad = None
    u_global = leaf(user_table).gather_rows(users)
    u_city = leaf(city_table).gather_rows(city_rows)
    h = Tensor(latents).gather_rows(pois)
    logits = ((u_global + u_city) * h).sum(axis=1) \
        + leaf(poi_bias).gather_rows(pois)
    bce_with_logits(logits, labels).backward()
    return [p.grad for p in params]


def _shcdl_fit(split, precision, monkeypatch=None):
    if monkeypatch is not None:
        monkeypatch.setattr(sh_cdl_module, "_reconstruction_grads",
                            tape_reconstruction_grads)
        monkeypatch.setattr(sh_cdl_module, "_preference_grads",
                            tape_preference_grads)
    with using_dtype(precision):
        return SHCDL(latent_dim=4, ae_epochs=2, pref_epochs=2,
                     batch_size=32, num_negatives=2, seed=1).fit(split)


class TestSHCDLTapeFree:
    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_reconstruction_grads_bit_identical(self, precision):
        rng = np.random.default_rng(0)
        with using_dtype(precision):
            autoencoder = _Autoencoder(20, 4, rng)
            x = rng.random((16, 20))
            want = tape_reconstruction_grads(autoencoder, x)
            got = sh_cdl_module._reconstruction_grads(autoencoder, x)
        names = [name for name, _ in autoencoder.named_parameters()]
        assert len(got) == len(names) == 8
        for name, g, w in zip(names, got, want):
            _bytes_equal(g, w, name)

    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_preference_grads_bit_identical(self, precision):
        rng = np.random.default_rng(0)
        with using_dtype(precision):
            dtype = np.float32 if precision == "f32" else np.float64
            params = [Parameter(rng.normal(size=(10, 4)).astype(dtype)),
                      Parameter(rng.normal(size=(20, 4)).astype(dtype)),
                      Parameter(np.zeros(15))]
            latents = rng.random((15, 4))
            users, pois = rng.integers(0, 10, 24), rng.integers(0, 15, 24)
            city_rows = users * 2 + pois % 2
            labels = (rng.random(24) < 0.3).astype(np.float64)
            args = (latents, users, city_rows, pois, labels)
            want = tape_preference_grads(params, *args)
            got = sh_cdl_module._preference_grads(params, *args)
        for name, g, w in zip(("user", "city", "bias"), got, want):
            _bytes_equal(g, w, name)

    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_fit_bit_identical(self, tiny_split, precision, monkeypatch):
        got = _shcdl_fit(tiny_split, precision)
        want = _shcdl_fit(tiny_split, precision, monkeypatch)
        for attr in ("_poi_latents", "_user_factors", "_city_factors",
                     "_poi_bias"):
            _bytes_equal(getattr(got, attr), getattr(want, attr), attr)

    def test_f32_policy_covers_every_array(self, tiny_split):
        """Under f32 the POI features, hence the latents, and the POI
        bias follow the policy, so one Adam store holds each stage."""
        fitted = _shcdl_fit(tiny_split, "f32")
        for attr in ("_poi_latents", "_user_factors", "_city_factors",
                     "_poi_bias"):
            assert getattr(fitted, attr).dtype == np.float32, attr
