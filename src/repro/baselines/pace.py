"""PACE — Preference And Context Embedding (Yang et al., KDD 2017).

A deep neural collaborative filtering model that jointly (1) models
user–POI interactions with an embedding + MLP tower and (2) predicts
the *context* of POIs as a smoothness regularizer.  Context here is
both textual (description words) and geographical: POIs within a
limited distance of each other in the same city are context neighbours.

Unlike ST-TransRec there is no transfer-learning layer and no
resampling — the geographic context only relates POIs "within a limited
distance", so nothing aligns distributions across cities.  This is the
strongest baseline in the paper's figures and the nearest ancestor of
ST-TransRec's architecture.

A training step is three closed-form numpy passes: the interaction BCE
through ST-TransRec's :class:`~repro.core.model.TowerPass`, and the
textual and geographic context terms as two
:class:`~repro.text.skipgram.SkipgramBatch` (the geographic one with
the ``poi_context`` table in the word table's place).  Their gradients
are added in the order an autograd tape over the summed loss adds
them, so the step carries the tape's bits
(``tests/test_baselines_tape_free.py``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.base import BaselineRecommender
from repro.core.model import LogitBCE, TowerPass, apply_dropout
from repro.core.trainer import _Grads
from repro.data.sampling import ContextPairSampler, InteractionSampler
from repro.data.split import CrossingCitySplit
from repro.nn.backend import active_backend as _xp
from repro.nn.layers import MLP, Dropout, Embedding
from repro.nn.module import Module
from repro.nn.optim import Adam
from repro.text.context_graph import TextualContextGraph
from repro.text.skipgram import SkipgramBatch
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import check_positive


class _PACENetwork(Module):
    """Embeddings + tower + a context table for POI neighbours."""

    def __init__(self, num_users: int, num_pois: int, num_words: int,
                 embedding_dim: int, hidden_sizes: List[int],
                 dropout: float, rng) -> None:
        super().__init__()
        self.user_embeddings = Embedding(num_users, embedding_dim, rng=rng)
        self.poi_embeddings = Embedding(num_pois, embedding_dim, rng=rng)
        self.word_embeddings = Embedding(num_words, embedding_dim, rng=rng)
        # Separate output table for POI→POI context prediction (the
        # skipgram "context vector" convention).
        self.poi_context = Embedding(num_pois, embedding_dim, rng=rng)
        self.dropout = Dropout(dropout, rng=rng)
        self.tower = MLP(2 * embedding_dim, hidden_sizes,
                         dropout=dropout, rng=rng)

    def joined(self, users: np.ndarray, pois: np.ndarray) -> np.ndarray:
        """The tower input ``[x_u, x_v]`` of (user, POI) pairs."""
        xp = _xp()
        return xp.concatenate(
            [xp.take(self.user_embeddings.weight.data, users, axis=0),
             xp.take(self.poi_embeddings.weight.data, pois, axis=0)],
            axis=1)


def _step_grads(network: _PACENetwork, users: np.ndarray,
                pois: np.ndarray, labels: np.ndarray, word_iter,
                spatial_iter) -> List[Optional[np.ndarray]]:
    """Every parameter's gradient of one step's summed loss, in
    ``network.parameters()`` order (``None`` where unreached).

    The terms are the BCE over ``tower(dropout([x_u, x_v]))`` in the
    network's current mode, the skipgram over the next (POI, word)
    batch of ``word_iter`` and the skipgram over the next (POI,
    neighbour) batch of ``spatial_iter`` with the ``poi_context`` table;
    an exhausted iterator drops its term.  The interaction forward draws
    its dropout masks before the batches are drawn (the samplers share
    its generator).  Contributions are added in the terms' order,
    lookup by lookup.
    """
    joined, drop_mask = apply_dropout(network.dropout,
                                      network.joined(users, pois))
    tower = TowerPass(network.tower, train=True)
    logits, cache = tower.forward(joined)
    bce = LogitBCE(logits, labels)
    one = _xp().ones_like(bce.loss)
    g_in, tower_grads = tower.backward(bce.backward(one), cache)
    if drop_mask is not None:
        g_in = g_in * drop_mask
    d = g_in.shape[1] // 2
    grads = _Grads()
    grads.add(network.user_embeddings, users, g_in[:, :d])
    grads.add(network.poi_embeddings, pois, g_in[:, d:])
    for param, part in zip(tower.params, tower_grads):
        grads.set(param, part)
    for table, batches in ((network.word_embeddings, word_iter),
                           (network.poi_context, spatial_iter)):
        batch = next(batches, None)
        if batch is None:
            continue
        context = SkipgramBatch(network.poi_embeddings.weight.data,
                                table.weight.data, *batch)
        g_poi, g_pos, g_neg = context.backward(one)
        grads.add(network.poi_embeddings, context.poi_idx, g_poi)
        grads.add(table, context.pos_word_idx, g_pos)
        grads.add(table, context.neg_word_idx, g_neg)
    return [grads.value(p) for p in network.parameters()]


class PACE(BaselineRecommender):
    """Joint interaction modelling and POI context prediction.

    Parameters
    ----------
    embedding_dim:
        Embedding size (the comparison protocol sets deep baselines to
        ST-TransRec's hyper-parameters).
    neighbor_radius:
        Distance (city units) within which two same-city POIs are
        geographic context for each other.
    max_neighbors:
        Cap on neighbours per POI (nearest first) to bound the edge set.
    """

    name = "PACE"

    def __init__(self, embedding_dim: int = 32,
                 hidden_sizes: Sequence[int] = None,
                 dropout: float = 0.1, learning_rate: float = 5e-3,
                 weight_decay: float = 5e-3,
                 epochs: int = 12, batch_size: int = 128,
                 num_negatives: int = 4, neighbor_radius: float = 1.0,
                 max_neighbors: int = 3, seed: SeedLike = 0) -> None:
        super().__init__()
        check_positive("embedding_dim", embedding_dim)
        check_positive("epochs", epochs)
        check_positive("neighbor_radius", neighbor_radius)
        self.weight_decay = weight_decay
        self.embedding_dim = embedding_dim
        self.hidden_sizes = (list(hidden_sizes) if hidden_sizes is not None
                             else [2 * embedding_dim, embedding_dim,
                                   max(embedding_dim // 2, 1),
                                   max(embedding_dim // 4, 1)])
        self.dropout = dropout
        self.learning_rate = learning_rate
        self.epochs = epochs
        self.batch_size = batch_size
        self.num_negatives = num_negatives
        self.neighbor_radius = neighbor_radius
        self.max_neighbors = max_neighbors
        self._seed = seed

    # ------------------------------------------------------------------
    def _spatial_edges(self, split: CrossingCitySplit) -> List[Tuple[int, int]]:
        """(poi_index, neighbour_index) pairs within the radius, per city."""
        train = split.train
        edges: List[Tuple[int, int]] = []
        if self.max_neighbors <= 0:
            return edges
        for city in train.cities:
            pois = train.pois_in_city(city)
            coords = np.array([p.location for p in pois])
            indices = [self.index.pois.index_of(p.poi_id) for p in pois]
            diff = coords[:, None, :] - coords[None, :, :]
            dists = np.sqrt((diff**2).sum(axis=2))
            for i in range(len(pois)):
                order = np.argsort(dists[i])
                added = 0
                for j in order:
                    if j == i:
                        continue
                    if dists[i, j] > self.neighbor_radius:
                        break
                    edges.append((indices[i], indices[int(j)]))
                    added += 1
                    if added >= self.max_neighbors:
                        break
        return edges

    def fit(self, split: CrossingCitySplit) -> "PACE":
        train = split.train
        self.index = train.build_index()
        rng = as_rng(self._seed)

        network = _PACENetwork(
            self.index.num_users, self.index.num_pois, self.index.num_words,
            self.embedding_dim, self.hidden_sizes, self.dropout, rng,
        )
        optimizer = Adam(network.parameters(), lr=self.learning_rate,
                         weight_decay=self.weight_decay)

        interaction_samplers = [
            InteractionSampler(train, self.index, city,
                               num_negatives=self.num_negatives, rng=rng)
            for city in train.cities
            if train.checkins_in_city(city)
        ]
        word_graph = TextualContextGraph(train.pois.values(), self.index)
        word_sampler = ContextPairSampler(
            word_graph.edges, self.index.num_words,
            num_negatives=self.num_negatives, rng=rng,
        )
        spatial_edges = self._spatial_edges(split)
        spatial_sampler = (
            ContextPairSampler(spatial_edges, self.index.num_pois,
                               num_negatives=self.num_negatives, rng=rng)
            if spatial_edges else None
        )

        network.train()
        params = network.parameters()
        for _ in range(self.epochs):
            word_iter = word_sampler.epoch(self.batch_size)
            spatial_iter = (spatial_sampler.epoch(self.batch_size)
                            if spatial_sampler else iter(()))
            for sampler in interaction_samplers:
                for users, pois, labels in sampler.epoch(self.batch_size):
                    for p, grad in zip(params, _step_grads(
                            network, users, pois, labels, word_iter,
                            spatial_iter)):
                        p.grad = grad
                    optimizer.step()
        network.eval()
        self._network = network
        self._fitted = True
        return self

    def score_candidates(self, user_id: int,
                         candidate_poi_ids: Sequence[int]) -> np.ndarray:
        self._require_fitted()
        u = self.index.users.get(user_id)
        if u < 0:
            raise KeyError(f"user {user_id} unseen in training data")
        rows = np.array(
            [self.index.pois.index_of(int(p)) for p in candidate_poi_ids]
        )
        users = np.full(len(rows), u, dtype=np.int64)
        logits, _ = TowerPass(self._network.tower).forward(
            self._network.joined(users, rows))
        return _xp().stable_sigmoid(logits)
