"""Textual context graph and skipgram objective tests."""

import numpy as np
import pytest

from repro.data.records import POI
from repro.data.vocabulary import DatasetIndex
from repro.nn.backend import active_backend
from repro.nn.layers import Embedding
from repro.nn.optim import Adam
from repro.text.context_graph import TextualContextGraph, build_city_context_graph
from repro.text.skipgram import SkipgramBatch
from repro.data.sampling import ContextPairSampler


def word_world():
    pois = [
        POI(0, "a", (0, 0), ("park", "green")),
        POI(1, "a", (1, 1), ("park", "museum")),
        POI(2, "a", (2, 2), ("casino",)),
    ]
    index = DatasetIndex(user_ids=[], poi_ids=[0, 1, 2],
                         words=["casino", "green", "museum", "park"])
    return pois, index


def train_skipgram(sampler, poi_emb, word_emb, optimizer, epochs,
                   batch_size):
    """Skipgram-only Adam epochs; returns per-epoch mean losses."""
    xp = active_backend()
    history = []
    for _ in range(epochs):
        losses = []
        for batch in sampler.epoch(batch_size):
            step = SkipgramBatch(poi_emb.weight.data, word_emb.weight.data,
                                 *batch)
            g_poi, g_pos, g_neg = step.backward(xp.ones_like(step.loss))
            words = word_emb.num_embeddings
            poi_emb.weight.grad = xp.scatter_rows(step.poi_idx, g_poi,
                                                  poi_emb.num_embeddings)
            word_emb.weight.grad = \
                xp.scatter_rows(step.pos_word_idx, g_pos, words) \
                + xp.scatter_rows(step.neg_word_idx, g_neg, words)
            optimizer.step()
            losses.append(float(step.loss))
        history.append(float(np.mean(losses)))
    return history


class TestContextGraph:
    def test_counts(self):
        pois, index = word_world()
        graph = TextualContextGraph(pois, index)
        assert graph.num_poi_nodes == 3
        assert graph.num_word_nodes == 4
        assert graph.num_edges == 5

    def test_words_of_poi(self):
        pois, index = word_world()
        graph = TextualContextGraph(pois, index)
        park = index.words.index_of("park")
        green = index.words.index_of("green")
        assert graph.words_of_poi(0) == sorted([park, green])

    def test_pois_of_word(self):
        pois, index = word_world()
        graph = TextualContextGraph(pois, index)
        park = index.words.index_of("park")
        assert graph.pois_of_word(park) == [0, 1]

    def test_average_poi_degree(self):
        pois, index = word_world()
        graph = TextualContextGraph(pois, index)
        np.testing.assert_allclose(graph.average_poi_degree(), 5 / 3)

    def test_unknown_words_skipped(self):
        pois = [POI(0, "a", (0, 0), ("park", "zzz-unknown"))]
        index = DatasetIndex([], [0], ["park"])
        graph = TextualContextGraph(pois, index)
        assert graph.num_edges == 1

    def test_empty_inputs_rejected(self):
        _, index = word_world()
        with pytest.raises(ValueError):
            TextualContextGraph([], index)

    def test_unknown_poi_rejected(self):
        pois = [POI(99, "a", (0, 0), ("park",))]
        index = DatasetIndex([], [0], ["park"])
        with pytest.raises(KeyError):
            TextualContextGraph(pois, index)

    def test_build_city_graph(self, tiny_split):
        index = tiny_split.train.build_index()
        graph = build_city_context_graph(tiny_split.train, index,
                                         "shelbyville")
        assert graph.num_poi_nodes == len(
            tiny_split.train.pois_in_city("shelbyville"))


class TestSkipgram:
    def test_loss_shape_and_finite(self):
        poi_emb = Embedding(5, 8, rng=0)
        word_emb = Embedding(6, 8, rng=1)
        batch = SkipgramBatch(
            poi_emb.weight.data, word_emb.weight.data,
            poi_idx=np.array([0, 1]),
            pos_word_idx=np.array([2, 3]),
            neg_word_idx=np.array([[0, 1], [4, 5]]),
        )
        assert batch.loss.shape == () and np.isfinite(batch.loss)

    def test_training_reduces_loss(self):
        pois, index = word_world()
        graph = TextualContextGraph(pois, index)
        sampler = ContextPairSampler(graph.edges, index.num_words,
                                     num_negatives=2, rng=0)
        poi_emb = Embedding(3, 8, rng=0)
        word_emb = Embedding(4, 8, rng=1)
        opt = Adam(poi_emb.parameters() + word_emb.parameters(), lr=0.05)
        history = train_skipgram(sampler, poi_emb, word_emb, opt,
                                 epochs=30, batch_size=8)
        assert history[-1] < history[0]

    def test_shared_context_pois_converge(self):
        """POIs 0 and 1 share 'park'; both should sit nearer each other
        than either sits to the park-less casino POI."""
        pois, index = word_world()
        graph = TextualContextGraph(pois, index)
        sampler = ContextPairSampler(graph.edges, index.num_words,
                                     num_negatives=2, rng=0)
        poi_emb = Embedding(3, 8, rng=0)
        word_emb = Embedding(4, 8, rng=1)
        opt = Adam(poi_emb.parameters() + word_emb.parameters(), lr=0.05)
        train_skipgram(sampler, poi_emb, word_emb, opt,
                       epochs=120, batch_size=8)
        e = poi_emb.weight.data
        e = e / np.linalg.norm(e, axis=1, keepdims=True)
        sim_01 = e[0] @ e[1]
        sim_02 = e[0] @ e[2]
        assert sim_01 > sim_02
