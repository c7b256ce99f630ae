"""Skipgram context prediction over the textual context graph (Eq. 4).

Given POI and word embedding tables, the loss for a batch of graph edges
is the negative-sampling objective

    L = -Σ [ log σ(x_w · x_v) + Σ_{w'∉W_v} log σ(-x_{w'} · x_v) ]

which pushes a POI's embedding toward its description words and away
from sampled non-context words.  POIs sharing contexts end up nearby —
including across cities when the shared words are city-independent.

:class:`SkipgramBatch` is :func:`skipgram_batch_loss` on the tables'
arrays with its backward in closed numpy, bit-identical to the tape;
the trainer's pretraining and joint steps use it.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.nn.backend import active_backend as _xp
from repro.nn.dtypes import coerce
from repro.nn.layers import Embedding
from repro.nn.losses import negative_sampling_loss
from repro.nn.ops import rowwise_dot
from repro.nn.tensor import Tensor, softplus, stable_sigmoid


def skipgram_batch_loss(poi_embeddings: Embedding,
                        word_embeddings: Embedding,
                        poi_idx: np.ndarray,
                        pos_word_idx: np.ndarray,
                        neg_word_idx: np.ndarray) -> Tensor:
    """Eq. 4 on one mini-batch of context pairs.

    Parameters
    ----------
    poi_embeddings, word_embeddings:
        Embedding tables (graph leaves receiving gradients).
    poi_idx:
        POI indices, shape ``(batch,)``.
    pos_word_idx:
        Positive word indices, shape ``(batch,)``.
    neg_word_idx:
        Negative word indices, shape ``(batch, k)``.

    Returns
    -------
    Scalar mean loss tensor.
    """
    poi_vecs = poi_embeddings(poi_idx)                      # (B, d)
    pos_vecs = word_embeddings(pos_word_idx)                # (B, d)
    pos_scores = rowwise_dot(poi_vecs, pos_vecs)            # (B,)

    batch, k = np.asarray(neg_word_idx).shape
    neg_vecs = word_embeddings(np.asarray(neg_word_idx).reshape(-1))  # (B*k, d)
    # Broadcast each POI vector over its k negatives.
    poi_rep = poi_vecs.gather_rows(np.repeat(np.arange(batch), k))    # (B*k, d)
    neg_scores = rowwise_dot(poi_rep, neg_vecs).reshape(batch, k)     # (B, k)
    return negative_sampling_loss(pos_scores, neg_scores)


class SkipgramBatch:
    """Tape-free Eq. 4 on one mini-batch of context pairs.

    Construction computes :func:`skipgram_batch_loss`'s value
    (:attr:`loss`, 0-d, in the tables' dtype) from the POI and word
    tables' arrays; :meth:`backward` returns the gradient rows the tape
    sends into its three lookups.  Both run the tape's numpy operations
    in the tape's order, so the rows carry the tape's bits.
    """

    def __init__(self, poi_table: np.ndarray, word_table: np.ndarray,
                 poi_idx: np.ndarray, pos_word_idx: np.ndarray,
                 neg_word_idx: np.ndarray) -> None:
        xp = _xp()
        neg_word_idx = np.asarray(neg_word_idx)
        batch, k = neg_word_idx.shape
        self.poi_idx = poi_idx
        self.pos_word_idx = pos_word_idx
        self.neg_word_idx = neg_word_idx.reshape(-1)
        self._poi = xp.take(poi_table, poi_idx, axis=0)
        self._pos = xp.take(word_table, pos_word_idx, axis=0)
        self._neg = xp.take(word_table, self.neg_word_idx, axis=0)
        self._rep_idx = np.repeat(np.arange(batch), k)
        self._rep = xp.take(self._poi, self._rep_idx, axis=0)
        pos_scores = (self._poi * self._pos).sum(axis=-1)
        neg_scores = (self._rep * self._neg).sum(axis=-1).reshape(batch, k)
        self._pos_sig = stable_sigmoid(pos_scores)
        self._neg_sig = stable_sigmoid(-neg_scores)
        losses = -(-softplus(-pos_scores)) \
            + (-(-softplus(neg_scores))).sum(axis=1)
        self._mean = coerce(1.0 / batch, dtype=losses.dtype)
        #: The batch's mean loss, a 0-d value in the tables' dtype.
        self.loss = losses.sum() * self._mean

    def backward(self, grad) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gradient rows for an upstream gradient ``grad`` (0-d).

        Returns ``(POI rows, positive word rows, negative word rows)``,
        for the lookups at ``poi_idx``, ``pos_word_idx`` and the
        flattened ``neg_word_idx``.
        """
        g = -(grad * self._mean)
        g_pos = (g * (1.0 - self._pos_sig))[:, None]
        g_neg = (-(g * (1.0 - self._neg_sig))).reshape(-1)[:, None]
        g_rep = _xp().scatter_rows(self._rep_idx, g_neg * self._neg,
                                   self._poi.shape[0])
        return (g_pos * self._pos + g_rep, g_pos * self._poi,
                g_neg * self._rep)


def pretrain_poi_embeddings(sampler, poi_embeddings: Embedding,
                            word_embeddings: Embedding, optimizer,
                            epochs: int = 1, batch_size: int = 256) -> list:
    """Optimize only the skipgram objective for a few epochs.

    Standalone context-prediction training, used by the Word2vec-style
    initialization and by baselines (PACE) that pre-train textual POI
    embeddings.  Returns per-epoch mean losses.
    """
    history = []
    for _ in range(epochs):
        losses = []
        for poi_idx, word_idx, neg_idx in sampler.epoch(batch_size):
            optimizer.zero_grad()
            loss = skipgram_batch_loss(
                poi_embeddings, word_embeddings, poi_idx, word_idx, neg_idx
            )
            loss.backward()
            optimizer.step()
            losses.append(loss.item())
        history.append(float(np.mean(losses)) if losses else 0.0)
    return history
