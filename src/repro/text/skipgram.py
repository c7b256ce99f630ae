"""Skipgram context prediction over the textual context graph (Eq. 4).

Given POI and word embedding tables, the loss for a batch of graph edges
is the negative-sampling objective

    L = -Σ [ log σ(x_w · x_v) + Σ_{w'∉W_v} log σ(-x_{w'} · x_v) ]

which pushes a POI's embedding toward its description words and away
from sampled non-context words.  POIs sharing contexts end up nearby —
including across cities when the shared words are city-independent.

:class:`SkipgramBatch` computes it on the tables' arrays, with its
backward in closed numpy; the trainer's pretraining and joint steps and
PACE's context terms use it.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.nn.backend import active_backend as _xp
from repro.nn.dtypes import coerce
from repro.utils.validation import check_ids


class SkipgramBatch:
    """Eq. 4 on one mini-batch of context pairs, with its backward.

    Construction computes the batch's mean loss (:attr:`loss`, 0-d, in
    the tables' dtype) from the POI and word tables' arrays, for POIs
    ``poi_idx`` ``(batch,)``, positive words ``pos_word_idx``
    ``(batch,)`` and negative words ``neg_word_idx`` ``(batch, k)``;
    :meth:`backward` returns the gradient rows of its three lookups.
    The negatives are scored as one ``(batch, k, d)`` array against
    their POI rows with ``einsum``, so no POI row is repeated ``k``
    times and scattered back.  The loss and rows match the same loss
    built from autograd tape ops (``tests/oracle/model.py``) within the
    band of ``docs/performance.md``.
    """

    def __init__(self, poi_table: np.ndarray, word_table: np.ndarray,
                 poi_idx: np.ndarray, pos_word_idx: np.ndarray,
                 neg_word_idx: np.ndarray) -> None:
        xp = _xp()
        neg_word_idx = np.asarray(neg_word_idx)
        check_ids("poi_idx", poi_idx, poi_table.shape[0])
        check_ids("pos_word_idx", pos_word_idx, word_table.shape[0])
        check_ids("neg_word_idx", neg_word_idx, word_table.shape[0])
        batch, k = neg_word_idx.shape
        self.poi_idx = poi_idx
        self.pos_word_idx = pos_word_idx
        self.neg_word_idx = neg_word_idx.reshape(-1)
        self._poi = xp.take(poi_table, poi_idx, axis=0)
        self._pos = xp.take(word_table, pos_word_idx, axis=0)
        self._neg = xp.take(word_table, self.neg_word_idx,
                            axis=0).reshape(batch, k, -1)
        pos_scores = (self._poi * self._pos).sum(axis=-1)
        neg_scores = np.einsum("bd,bkd->bk", self._poi, self._neg)
        self._pos_sig = xp.stable_sigmoid(pos_scores)
        self._neg_sig = xp.stable_sigmoid(-neg_scores)
        losses = xp.softplus(-pos_scores) \
            + xp.softplus(neg_scores).sum(axis=1)
        self._mean = coerce(1.0 / batch, dtype=losses.dtype)
        #: The batch's mean loss, a 0-d value in the tables' dtype.
        self.loss = losses.sum() * self._mean

    def backward(self, grad) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gradient rows for an upstream gradient ``grad`` (0-d).

        Returns ``(POI rows, positive word rows, negative word rows)``,
        for the lookups at ``poi_idx``, ``pos_word_idx`` and the
        flattened ``neg_word_idx``.
        """
        g = grad * self._mean
        g_pos = (g * (self._pos_sig - 1.0))[:, None]
        g_neg = g * (1.0 - self._neg_sig)
        g_poi = g_pos * self._pos
        g_poi += np.einsum("bk,bkd->bd", g_neg, self._neg)
        g_words = g_neg[:, :, None] * self._poi[:, None, :]
        return (g_poi, g_pos * self._poi,
                g_words.reshape(-1, self._poi.shape[1]))
