"""The ST-TransRec neural architecture (Fig. 1b, Eqs. 11–12).

Three embedding tables (users, POIs, words) feed two output paths:

* the **interaction path** concatenates ``[x_u, x_v]`` and runs it
  through the ReLU MLP tower to a 1-unit prediction head (its sigmoid is
  taken inside the loss for numerical stability);
* the **context path** scores (POI, word) pairs with dot products for
  the skipgram objective.

The transfer-learning layer (MMD between source/target POI embedding
batches) and the resampling module live in the trainer: they consume the
same POI embedding table that both paths train.

:class:`UserSideBPR` is the interaction path's BPR gradient with
respect to the user rows alone, in closed form and without a graph —
the step the streaming updater folds check-ins in with.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.core.config import STTransRecConfig
from repro.nn.backend import active_backend as _xp
from repro.nn.layers import MLP, Dropout, Embedding, Linear
from repro.nn.module import Module
from repro.nn.ops import concat
from repro.nn.tensor import Tensor, stable_sigmoid
from repro.utils.rng import as_rng


class STTransRec(Module):
    """The joint deep network for crossing-city POI recommendation.

    Parameters
    ----------
    num_users, num_pois, num_words:
        Entity counts from the dataset index.
    config:
        Hyper-parameters (embedding size, tower shape, dropout, seed).
    """

    def __init__(self, num_users: int, num_pois: int, num_words: int,
                 config: STTransRecConfig) -> None:
        super().__init__()
        self.config = config
        rng = as_rng(config.seed)
        d = config.embedding_dim
        self.user_embeddings = Embedding(num_users, d, rng=rng)
        self.poi_embeddings = Embedding(num_pois, d, rng=rng)
        # A wordless dataset (text disabled) still gets a 1-row table so
        # module plumbing stays uniform; it receives no gradients.
        self.word_embeddings = Embedding(max(num_words, 1), d, rng=rng)
        self.embedding_dropout = Dropout(config.dropout, rng=rng)
        input_width = (3 * d if config.interaction_features == "concat_product"
                       else 2 * d)
        self.tower = MLP(input_width, config.tower_sizes(),
                         dropout=config.dropout, rng=rng)
        # Per-POI bias absorbing popularity, so embedding directions are
        # free to encode topical structure (see DESIGN.md).
        self.poi_bias = Embedding(num_pois, 1, std=0.0 + 1e-8, rng=rng)

    @property
    def training_rng(self) -> "np.random.Generator":
        """The one generator behind every dropout layer.

        Construction threads a single shared generator through all
        layers, so resetting this object's state redirects every
        dropout mask — the data-parallel trainer uses it to make masks
        a pure function of the global step (see
        :mod:`repro.parallel.data_parallel`).
        """
        return self.embedding_dropout._rng

    # ------------------------------------------------------------------
    # Interaction path
    # ------------------------------------------------------------------
    def interaction_logits(self, user_idx: np.ndarray,
                           poi_idx: np.ndarray) -> Tensor:
        """Pre-sigmoid scores ŷ_uv for (user, POI) index pairs (Eq. 11).

        Dropout is applied to the concatenated embedding (the paper's
        "dropout on the embedding layer") and inside each hidden layer.
        """
        x_u = self.user_embeddings(user_idx)
        x_v = self.poi_embeddings(poi_idx)
        if self.config.interaction_features == "concat_product":
            joined = concat([x_u, x_v, x_u * x_v], axis=1)
        else:
            joined = concat([x_u, x_v], axis=1)
        joined = self.embedding_dropout(joined)
        bias = self.poi_bias(poi_idx).reshape(-1)
        return self.tower(joined) + bias

    def predict_scores(self, user_idx: np.ndarray,
                       poi_idx: np.ndarray) -> np.ndarray:
        """Sigmoid prediction scores (Eq. 12), eval mode, no graph."""
        was_training = self.training
        self.eval()
        try:
            logits = self.interaction_logits(user_idx, poi_idx)
            return logits.sigmoid().numpy().copy()
        finally:
            if was_training:
                self.train()

    def score_pois_for_user(self, user_index: int,
                            poi_indices: np.ndarray) -> np.ndarray:
        """Scores of many POIs for one user (recommendation inference)."""
        poi_indices = np.asarray(poi_indices)
        users = np.full(len(poi_indices), user_index, dtype=np.int64)
        return self.predict_scores(users, poi_indices)

    # ------------------------------------------------------------------
    # Embedding access for transfer and diagnostics
    # ------------------------------------------------------------------
    def poi_embedding_batch(self, poi_idx: np.ndarray) -> Tensor:
        """POI embedding rows as a graph node (MMD input)."""
        return self.poi_embeddings(poi_idx)

    def poi_vectors(self) -> np.ndarray:
        """The full POI embedding matrix (copy, no graph)."""
        return self.poi_embeddings.weight.data.copy()

    def user_vectors(self) -> np.ndarray:
        """The full user embedding matrix (copy, no graph)."""
        return self.user_embeddings.weight.data.copy()

    def __repr__(self) -> str:
        return (
            f"STTransRec(users={self.user_embeddings.num_embeddings}, "
            f"pois={self.poi_embeddings.num_embeddings}, "
            f"words={self.word_embeddings.num_embeddings}, "
            f"d={self.config.embedding_dim}, "
            f"tower={self.config.tower_sizes()})"
        )


class UserSideBPR:
    """Tape-free gradient of the mean BPR loss with respect to user rows.

    The loss is the one :meth:`STTransRec.interaction_logits` gives as a
    graph, ``-log_sigmoid(pos_logits - neg_logits).mean()`` over the
    pairs ``(users[i], pos[i])`` against sampled negatives, in eval mode
    (dropout is the identity).  Only the user lookups are
    differentiated: the POI table, ``poi_bias`` and the tower are
    constants.  :meth:`grads` runs the numpy operations the autograd
    tape runs for that path, in the same order — the unfactorised
    ``[x_u, x_v, x_u * x_v] @ W1``, ``g @ W.swapaxes(-1, -2)`` back
    through each layer, the concat split — so the rows it returns carry
    the bits the tape's user-lookup gradients carry.

    One instance serves one round of steps over fixed pairs: the
    positive POI rows, their ``poi_bias`` values and the unique users
    (with the ``np.unique`` inverse that maps each pair to one) are
    gathered once here.  The user rows are read afresh on every call,
    so steps that update the table in place see their own updates.
    """

    def __init__(self, model: STTransRec, users: np.ndarray,
                 pos: np.ndarray) -> None:
        xp = _xp()
        self.model = model
        self.users = users
        self.pos = pos
        self.unique, self.inverse = xp.unique(users, return_inverse=True)
        self._product = \
            model.config.interaction_features == "concat_product"
        self._pos_v = xp.take(model.poi_embeddings.weight.data, pos, axis=0)
        self._pos_bias = xp.take(model.poi_bias.weight.data, pos,
                                 axis=0).reshape(-1)
        self._layers = [(step.weight.data, step.bias.data)
                        for step in model.tower.tower.steps
                        if isinstance(step, Linear)]
        self._head = (model.tower.head.weight.data,
                      model.tower.head.bias.data)
        # The tape seeds backward with 1, negates it and scales it by
        # the mean's 1/n constant in the table's dtype.
        dtype = model.user_embeddings.weight.data.dtype
        self._seed = -np.asarray(1.0 / users.size, dtype=dtype)

    def grads(self, neg: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per-pair gradient rows of the user lookups against ``neg``.

        Returns ``(positive branch, negative branch)``, each shaped
        ``(len(users), embedding_dim)``: the gradients the tape sends
        into the user gather of the positive and of the negative
        :meth:`STTransRec.interaction_logits` call.
        """
        xp = _xp()
        model = self.model
        x_u = xp.take(model.user_embeddings.weight.data, self.users, axis=0)
        x_neg = xp.take(model.poi_embeddings.weight.data, neg, axis=0)
        neg_bias = xp.take(model.poi_bias.weight.data, neg,
                           axis=0).reshape(-1)
        pos_logits, pos_masks = self._forward(x_u, self._pos_v,
                                              self._pos_bias)
        neg_logits, neg_masks = self._forward(x_u, x_neg, neg_bias)
        grad = self._seed * (1.0 - stable_sigmoid(pos_logits - neg_logits))
        return (self._backward(grad, pos_masks, self._pos_v),
                self._backward(-grad, neg_masks, x_neg))

    def _forward(self, x_u: np.ndarray, x_v: np.ndarray,
                 bias: np.ndarray) -> Tuple[np.ndarray, List[np.ndarray]]:
        """Logits and each hidden layer's ReLU mask (Eq. 11, eval mode)."""
        xp = _xp()
        parts = [x_u, x_v, x_u * x_v] if self._product else [x_u, x_v]
        hidden = xp.concatenate(parts, axis=1)
        masks = []
        for weight, b in self._layers:
            hidden = hidden @ weight + b
            mask = hidden > 0
            hidden = xp.where(mask, hidden, 0.0)
            masks.append(mask)
        weight, b = self._head
        return (hidden @ weight + b).reshape(-1) + bias, masks

    def _backward(self, grad: np.ndarray, masks: List[np.ndarray],
                  x_v: np.ndarray) -> np.ndarray:
        """Carry a logit gradient back to the user lookup."""
        grad = grad.reshape(-1, 1) @ self._head[0].swapaxes(-1, -2)
        for (weight, _b), mask in zip(reversed(self._layers),
                                      reversed(masks)):
            grad = (grad * mask) @ weight.swapaxes(-1, -2)
        d = x_v.shape[1]
        if self._product:
            return grad[:, :d] + grad[:, 2 * d:] * x_v
        return grad[:, :d]
