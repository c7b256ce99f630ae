"""ST-TransRec's graph on the tape: the reference for its passes.

The package computes the model's losses and scores in closed numpy
(:class:`~repro.core.model.InteractionBCE`, :class:`~repro.core.model.
UserSideBPR`, :class:`~repro.text.skipgram.SkipgramBatch`, the serving
engine).  The functions here are the same quantities built from tape
ops — ``STTransRec.interaction_logits`` and friends as they were before
the passes replaced them, taking the model as first argument.
"""

from __future__ import annotations

import numpy as np

from repro.core.model import STTransRec
from repro.nn.layers import Embedding
from tests.oracle.layers import forward
from tests.oracle.losses import negative_sampling_loss
from tests.oracle.ops import concat, rowwise_dot
from tests.oracle.tensor import Tensor


def interaction_logits(model: STTransRec, user_idx: np.ndarray,
                       poi_idx: np.ndarray) -> Tensor:
    """Pre-sigmoid scores ŷ_uv for (user, POI) index pairs (Eq. 11).

    Dropout is applied to the concatenated embedding (the paper's
    "dropout on the embedding layer") and inside each hidden layer.
    """
    x_u = forward(model.user_embeddings, user_idx)
    x_v = forward(model.poi_embeddings, poi_idx)
    if model.config.interaction_features == "concat_product":
        joined = concat([x_u, x_v, x_u * x_v], axis=1)
    else:
        joined = concat([x_u, x_v], axis=1)
    joined = forward(model.embedding_dropout, joined)
    bias = forward(model.poi_bias, poi_idx).reshape(-1)
    return forward(model.tower, joined) + bias


def predict_scores(model: STTransRec, user_idx: np.ndarray,
                   poi_idx: np.ndarray) -> np.ndarray:
    """Sigmoid prediction scores (Eq. 12), eval mode, no graph."""
    was_training = model.training
    model.eval()
    try:
        logits = interaction_logits(model, user_idx, poi_idx)
        return logits.sigmoid().numpy().copy()
    finally:
        if was_training:
            model.train()


def score_pois_for_user(model: STTransRec, user_index: int,
                        poi_indices: np.ndarray) -> np.ndarray:
    """Scores of many POIs for one user (recommendation inference)."""
    poi_indices = np.asarray(poi_indices)
    users = np.full(len(poi_indices), user_index, dtype=np.int64)
    return predict_scores(model, users, poi_indices)


def poi_embedding_batch(model: STTransRec, poi_idx: np.ndarray) -> Tensor:
    """POI embedding rows as a graph node (MMD input)."""
    return forward(model.poi_embeddings, poi_idx)


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
    poi_vecs = forward(poi_embeddings, poi_idx)             # (B, d)
    pos_vecs = forward(word_embeddings, pos_word_idx)       # (B, d)
    pos_scores = rowwise_dot(poi_vecs, pos_vecs)            # (B,)

    batch, k = np.asarray(neg_word_idx).shape
    neg_vecs = forward(word_embeddings,
                       np.asarray(neg_word_idx).reshape(-1))  # (B*k, d)
    # Broadcast each POI vector over its k negatives.
    poi_rep = poi_vecs.gather_rows(np.repeat(np.arange(batch), k))    # (B*k, d)
    neg_scores = rowwise_dot(poi_rep, neg_vecs).reshape(batch, k)     # (B, k)
    return negative_sampling_loss(pos_scores, neg_scores)
