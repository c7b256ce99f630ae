"""Loss functions.

The paper trains with binary cross-entropy on user–POI interactions
(Eq. 13) and a negative-sampling skipgram loss on (POI, word) pairs
(Eq. 4).  Both are computed from *logits* through ``log_sigmoid`` so no
intermediate probability can saturate to exactly 0 or 1.
"""

from __future__ import annotations

import numpy as np

from repro.nn.dtypes import coerce
from tests.oracle.tensor import Tensor


def bce_with_logits(logits: Tensor, labels: np.ndarray,
                    reduction: str = "mean") -> Tensor:
    """Binary cross-entropy from logits (Eq. 13).

    ``-(y * log sigma(z) + (1-y) * log sigma(-z))`` — mathematically equal
    to Eq. 13 but stable for large ``|z|``.

    Parameters
    ----------
    logits:
        Pre-sigmoid scores, shape ``(batch,)``.
    labels:
        Binary labels in {0, 1}, same shape.
    reduction:
        ``"mean"``, ``"sum"`` or ``"none"``.
    """
    y = coerce(labels, dtype=logits.data.dtype)
    if y.shape != logits.shape:
        raise ValueError(f"labels shape {y.shape} != logits shape {logits.shape}")
    pos = logits.log_sigmoid() * Tensor(y)
    neg = (-logits).log_sigmoid() * Tensor(1.0 - y)
    losses = -(pos + neg)
    return _reduce(losses, reduction)


def negative_sampling_loss(pos_scores: Tensor, neg_scores: Tensor,
                           reduction: str = "mean") -> Tensor:
    """Skipgram loss with negative sampling (Eq. 4).

    ``-log sigma(s+) - sum log sigma(-s-)`` where ``s+`` are scores of
    observed (POI, word) edges and ``s-`` scores of sampled non-edges.
    ``neg_scores`` may be shape ``(batch, k)`` for k negatives per
    positive, or flat ``(batch*k,)``.
    """
    pos_term = -pos_scores.log_sigmoid()
    neg_term = -(-neg_scores).log_sigmoid()
    if neg_term.ndim == 2:
        neg_term = neg_term.sum(axis=1)
        loss = pos_term + neg_term
        return _reduce(loss, reduction)
    # Flat negatives: reduce both sides independently.
    return _reduce(pos_term, reduction) + _reduce(neg_term, reduction)


def mse(pred: Tensor, target: np.ndarray, reduction: str = "mean") -> Tensor:
    """Squared error, used by reconstruction-style baselines (SH-CDL)."""
    t = coerce(target, dtype=pred.data.dtype)
    diff = pred - Tensor(t)
    return _reduce(diff * diff, reduction)


def _reduce(values: Tensor, reduction: str) -> Tensor:
    if reduction == "mean":
        return values.mean()
    if reduction == "sum":
        return values.sum()
    if reduction == "none":
        return values
    raise ValueError(f"unknown reduction {reduction!r}")
