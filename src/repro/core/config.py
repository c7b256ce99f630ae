"""Configuration for ST-TransRec training.

Defaults follow Section 4.1 ("Implementation Details"): Adam optimizer,
batch size 128, 4 negatives per positive, Gaussian parameter init, MLP
towers shaped like the paper's ``2d → d → d/2 → d/4 → 1``, and the
segmentation / resampling hyper-parameters (δ, α) found by the paper's
grid search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.utils.validation import (
    check_fraction,
    check_non_negative,
    check_positive,
)


@dataclass
class STTransRecConfig:
    """Hyper-parameters of ST-TransRec and its training loop.

    Attributes
    ----------
    embedding_dim:
        Size d of user/POI/word embeddings (paper: 64 Foursquare,
        128 Yelp).
    hidden_sizes:
        MLP tower widths; ``None`` derives the paper's shape
        ``[2d, d, d/2, d/4]`` from ``embedding_dim``.
    dropout:
        Dropout rate on the embedding layer and each hidden layer
        (paper optimum: 0.1 Foursquare, 0.2 Yelp).
    learning_rate:
        Adam learning rate.
    weight_decay:
        L2 coupling added to every parameter's gradient (0 disables);
        one Adam fits all of Eq. 3 with it.  With Adam, decay acts like
        a constant-rate pull toward zero, and the tower's data gradient
        is much smaller than the embeddings' — a decay that merely
        regularizes embeddings can drive the tower to zero
        (degenerating the model to a popularity ranker).
    batch_size:
        Mini-batch size (paper: 128).
    epochs:
        Training epochs (the paper trains until convergence; the
        synthetic datasets converge within a few epochs).
    patience:
        Early stopping: end training when the joint loss has not
        improved by at least ``min_loss_delta`` for this many
        consecutive epochs ("we repeat the above procedures for T
        iterations until L converges").  ``None`` disables.
    min_loss_delta:
        Minimum loss improvement that counts as progress.
    num_negatives:
        Negative samples per positive interaction (paper: 4).
    num_context_negatives:
        Negative words per positive context pair.
    pretrain_epochs:
        Skipgram-only epochs before joint training — the paper "first
        appl[ies] the Word2vec technique to learning the embeddings of
        POIs based on their textual descriptions"; user embeddings are
        then warm-started from the mean of each user's visited POIs.
    user_anchor:
        Weight of the content-anchor regularizer pulling each user
        embedding toward the mean embedding of their visited POIs
        (refreshed every epoch).  Prevents user vectors from drifting
        into identity-memorizing positions at the reproduction's small
        data scale; 0 disables.
    lambda_mmd:
        Weight λ of the MMD term in the joint loss (Eq. 3).
    lambda_text:
        Weight of the context-prediction losses L_G (Eq. 3 uses 1; a
        tunable weight balances the much smaller context edge set
        against the interaction examples at reduced scale).
    mmd_batch_size:
        POIs drawn per city per step for the MMD estimate.
    mmd_bandwidth:
        Gaussian kernel bandwidth σ; ``None`` → median heuristic on the
        initial embeddings.
    mmd_estimator:
        ``"quadratic"``, ``"unbiased"`` or ``"linear"``.
    mmd_kernel:
        ``"gaussian"`` (paper: fixed-bandwidth Gaussian) or ``"multi"``
        (geometric multi-bandwidth mixture, per the paper's MMD
        reference [16]).
    interaction_features:
        Input to the MLP tower: ``"concat"`` is the paper's exact
        ``[x_u, x_v]`` (Eq. 11); ``"concat_product"`` (default) appends
        the element-wise product ``x_u ⊙ x_v``.  At the paper's data
        scale the MLP learns multiplicative interactions implicitly; at
        this reproduction's reduced scale the explicit product is needed
        for the tower to exploit embedding geometry (see DESIGN.md).
    use_mmd:
        Disable to get the ST-TransRec-1 ablation.
    use_text:
        Disable context prediction to get ST-TransRec-2.
    resample_alpha:
        Resampling punishment rate α (0 disables resampling →
        ST-TransRec-3; paper optimum ≈ 0.10).
    grid_shape:
        ``(n1, n2)`` grid for region segmentation in every city.
    segmentation_threshold:
        δ of Algorithm 1 (paper: 0.10 Foursquare, 0.25 Yelp).
    seed:
        Seed for parameter init and samplers.
    """

    embedding_dim: int = 32
    hidden_sizes: Optional[List[int]] = None
    dropout: float = 0.1
    learning_rate: float = 5e-3
    weight_decay: float = 0.0
    batch_size: int = 128
    epochs: int = 12
    patience: Optional[int] = None
    min_loss_delta: float = 1e-4
    num_negatives: int = 4
    num_context_negatives: int = 4
    pretrain_epochs: int = 5
    user_anchor: float = 2.0
    lambda_mmd: float = 1.0
    lambda_text: float = 1.0
    mmd_batch_size: int = 128
    mmd_bandwidth: Optional[float] = None
    mmd_estimator: str = "quadratic"
    mmd_kernel: str = "gaussian"
    interaction_features: str = "concat_product"
    use_mmd: bool = True
    use_text: bool = True
    resample_alpha: float = 0.10
    grid_shape: Tuple[int, int] = (8, 8)
    segmentation_threshold: float = 0.10
    seed: int = 0

    def __post_init__(self) -> None:
        check_positive("embedding_dim", self.embedding_dim)
        check_fraction("dropout", self.dropout)
        check_positive("learning_rate", self.learning_rate)
        check_positive("batch_size", self.batch_size)
        check_positive("epochs", self.epochs)
        if self.patience is not None:
            check_positive("patience", self.patience)
        check_non_negative("weight_decay", self.weight_decay)
        check_non_negative("min_loss_delta", self.min_loss_delta)
        check_positive("num_negatives", self.num_negatives)
        check_positive("num_context_negatives", self.num_context_negatives)
        check_non_negative("pretrain_epochs", self.pretrain_epochs)
        check_non_negative("user_anchor", self.user_anchor)
        check_non_negative("lambda_mmd", self.lambda_mmd)
        check_non_negative("lambda_text", self.lambda_text)
        check_positive("mmd_batch_size", self.mmd_batch_size)
        if self.mmd_bandwidth is not None:
            check_positive("mmd_bandwidth", self.mmd_bandwidth)
        if self.mmd_estimator not in ("quadratic", "unbiased", "linear"):
            raise ValueError(
                f"mmd_estimator must be quadratic/unbiased/linear, "
                f"got {self.mmd_estimator!r}"
            )
        if self.mmd_kernel not in ("gaussian", "multi"):
            raise ValueError(
                f"mmd_kernel must be gaussian/multi, got {self.mmd_kernel!r}"
            )
        if self.interaction_features not in ("concat", "concat_product"):
            raise ValueError(
                f"interaction_features must be concat/concat_product, "
                f"got {self.interaction_features!r}"
            )
        check_fraction("resample_alpha", self.resample_alpha)
        check_fraction("segmentation_threshold", self.segmentation_threshold)
        if self.hidden_sizes is not None and not self.hidden_sizes:
            raise ValueError("hidden_sizes must be None or non-empty")

    def tower_sizes(self) -> List[int]:
        """The MLP widths: explicit ``hidden_sizes`` or the paper shape.

        With d = 64 this yields ``[128, 64, 32, 16]`` — exactly the
        Foursquare structure in Section 4.1; d = 128 yields the Yelp
        structure ``[256, 128, 64, 32]``.
        """
        if self.hidden_sizes is not None:
            return list(self.hidden_sizes)
        d = self.embedding_dim
        return [2 * d, d, max(d // 2, 1), max(d // 4, 1)]


def foursquare_paper_config(**overrides) -> STTransRecConfig:
    """The paper's Foursquare hyper-parameters (scaled-down epochs)."""
    params = dict(
        embedding_dim=64,
        dropout=0.1,
        segmentation_threshold=0.10,
        resample_alpha=0.10,
    )
    params.update(overrides)
    return STTransRecConfig(**params)


def yelp_paper_config(**overrides) -> STTransRecConfig:
    """The paper's Yelp hyper-parameters (scaled-down epochs)."""
    params = dict(
        embedding_dim=128,
        dropout=0.2,
        segmentation_threshold=0.25,
        resample_alpha=0.11,
    )
    params.update(overrides)
    return STTransRecConfig(**params)
