"""The autograd tape: the reference every closed-form pass is checked by.

The package trains, folds in and scores through closed numpy passes
built from the tape's operations.  This package
keeps the tape itself (:class:`Tensor`, its ops and losses), the
layers' forwards on it, the MMD estimators and kernels on it, and
ST-TransRec's graph, so the tests can compare each pass with the graph
it replaced: byte for byte, or within :data:`BAND` where the pass
fuses the tape's operations (``tests/oracle/band.py``).  Nothing under
``src/`` imports it (``tests/test_tape_guard.py``).
"""

from tests.oracle.band import BAND, assert_within_band
from tests.oracle.layers import forward
from tests.oracle.losses import bce_with_logits, mse, negative_sampling_loss
from tests.oracle.mmd import (
    mmd_between_embeddings,
    mmd_linear,
    mmd_quadratic,
    mmd_unbiased,
)
from tests.oracle.model import (
    interaction_logits,
    poi_embedding_batch,
    predict_scores,
    score_pois_for_user,
    skipgram_batch_loss,
)
from tests.oracle.ops import concat, pairwise_sq_dists, rowwise_dot
from tests.oracle.tensor import Tensor, leaf

__all__ = [
    "BAND",
    "assert_within_band",
    "Tensor",
    "leaf",
    "forward",
    "concat",
    "rowwise_dot",
    "pairwise_sq_dists",
    "bce_with_logits",
    "negative_sampling_loss",
    "mse",
    "mmd_quadratic",
    "mmd_unbiased",
    "mmd_linear",
    "mmd_between_embeddings",
    "interaction_logits",
    "predict_scores",
    "score_pois_for_user",
    "poi_embedding_batch",
    "skipgram_batch_loss",
]
