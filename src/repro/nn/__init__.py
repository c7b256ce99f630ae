"""``repro.nn`` — a from-scratch autograd + neural-network substrate.

Replaces the TensorFlow dependency of the original ST-TransRec
implementation with a numpy-only reverse-mode autodiff engine and the
layer/optimizer/loss set the paper's architecture requires.
"""

from repro.nn.backend import ArrayBackend, active_backend
from repro.nn.layers import (
    MLP,
    Dropout,
    Embedding,
    Linear,
    ReLU,
    Sequential,
    Sigmoid,
)
from repro.nn.losses import (
    bce_with_logits,
    l2_penalty,
    mse,
    negative_sampling_loss,
)
from repro.nn.module import Module
from repro.nn.ops import concat, pairwise_sq_dists, rowwise_dot, stack
from repro.nn.optim import SGD, Adam, Optimizer
from repro.nn.profile import OpProfile, OpStat, profile_ops
from repro.nn.sparse import SparseRowGrad, grad_values
from repro.nn.tensor import Tensor, softplus, stable_sigmoid

__all__ = [
    "ArrayBackend",
    "active_backend",
    "Tensor",
    "SparseRowGrad",
    "grad_values",
    "OpProfile",
    "OpStat",
    "profile_ops",
    "Module",
    "Linear",
    "Embedding",
    "Dropout",
    "Sequential",
    "ReLU",
    "Sigmoid",
    "MLP",
    "SGD",
    "Adam",
    "Optimizer",
    "bce_with_logits",
    "negative_sampling_loss",
    "mse",
    "l2_penalty",
    "concat",
    "stack",
    "rowwise_dot",
    "pairwise_sq_dists",
    "stable_sigmoid",
    "softplus",
]
