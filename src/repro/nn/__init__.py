"""``repro.nn`` — the neural-network substrate: parameters, layers, Adam.

Replaces the TensorFlow dependency of the original ST-TransRec
implementation.  Layers hold numpy parameters; the model's losses and
scores are closed-form numpy passes that read them (``TowerPass``,
``InteractionBCE``, ``SkipgramBatch``, ``MMDBatch``), and
:class:`Adam` applies the gradients those passes return.  The autograd
tape the passes were derived from lives on in ``tests/oracle`` as the
reference they are checked against.
"""

from repro.nn.backend import ArrayBackend, active_backend
from repro.nn.layers import MLP, Dropout, Embedding, Linear, ReLU, Sequential
from repro.nn.module import Module, Parameter
from repro.nn.optim import Adam, Optimizer
from repro.nn.profile import OpProfile, OpStat, profile_ops

__all__ = [
    "ArrayBackend",
    "active_backend",
    "Parameter",
    "OpProfile",
    "OpStat",
    "profile_ops",
    "Module",
    "Linear",
    "Embedding",
    "Dropout",
    "Sequential",
    "ReLU",
    "MLP",
    "Adam",
    "Optimizer",
]
