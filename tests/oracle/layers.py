"""The tape forwards of the :mod:`repro.nn` layers.

The layers in the package hold parameters, a generator and a
train/eval flag; the package's passes read them directly.  These are
the layers' forwards on the autograd tape, which the byte tests run as
the reference: ``forward(layer, x)`` for any layer.
"""

from __future__ import annotations

import numpy as np

from repro.nn.backend import active_backend as _xp
from repro.nn.layers import MLP, Dropout, Embedding, Linear, ReLU, Sequential
from tests.oracle.tensor import Tensor, leaf


def forward(module, x):
    """``module``'s forward on the tape."""
    return _FORWARDS[type(module)](module, x)


def linear(layer: Linear, x: Tensor) -> Tensor:
    out = x @ leaf(layer.weight)
    if layer.bias is not None:
        out = out + leaf(layer.bias)
    return out


def _validate_ids(layer: Embedding, ids: np.ndarray) -> None:
    """Range-check ``ids`` with a single reduction pass.

    Reinterpreting a signed integer array as unsigned maps negatives
    to huge values, so one ``max()`` catches both out-of-range
    directions — the seed's ``ids.min()``/``ids.max()`` pair cost two
    full passes per lookup on the hottest path.  The trick is only
    sound when ``num_embeddings`` fits the unsigned range of the id
    dtype (otherwise a wrapped negative could land back in range),
    so narrow dtypes with oversized tables fall back to two passes.
    The error message still reports min/max — that path is cold.
    """
    if not ids.size:
        return
    if not np.issubdtype(ids.dtype, np.integer):
        raise TypeError(
            f"embedding ids must be integers, got dtype {ids.dtype}")
    if np.issubdtype(ids.dtype, np.signedinteger) and \
            layer.num_embeddings <= int(np.iinfo(ids.dtype).max) + 1:
        bad = int(ids.view(f"u{ids.dtype.itemsize}").max()) \
            >= layer.num_embeddings
    else:
        bad = ids.min() < 0 or ids.max() >= layer.num_embeddings
    if bad:
        raise IndexError(
            f"embedding ids out of range [0, {layer.num_embeddings}): "
            f"min={ids.min()}, max={ids.max()}"
        )


def embedding(layer: Embedding, ids: np.ndarray) -> Tensor:
    ids = np.asarray(ids)
    _validate_ids(layer, ids)
    return leaf(layer.weight).gather_rows(ids)


def dropout(layer: Dropout, x: Tensor) -> Tensor:
    if not layer.training or layer.rate == 0.0:
        return x
    keep = 1.0 - layer.rate
    mask = _xp().dropout_mask(layer._rng, x.shape, keep, x.data.dtype)
    return x * Tensor(mask)


def sequential(layer: Sequential, x: Tensor) -> Tensor:
    for step in layer.steps:
        x = forward(step, x)
    return x


def relu(layer: ReLU, x: Tensor) -> Tensor:
    return x.relu()


def mlp(layer: MLP, x: Tensor) -> Tensor:
    """Return pre-sigmoid logits of shape ``(batch,)``."""
    hidden = forward(layer.tower, x)
    return forward(layer.head, hidden).reshape(-1)


_FORWARDS = {Linear: linear, Embedding: embedding, Dropout: dropout,
             Sequential: sequential, ReLU: relu, MLP: mlp}
