"""Neural network layers: Linear, Embedding, Dropout, MLP, Sequential.

These are the building blocks of the ST-TransRec architecture (Fig. 1b):
an embedding layer for users, POIs, and words; a tower of fully connected
ReLU layers for user–POI interaction modeling (Eq. 11); dropout on the
embedding layer and each hidden layer (Section 3.2); and a sigmoid
prediction head (Eq. 12).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.nn import init
from repro.nn.backend import active_backend as _xp
from repro.nn.module import Module
from repro.nn.tensor import Tensor
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import check_fraction, check_positive


class Linear(Module):
    """Fully connected layer ``y = x W + b``.

    Parameters
    ----------
    in_features, out_features:
        Input/output dimensionality.
    bias:
        Include the additive bias term (default True).
    rng:
        Seed or generator for He-normal weight initialization.
    """

    def __init__(self, in_features: int, out_features: int,
                 bias: bool = True, rng: SeedLike = None) -> None:
        super().__init__()
        check_positive("in_features", in_features)
        check_positive("out_features", out_features)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Tensor(
            init.he_normal((in_features, out_features), rng=rng),
            requires_grad=True,
        )
        self.bias: Optional[Tensor] = (
            Tensor(init.zeros((out_features,)), requires_grad=True) if bias else None
        )

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self) -> str:
        return (f"Linear(in_features={self.in_features}, "
                f"out_features={self.out_features}, "
                f"bias={self.bias is not None})")


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors.

    The paper randomly initializes embeddings from a Gaussian
    distribution; rows are gathered with scatter-add gradients so only
    the rows used in a batch receive updates.
    """

    def __init__(self, num_embeddings: int, embedding_dim: int,
                 std: float = 0.01, rng: SeedLike = None) -> None:
        super().__init__()
        check_positive("num_embeddings", num_embeddings)
        check_positive("embedding_dim", embedding_dim)
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Tensor(
            init.normal((num_embeddings, embedding_dim), std=std, rng=rng),
            requires_grad=True,
        )

    def _validate_ids(self, ids: np.ndarray) -> None:
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
                self.num_embeddings <= int(np.iinfo(ids.dtype).max) + 1:
            bad = int(ids.view(f"u{ids.dtype.itemsize}").max()) \
                >= self.num_embeddings
        else:
            bad = ids.min() < 0 or ids.max() >= self.num_embeddings
        if bad:
            raise IndexError(
                f"embedding ids out of range [0, {self.num_embeddings}): "
                f"min={ids.min()}, max={ids.max()}"
            )

    def forward(self, ids: np.ndarray) -> Tensor:
        ids = np.asarray(ids)
        self._validate_ids(ids)
        return self.weight.gather_rows(ids)

    def all_vectors(self) -> Tensor:
        """The full embedding matrix as a graph node (for MMD batches)."""
        return self.weight

    def __repr__(self) -> str:
        return (f"Embedding(num_embeddings={self.num_embeddings}, "
                f"embedding_dim={self.embedding_dim})")


class Dropout(Module):
    """Inverted dropout: active in training mode, identity in eval mode.

    The surviving activations are scaled by ``1 / (1 - rate)`` so the
    expected forward signal is unchanged, matching the paper's use of
    dropout on the embedding layer and every hidden layer.
    """

    def __init__(self, rate: float = 0.0, rng: SeedLike = None) -> None:
        super().__init__()
        check_fraction("rate", rate)
        if rate >= 1.0:
            raise ValueError(f"dropout rate must be < 1, got {rate}")
        self.rate = rate
        self._rng = as_rng(rng)

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.rate == 0.0:
            return x
        keep = 1.0 - self.rate
        mask = _xp().dropout_mask(self._rng, x.shape, keep, x.data.dtype)
        return x * Tensor(mask)

    def __repr__(self) -> str:
        return f"Dropout(rate={self.rate})"


class Sequential(Module):
    """Apply modules in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self.steps = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        for step in self.steps:
            x = step(x)
        return x

    def __len__(self) -> int:
        return len(self.steps)

    def __getitem__(self, index: int) -> Module:
        return self.steps[index]


class ReLU(Module):
    """Rectified linear activation as a module."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Sigmoid(Module):
    """Logistic activation as a module."""

    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


class MLP(Module):
    """The interaction tower of Eqs. 11–12: stacked Linear+ReLU+Dropout.

    ``hidden_sizes`` follows the paper's notation, e.g.
    ``[128, 64, 32, 16]`` for Foursquare; the final ``Linear(last, 1)``
    prediction layer is added automatically and its sigmoid is applied by
    the caller (so losses can use pre-activation logits for stability).

    Parameters
    ----------
    in_features:
        Width of the concatenated ``[x_u, x_v]`` input.
    hidden_sizes:
        Hidden layer widths, outermost first.
    dropout:
        Dropout rate applied after every hidden activation.
    rng:
        Seed or generator shared across layer initializations.
    """

    def __init__(self, in_features: int, hidden_sizes: Sequence[int],
                 dropout: float = 0.0, rng: SeedLike = None) -> None:
        super().__init__()
        if not hidden_sizes:
            raise ValueError("MLP requires at least one hidden layer")
        generator = as_rng(rng)
        self.hidden_sizes = list(hidden_sizes)
        steps: list[Module] = []
        width = in_features
        for size in hidden_sizes:
            steps.append(Linear(width, size, rng=generator))
            steps.append(ReLU())
            if dropout > 0:
                steps.append(Dropout(dropout, rng=generator))
            width = size
        self.tower = Sequential(*steps)
        self.head = Linear(width, 1, rng=generator)

    def forward(self, x: Tensor) -> Tensor:
        """Return pre-sigmoid logits of shape ``(batch,)``."""
        hidden = self.tower(x)
        return self.head(hidden).reshape(-1)

    @property
    def depth(self) -> int:
        return len(self.hidden_sizes)
