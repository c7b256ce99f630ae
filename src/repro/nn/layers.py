"""Neural network layers: Linear, Embedding, Dropout, MLP, Sequential.

These are the building blocks of the ST-TransRec architecture (Fig. 1b):
an embedding layer for users, POIs, and words; a tower of fully connected
ReLU layers for user–POI interaction modeling (Eq. 11); dropout on the
embedding layer and each hidden layer (Section 3.2); and a sigmoid
prediction head (Eq. 12).

A layer holds its parameters, its generator and its train/eval flag.
The passes that compute with them read those directly:
:class:`~repro.core.model.TowerPass` runs an :class:`MLP` (its
``Dropout`` layers drawing masks as described there), and the losses
gather :class:`Embedding` rows with the backend's ``take``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.nn import init
from repro.nn.module import Module, Parameter
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
        self.weight = Parameter(
            init.he_normal((in_features, out_features), rng=rng))
        self.bias: Optional[Parameter] = (
            Parameter(init.zeros((out_features,))) if bias else None
        )

    def __repr__(self) -> str:
        return (f"Linear(in_features={self.in_features}, "
                f"out_features={self.out_features}, "
                f"bias={self.bias is not None})")


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors.

    The paper randomly initializes embeddings from a Gaussian
    distribution; a lookup's gradient is scattered onto the rows it
    read, so only the rows used in a batch receive updates.
    """

    def __init__(self, num_embeddings: int, embedding_dim: int,
                 std: float = 0.01, rng: SeedLike = None) -> None:
        super().__init__()
        check_positive("num_embeddings", num_embeddings)
        check_positive("embedding_dim", embedding_dim)
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(
            init.normal((num_embeddings, embedding_dim), std=std, rng=rng))

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

    def __repr__(self) -> str:
        return f"Dropout(rate={self.rate})"


class Sequential(Module):
    """Modules applied in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self.steps = list(modules)

    def __len__(self) -> int:
        return len(self.steps)

    def __getitem__(self, index: int) -> Module:
        return self.steps[index]


class ReLU(Module):
    """Rectified linear activation as a module."""


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

    @property
    def depth(self) -> int:
        return len(self.hidden_sizes)
