"""SH-CDL — spatial-aware hierarchical collaborative deep learning
(Yin et al., TKDE 2017).

The original unifies a deep belief network over heterogeneous POI
features with matrix factorization of user preferences.  Reproduced
here with the same division of labour, each stage's loss and gradients
in closed numpy (with the bits of the same losses on an autograd tape,
``tests/test_baselines_tape_free.py``):

1. A deep **autoencoder** over each POI's heterogeneous feature vector
   (bag of description words ⊕ normalized location) learns a unified
   latent representation h_v.  This is the "deep model applied only to
   learning the representations of POIs" the ST-TransRec paper notes.
2. **Spatial-aware user preference learning**: with h_v fixed, each
   user gets a *global* preference vector plus a *per-city* component
   (the original's spatial-aware hierarchy, at city granularity), and
   a per-POI bias; training minimizes BCE on
   ``σ((u_global + u_city(v)) · h_v + b_v)`` with sampled negatives.

The spatial-aware split is exactly what limits SH-CDL for crossing-city
recommendation: a test user's component for the target city receives no
training signal (they have no target-city check-ins), so only the
global part transfers — the weakness the ST-TransRec paper points out.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.baselines.base import BaselineRecommender
from repro.baselines.features import poi_word_matrix
from repro.core.model import LogitBCE
from repro.data.sampling import InteractionSampler
from repro.data.split import CrossingCitySplit
from repro.nn.backend import active_backend as _xp
from repro.nn.dtypes import coerce, default_dtype
from repro.nn.layers import Linear, Sequential, ReLU, Embedding
from repro.nn.module import Module, Parameter
from repro.nn.optim import Adam
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import check_positive


class _Autoencoder(Module):
    """Two-layer tied-width autoencoder producing POI latents."""

    def __init__(self, in_features: int, latent_dim: int, rng) -> None:
        super().__init__()
        hidden = max(latent_dim * 2, 8)
        self.encoder = Sequential(
            Linear(in_features, hidden, rng=rng), ReLU(),
            Linear(hidden, latent_dim, rng=rng), ReLU(),
        )
        self.decoder = Sequential(
            Linear(latent_dim, hidden, rng=rng), ReLU(),
            Linear(hidden, in_features, rng=rng),
        )


def _chain_forward(steps: Sequence[Module], x: np.ndarray
                   ) -> Tuple[np.ndarray, list]:
    """Run Linear/ReLU ``steps`` on ``x``: the output and the cache
    :func:`_chain_backward` reads."""
    xp = _xp()
    cache = []
    for step in steps:
        if isinstance(step, Linear):
            cache.append((step, x))
            x = x @ step.weight.data + step.bias.data
        else:
            mask = x > 0
            cache.append((None, mask))
            x = xp.where(mask, x, 0.0)
    return x, cache


def _chain_backward(grad: np.ndarray, cache: list) -> List[np.ndarray]:
    """The steps' parameter gradients, in ``parameters()`` order, for an
    output gradient ``grad``."""
    grads: List[np.ndarray] = []
    for i in reversed(range(len(cache))):
        layer, saved = cache[i]
        if layer is None:
            grad = grad * saved
            continue
        grads += [grad.sum(axis=0), saved.swapaxes(-1, -2) @ grad]
        if i:  # the chain's input needs no gradient
            grad = grad @ layer.weight.data.swapaxes(-1, -2)
    grads.reverse()
    return grads


def _reconstruction_grads(autoencoder: _Autoencoder,
                          x: np.ndarray) -> List[np.ndarray]:
    """Gradients of the autoencoder's mean squared reconstruction error
    of ``x``, in ``parameters()`` order."""
    pred, cache = _chain_forward(
        autoencoder.encoder.steps + autoencoder.decoder.steps, x)
    diff = pred - coerce(x, dtype=pred.dtype)
    part = coerce(1.0 / diff.size, dtype=pred.dtype) * diff
    return _chain_backward(part + part, cache)


def _preference_grads(params: Sequence[Parameter], latents: np.ndarray,
                      users: np.ndarray, city_rows: np.ndarray,
                      pois: np.ndarray, labels: np.ndarray
                      ) -> List[np.ndarray]:
    """Gradients of the mean BCE of ``σ((u_global + u_city) · h_v +
    b_v)`` over fixed POI latents ``h``, for ``params`` = (user table,
    city table, POI bias) looked up at ``users``, ``city_rows`` and
    ``pois``."""
    xp = _xp()
    user_table, city_table, poi_bias = params
    h = xp.take(latents, pois, axis=0)
    u = xp.take(user_table.data, users, axis=0) \
        + xp.take(city_table.data, city_rows, axis=0)
    bce = LogitBCE((u * h).sum(axis=1)
                   + xp.take(poi_bias.data, pois, axis=0), labels)
    g_z = bce.backward(xp.ones_like(bce.loss))
    g_u = g_z[:, None] * h
    return [xp.scatter_rows(idx, rows, p.data.shape[0])
            for p, idx, rows in zip(params, (users, city_rows, pois),
                                    (g_u, g_u, g_z))]


class SHCDL(BaselineRecommender):
    """Deep POI representations + factorized user preferences.

    Parameters
    ----------
    latent_dim:
        POI representation / user factor size.
    ae_epochs, pref_epochs:
        Training epochs for the autoencoder and the preference stage.
    learning_rate:
        Adam learning rate (both stages).
    """

    name = "SH-CDL"

    def __init__(self, latent_dim: int = 32, ae_epochs: int = 30,
                 pref_epochs: int = 8, learning_rate: float = 5e-3,
                 batch_size: int = 128, num_negatives: int = 4,
                 seed: SeedLike = 0) -> None:
        super().__init__()
        check_positive("latent_dim", latent_dim)
        check_positive("ae_epochs", ae_epochs)
        check_positive("pref_epochs", pref_epochs)
        self.latent_dim = latent_dim
        self.ae_epochs = ae_epochs
        self.pref_epochs = pref_epochs
        self.learning_rate = learning_rate
        self.batch_size = batch_size
        self.num_negatives = num_negatives
        self._seed = seed

    def fit(self, split: CrossingCitySplit) -> "SHCDL":
        train = split.train
        self.index = train.build_index()
        rng = as_rng(self._seed)

        # Heterogeneous POI features: words ⊕ location (unit-scaled).
        words = poi_word_matrix(train, self.index)
        locations = np.zeros((self.index.num_pois, 2))
        for poi_id, poi in train.pois.items():
            v = self.index.pois.get(poi_id)
            if v >= 0:
                locations[v] = poi.location
        span = np.maximum(locations.max(axis=0) - locations.min(axis=0), 1e-9)
        locations = (locations - locations.min(axis=0)) / span
        # In the policy dtype, so the latents and activations are too.
        features = coerce(np.concatenate([words, locations], axis=1),
                          dtype=default_dtype())

        # Stage 1: autoencode POI features.
        autoencoder = _Autoencoder(features.shape[1], self.latent_dim, rng)
        params = autoencoder.parameters()
        optimizer = Adam(params, lr=self.learning_rate)
        num_pois = features.shape[0]
        for _ in range(self.ae_epochs):
            order = rng.permutation(num_pois)
            for start in range(0, num_pois, self.batch_size):
                rows = order[start:start + self.batch_size]
                for p, grad in zip(params, _reconstruction_grads(
                        autoencoder, features[rows])):
                    p.grad = grad
                optimizer.step()
        self._poi_latents, _ = _chain_forward(autoencoder.encoder.steps,
                                              features)

        # Stage 2: spatial-aware user preference learning against fixed
        # h_v.  Per-user global component plus a per-(user, city)
        # component; POIs select the component of their own city.
        cities = train.cities
        self._city_index = {city: i for i, city in enumerate(cities)}
        poi_city = np.zeros(self.index.num_pois, dtype=np.int64)
        for poi_id, poi in train.pois.items():
            v = self.index.pois.get(poi_id)
            if v >= 0:
                poi_city[v] = self._city_index[poi.city]
        self._poi_city = poi_city

        num_users = self.index.num_users
        user_table = Embedding(num_users, self.latent_dim, rng=rng)
        city_table = Embedding(num_users * len(cities), self.latent_dim,
                               std=1e-4, rng=rng)
        poi_bias = Parameter(np.zeros(self.index.num_pois,
                                      dtype=default_dtype()))
        params = [user_table.weight, city_table.weight, poi_bias]
        optimizer = Adam(params, lr=self.learning_rate)
        samplers = [
            InteractionSampler(train, self.index, city,
                               num_negatives=self.num_negatives, rng=rng)
            for city in cities
            if train.checkins_in_city(city)
        ]
        num_cities = len(cities)
        for _ in range(self.pref_epochs):
            for sampler in samplers:
                for users, pois, labels in sampler.epoch(self.batch_size):
                    city_rows = users * num_cities + poi_city[pois]
                    for p, grad in zip(params, _preference_grads(
                            params, self._poi_latents, users, city_rows,
                            pois, labels)):
                        p.grad = grad
                    optimizer.step()
        self._user_factors = user_table.weight.data.copy()
        self._city_factors = city_table.weight.data.copy()
        self._num_cities = num_cities
        self._poi_bias = poi_bias.data.copy()
        self._fitted = True
        return self

    def score_candidates(self, user_id: int,
                         candidate_poi_ids: Sequence[int]) -> np.ndarray:
        self._require_fitted()
        u = self.index.users.get(user_id)
        if u < 0:
            raise KeyError(f"user {user_id} unseen in training data")
        rows = np.array(
            [self.index.pois.index_of(int(p)) for p in candidate_poi_ids]
        )
        # Spatial-aware scoring: the candidate city's user component is
        # included; for crossing-city users it is untrained (≈ 0), so
        # effectively only the global preference transfers.
        city_rows = u * self._num_cities + self._poi_city[rows]
        factors = self._user_factors[u] + self._city_factors[city_rows]
        return np.einsum("ij,ij->i", self._poi_latents[rows], factors) \
            + self._poi_bias[rows]
