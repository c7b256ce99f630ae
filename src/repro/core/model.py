"""The ST-TransRec neural architecture (Fig. 1b, Eqs. 11–12).

Three embedding tables (users, POIs, words) feed two output paths:

* the **interaction path** concatenates ``[x_u, x_v]`` and runs it
  through the ReLU MLP tower to a 1-unit prediction head (its sigmoid is
  taken inside the loss for numerical stability);
* the **context path** scores (POI, word) pairs with dot products for
  the skipgram objective.

The transfer-learning layer (MMD between source/target POI embedding
batches) and the resampling module live in the trainer: they consume the
same POI embedding table that both paths train.

The interaction path is computed in closed numpy: :class:`TowerPass`
is one pass through the tower, forward and backward (in eval mode, the
model's scoring); :class:`LogitBCE` is the BCE loss over logits;
:class:`InteractionBCE` is that loss over the interaction logits with
every parameter's gradient — the trainer's joint step; and
:class:`UserSideBPR` is the BPR gradient with respect to the user rows
alone — the step the streaming updater folds check-ins in with.  Each
replays the numpy operations of the same quantity built from autograd
tape ops (``tests/oracle/model.py``'s ``interaction_logits``) in the
tape's order, so its results carry the tape's bits.  The trainer's
joint step scatters these rows together with the other terms' lookups
in one pass per table, so the step as a whole matches the tape within
the band of ``docs/performance.md``; a data-parallel replica reaches
each table once, and its gradient keeps the bits.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.config import STTransRecConfig
from repro.nn.backend import active_backend as _xp
from repro.nn.dtypes import coerce
from repro.nn.layers import MLP, Dropout, Embedding, Linear
from repro.nn.module import Module
from repro.utils.rng import as_rng
from repro.utils.validation import check_ids


class STTransRec(Module):
    """The joint deep network for crossing-city POI recommendation.

    Parameters
    ----------
    num_users, num_pois, num_words:
        Entity counts from the dataset index.
    config:
        Hyper-parameters (embedding size, tower shape, dropout, seed).
    """

    def __init__(self, num_users: int, num_pois: int, num_words: int,
                 config: STTransRecConfig) -> None:
        super().__init__()
        self.config = config
        rng = as_rng(config.seed)
        d = config.embedding_dim
        self.user_embeddings = Embedding(num_users, d, rng=rng)
        self.poi_embeddings = Embedding(num_pois, d, rng=rng)
        # A wordless dataset (text disabled) still gets a 1-row table so
        # module plumbing stays uniform; it receives no gradients.
        self.word_embeddings = Embedding(max(num_words, 1), d, rng=rng)
        self.embedding_dropout = Dropout(config.dropout, rng=rng)
        input_width = (3 * d if config.interaction_features == "concat_product"
                       else 2 * d)
        self.tower = MLP(input_width, config.tower_sizes(),
                         dropout=config.dropout, rng=rng)
        # Per-POI bias absorbing popularity, so embedding directions are
        # free to encode topical structure (see DESIGN.md).
        self.poi_bias = Embedding(num_pois, 1, std=0.0 + 1e-8, rng=rng)
        # Pack once: every parameter is a view of one flat buffer that
        # Adam, the joint step and the data-parallel exchange share.
        self.parameter_store()

    @property
    def training_rng(self) -> "np.random.Generator":
        """The one generator behind every dropout layer.

        Construction threads a single shared generator through all
        layers, so resetting this object's state redirects every
        dropout mask — the data-parallel trainer uses it to make masks
        a pure function of the global step (see
        :mod:`repro.parallel.data_parallel`).
        """
        return self.embedding_dropout._rng

    # ------------------------------------------------------------------
    # Embedding access for transfer and diagnostics
    # ------------------------------------------------------------------
    def poi_vectors(self) -> np.ndarray:
        """The full POI embedding matrix (a copy)."""
        return self.poi_embeddings.weight.data.copy()

    def user_vectors(self) -> np.ndarray:
        """The full user embedding matrix (a copy)."""
        return self.user_embeddings.weight.data.copy()

    def __repr__(self) -> str:
        return (
            f"STTransRec(users={self.user_embeddings.num_embeddings}, "
            f"pois={self.poi_embeddings.num_embeddings}, "
            f"words={self.word_embeddings.num_embeddings}, "
            f"d={self.config.embedding_dim}, "
            f"tower={self.config.tower_sizes()})"
        )


class TowerPass:
    """One pass through the interaction tower (Eq. 11) in closed numpy.

    :meth:`forward` and :meth:`backward` run the numpy operations the
    autograd tape runs for an :class:`~repro.nn.layers.MLP`, in the
    same order: ``x @ W`` then ``+ b``, the ``np.where`` ReLU, and in
    backward ``g @ W.swapaxes(-1, -2)`` through each layer, so every
    array they return carries the tape's bits.

    With ``train=True`` (the trainer's pass) each of the tower's
    :class:`~repro.nn.layers.Dropout` layers acts as in
    :func:`apply_dropout` (a mask drawn from its generator in train
    mode, the identity in eval mode), and :meth:`backward` also returns
    the parameters' gradients.  With ``train=False`` the pass is the
    eval-mode tower with frozen weights: no dropout, whatever the
    layers' mode, and the input gradient only — the cache then holds
    just the ReLU masks.

    The weights are read once, at construction; build a new pass after
    the parameters change.  :attr:`params` lists the tower's parameters
    in ``MLP.parameters()`` order, read on the same walk.
    """

    def __init__(self, mlp: MLP, train: bool = False) -> None:
        self._train = train
        self._layers: List[list] = []
        #: The tower's parameters, in :meth:`backward`'s gradient order.
        self.params = []
        for step in mlp.tower.steps:
            if isinstance(step, Linear):
                self._layers.append([step.weight.data, step.bias.data,
                                     None])
                self.params += [step.weight, step.bias]
            elif isinstance(step, Dropout) and train:
                self._layers[-1][2] = step
        self._head = (mlp.head.weight.data, mlp.head.bias.data)
        self.params += [mlp.head.weight, mlp.head.bias]

    def forward(self, x: np.ndarray) -> Tuple[np.ndarray, tuple]:
        """Pre-sigmoid logits of shape ``(batch,)`` and the pass's cache
        for :meth:`backward`."""
        xp = _xp()
        inputs, relu_masks, drop_masks = [], [], []
        for weight, b, drop in self._layers:
            if self._train:
                inputs.append(x)
            x = x @ weight + b
            mask = x > 0
            x = xp.where(mask, x, 0.0)
            relu_masks.append(mask)
            x, drop_mask = apply_dropout(drop, x)
            drop_masks.append(drop_mask)
        weight, b = self._head
        return ((x @ weight + b).reshape(-1),
                (inputs, relu_masks, drop_masks,
                 x if self._train else None))

    def backward(self, grad: np.ndarray, cache: tuple
                 ) -> Tuple[np.ndarray, List[np.ndarray]]:
        """Carry a logit gradient back through the tower.

        Returns the gradient of the tower input and, for a training
        pass, the gradients of the tower's parameters in
        ``MLP.parameters()`` order (each layer's weight and bias, then
        the head's); an empty list otherwise.
        """
        inputs, relu_masks, drop_masks, last = cache
        grad = grad.reshape(-1, 1)
        weight = self._head[0]
        grads: List[np.ndarray] = []
        if self._train:
            grads += [grad.sum(axis=0), last.swapaxes(-1, -2) @ grad]
        grad = grad @ weight.swapaxes(-1, -2)
        for i in reversed(range(len(self._layers))):
            if drop_masks[i] is not None:
                grad = grad * drop_masks[i]
            grad = grad * relu_masks[i]
            if self._train:
                grads += [grad.sum(axis=0),
                          inputs[i].swapaxes(-1, -2) @ grad]
            grad = grad @ self._layers[i][0].swapaxes(-1, -2)
        grads.reverse()
        return grad, grads


def apply_dropout(layer: Optional[Dropout], x: np.ndarray
                  ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Inverted dropout of ``layer`` on an array: ``(output, mask)``.

    In train mode the mask is drawn from the layer's generator, the
    survivors scaled by ``1 / (1 - rate)``; ``None`` (and ``x``
    unchanged) when ``layer`` is ``None``, in eval mode or at rate 0.
    """
    if layer is None or not layer.training or layer.rate == 0.0:
        return x, None
    mask = _xp().dropout_mask(layer._rng, x.shape, 1.0 - layer.rate,
                              x.dtype)
    return x * mask, mask


class LogitBCE:
    """Mean binary cross-entropy from logits ``z`` (Eq. 13).

    ``-(y · log σ(z) + (1 − y) · log σ(−z))`` through ``softplus``, so
    it is stable for large ``|z|``.  Construction computes :attr:`loss`;
    :meth:`backward` the logits' gradient.  Both run the tape's
    ``bce_with_logits`` operations in the tape's order.
    """

    def __init__(self, z: np.ndarray, labels: np.ndarray) -> None:
        xp = _xp()
        dtype = z.dtype
        self._y = coerce(labels, dtype=dtype)
        self._not_y = 1.0 - self._y
        self._sig = xp.stable_sigmoid(z)
        self._sig_neg = xp.stable_sigmoid(-z)
        losses = -((-xp.softplus(-z)) * self._y
                   + (-xp.softplus(z)) * self._not_y)
        self._mean = coerce(1.0 / z.size, dtype=dtype)
        #: The mean loss, a 0-d value in the logits' dtype.
        self.loss = losses.sum() * self._mean

    def backward(self, grad) -> np.ndarray:
        """The logits' gradient for an upstream loss gradient ``grad``
        (0-d)."""
        g = -(grad * self._mean)
        return (g * self._y) * (1.0 - self._sig) \
            - (g * self._not_y) * (1.0 - self._sig_neg)


class InteractionBCE:
    """BCE over the interaction logits (Eqs. 11 and 13), with every
    parameter's gradient.

    The loss is the oracle's ``bce_with_logits(interaction_logits(model,
    users, pois), labels)``, the mean over the batch, with every
    parameter on its path differentiated.  Construction runs the forward
    pass in the model's current mode: in train mode the embedding and hidden
    dropout masks are drawn from :attr:`STTransRec.training_rng` in the
    order the tape draws them.  :meth:`backward` returns the gradients
    the tape sends into each lookup and each tower parameter, with the
    tape's bits.
    """

    def __init__(self, model: STTransRec, users: np.ndarray,
                 pois: np.ndarray, labels: np.ndarray) -> None:
        xp = _xp()
        check_ids("users", users, model.user_embeddings.num_embeddings)
        check_ids("pois", pois, model.poi_embeddings.num_embeddings)
        self.users = users
        self.pois = pois
        x_u = xp.take(model.user_embeddings.weight.data, users, axis=0)
        x_v = xp.take(model.poi_embeddings.weight.data, pois, axis=0)
        self._x_u, self._x_v = x_u, x_v
        self._product = \
            model.config.interaction_features == "concat_product"
        parts = [x_u, x_v, x_u * x_v] if self._product else [x_u, x_v]
        joined, self._drop_mask = apply_dropout(
            model.embedding_dropout, xp.concatenate(parts, axis=1))
        bias = xp.take(model.poi_bias.weight.data, pois,
                       axis=0).reshape(-1)
        self._tower = TowerPass(model.tower, train=True)
        #: The tower's parameters, in :meth:`backward`'s order.
        self.tower_params = self._tower.params
        logits, self._cache = self._tower.forward(joined)
        self._bce = LogitBCE(logits + bias, labels)
        #: The batch's mean loss, a 0-d value in the model's dtype.
        self.loss = self._bce.loss

    def backward(self, grad) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                      List[np.ndarray]]:
        """Gradients for an upstream loss gradient ``grad`` (0-d).

        Returns ``(user rows, POI rows, poi_bias rows, tower grads)``:
        the rows the tape scatters into the user, POI and ``poi_bias``
        tables at ``users``, ``pois`` and ``pois``, and the tower's
        parameter gradients in ``MLP.parameters()`` order.
        """
        g_z = self._bce.backward(grad)
        g_in, tower_grads = self._tower.backward(g_z, self._cache)
        if self._drop_mask is not None:
            g_in = g_in * self._drop_mask
        d = self._x_u.shape[1]
        g_u, g_v = g_in[:, :d], g_in[:, d:2 * d]
        if self._product:
            g_p = g_in[:, 2 * d:]
            g_u = g_u + g_p * self._x_v
            g_v = g_v + g_p * self._x_u
        return g_u, g_v, g_z.reshape(-1, 1), tower_grads


class UserSideBPR:
    """Gradient of the mean BPR loss with respect to user rows.

    The loss is the one the oracle's ``interaction_logits`` gives as a
    graph, ``-log_sigmoid(pos_logits - neg_logits).mean()`` over the
    pairs ``(users[i], pos[i])`` against sampled negatives, in eval mode
    (dropout is the identity).  Only the user lookups are
    differentiated: the POI table, ``poi_bias`` and the tower are
    constants.  :meth:`grads` runs the numpy operations the autograd
    tape runs for that path, in the same order — the unfactorised
    ``[x_u, x_v, x_u * x_v] @ W1``, ``g @ W.swapaxes(-1, -2)`` back
    through each layer, the concat split — so the rows it returns carry
    the bits the tape's user-lookup gradients carry.

    One instance serves one round of steps over fixed pairs: the
    positive POI rows, their ``poi_bias`` values and the unique users
    (with the ``np.unique`` inverse that maps each pair to one) are
    gathered once here.  The user rows are read afresh on every call,
    so steps that update the table in place see their own updates.
    """

    def __init__(self, model: STTransRec, users: np.ndarray,
                 pos: np.ndarray) -> None:
        xp = _xp()
        check_ids("users", users, model.user_embeddings.num_embeddings)
        check_ids("pos", pos, model.poi_embeddings.num_embeddings)
        self.model = model
        self.users = users
        self.pos = pos
        self.unique, self.inverse = xp.unique(users, return_inverse=True)
        self._product = \
            model.config.interaction_features == "concat_product"
        self._pos_v = xp.take(model.poi_embeddings.weight.data, pos, axis=0)
        self._pos_bias = xp.take(model.poi_bias.weight.data, pos,
                                 axis=0).reshape(-1)
        self._tower = TowerPass(model.tower)
        # The tape seeds backward with 1, negates it and scales it by
        # the mean's 1/n constant in the table's dtype.
        dtype = model.user_embeddings.weight.data.dtype
        self._seed = -np.asarray(1.0 / users.size, dtype=dtype)

    def grads(self, neg: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per-pair gradient rows of the user lookups against ``neg``.

        Returns ``(positive branch, negative branch)``, each shaped
        ``(len(users), embedding_dim)``: the gradients the tape sends
        into the user gather of the positive and of the negative
        ``interaction_logits`` call.
        """
        xp = _xp()
        model = self.model
        check_ids("neg", neg, model.poi_embeddings.num_embeddings)
        x_u = xp.take(model.user_embeddings.weight.data, self.users, axis=0)
        x_neg = xp.take(model.poi_embeddings.weight.data, neg, axis=0)
        neg_bias = xp.take(model.poi_bias.weight.data, neg,
                           axis=0).reshape(-1)
        pos_logits, pos_cache = self._forward(x_u, self._pos_v,
                                              self._pos_bias)
        neg_logits, neg_cache = self._forward(x_u, x_neg, neg_bias)
        grad = self._seed * (1.0 - xp.stable_sigmoid(pos_logits
                                                     - neg_logits))
        return (self._backward(grad, pos_cache, self._pos_v),
                self._backward(-grad, neg_cache, x_neg))

    def _forward(self, x_u: np.ndarray, x_v: np.ndarray,
                 bias: np.ndarray) -> Tuple[np.ndarray, tuple]:
        """Logits and the tower pass's cache (Eq. 11, eval mode)."""
        parts = [x_u, x_v, x_u * x_v] if self._product else [x_u, x_v]
        logits, cache = self._tower.forward(
            _xp().concatenate(parts, axis=1))
        return logits + bias, cache

    def _backward(self, grad: np.ndarray, cache: tuple,
                  x_v: np.ndarray) -> np.ndarray:
        """Carry a logit gradient back to the user lookup."""
        grad, _ = self._tower.backward(grad, cache)
        d = x_v.shape[1]
        if self._product:
            return grad[:, :d] + grad[:, 2 * d:] * x_v
        return grad[:, :d]
