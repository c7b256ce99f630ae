"""Joint training of ST-TransRec (Section 3.2).

Each epoch interleaves mini-batches of the four supervised objectives
plus the transfer term, optimizing the overall loss of Eq. 3:

    L = L_I^s + L_G^s + L_I^t + L_G^t + λ · D(P, Q)

* ``L_I`` — binary cross-entropy on (user, POI) pairs with 4 sampled
  negatives per positive, separately for source and target cities.
* ``L_G`` — skipgram context prediction on the textual context graphs.
* ``D(P, Q)`` — MMD between batches of source- and target-city POI
  embeddings, where batches are drawn from the *resampled* check-in
  pools: the raw check-ins augmented by ``α · Σ_r n'_r`` density-based
  draws (Eqs. 6–9), so sparse regions are represented.

The source side pools all source cities (each segmented and resampled
independently, then concatenated), matching the paper's treatment of
"the remaining cities as source cities".

Steps build no autograd graph.  Each term's forward and backward runs
in closed numpy (:class:`~repro.core.model.InteractionBCE`, the
user-anchor term here, :class:`~repro.text.skipgram.SkipgramBatch`,
:class:`~repro.transfer.mmd.MMDBatch`), replaying the operations the
``repro.nn`` tape runs for the same loss in the tape's order; the
step then adds each table's per-lookup gradients in the tape's
topological order and hands Adam one flat gradient vector.  Every
parameter, moment and loss value keeps the tape's bits
(``tests/test_core_trainer.py::TestTapeFreeStep``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import STTransRecConfig
from repro.core.model import InteractionBCE, STTransRec
from repro.data.sampling import ContextPairSampler, InteractionSampler
from repro.data.split import CrossingCitySplit
from repro.data.vocabulary import DatasetIndex
from repro.nn.backend import active_backend as _xp
from repro.nn.dtypes import coerce
from repro.nn.optim import Adam
from repro.spatial.density import build_density_model
from repro.spatial.grid import CityGrid
from repro.spatial.resampling import DensityResampler
from repro.spatial.segmentation import Segmentation, segment_city
from repro.text.context_graph import TextualContextGraph
from repro.text.skipgram import SkipgramBatch
from repro.transfer.kernels import (
    GaussianKernel,
    MultiGaussianKernel,
    median_heuristic_bandwidth,
)
from repro.transfer.mmd import MMDBatch
from repro.obs.telemetry import Telemetry, span as _span
from repro.utils.logging import get_logger
from repro.utils.rng import as_rng

logger = get_logger("core.trainer")

# Epoch durations: 10 ms .. ~1.5 h, then +Inf.
_EPOCH_SECONDS_BUCKETS = [0.01 * 2.0 ** i for i in range(20)]


class _OptimizerGroup:
    """Several optimizers stepped together (per-group hyper-parameters)."""

    def __init__(self, optimizers: Sequence[Adam]) -> None:
        self.optimizers = list(optimizers)

    def zero_grad(self) -> None:
        for optimizer in self.optimizers:
            optimizer.zero_grad()

    def step(self) -> None:
        for optimizer in self.optimizers:
            optimizer.step()


class _AnchorTerm:
    """The content-anchor regularizer, ``mean((x_u − anchor_u)²)`` over
    a batch's unique users, with its backward in closed numpy (the
    tape's ``(diff * diff).mean()``, operation for operation)."""

    def __init__(self, model: STTransRec, anchors: np.ndarray,
                 users: np.ndarray) -> None:
        self.users = np.unique(users)
        diff = _xp().take(model.user_embeddings.weight.data, self.users,
                          axis=0) - anchors[self.users]
        self._diff = diff
        self._mean = coerce(1.0 / diff.size, dtype=diff.dtype)
        self.loss = (diff * diff).sum() * self._mean

    def backward(self, grad) -> np.ndarray:
        """User rows' gradient (at :attr:`users`) for upstream ``grad``."""
        part = (grad * self._mean) * self._diff
        return part + part


class _Grads:
    """A step's gradient contributions, per parameter, in arrival order.

    :meth:`add` scatters one lookup's rows into a dense table image
    (the tape's ``gather_rows`` backward); :meth:`value` adds a
    parameter's images left to right, as the tape accumulates them.
    """

    def __init__(self) -> None:
        self._parts: Dict[int, List[np.ndarray]] = {}

    def add(self, embedding, idx: np.ndarray, rows: np.ndarray) -> None:
        table = embedding.weight
        self._parts.setdefault(id(table), []).append(_xp().scatter_rows(
            idx, rows, table.data.shape[0]))

    def add_interaction(self, model: STTransRec, step: InteractionBCE,
                        grad) -> None:
        """The interaction BCE's contributions for upstream ``grad``, in
        the order the tape reaches them: the user and POI lookups, the
        tower's parameters, then ``poi_bias``."""
        g_user, g_poi, g_bias, tower = step.backward(grad)
        self.add(model.user_embeddings, step.users, g_user)
        self.add(model.poi_embeddings, step.pois, g_poi)
        for param, part in zip(model.tower.parameters(), tower):
            self.set(param, part)
        self.add(model.poi_bias, step.pois, g_bias)

    def set(self, param, grad: np.ndarray) -> None:
        self._parts.setdefault(id(param), []).append(grad)

    def reached(self, param) -> bool:
        return id(param) in self._parts

    def value(self, param, out: Optional[np.ndarray] = None
              ) -> Optional[np.ndarray]:
        """The parameter's gradient (``None`` if unreached), written
        into ``out`` when given.  Adds in place into the first image,
        which the step owns."""
        parts = self._parts.get(id(param))
        if not parts:
            return None
        total = parts[0]
        for part in parts[1:-1]:
            total += part
        if out is None:
            return total + parts[-1] if len(parts) > 1 else total
        if len(parts) > 1:
            return np.add(total, parts[-1], out=out)
        out[...] = total
        return out


@dataclass
class EpochStats:
    """Loss components averaged over one epoch's steps."""

    epoch: int
    total: float
    interaction_source: float
    interaction_target: float
    context_source: float
    context_target: float
    mmd: float
    seconds: float


@dataclass
class TrainResult:
    """Outcome of :meth:`STTransRecTrainer.fit`."""

    history: List[EpochStats] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.history[-1].total if self.history else float("nan")

    @property
    def epochs(self) -> int:
        return len(self.history)


class STTransRecTrainer:
    """Builds all substrate components and runs joint optimization.

    Parameters
    ----------
    split:
        Crossing-city train/test split; only ``split.train`` is read.
    config:
        Model and training hyper-parameters.
    index:
        Optional pre-built entity index (shared across models when
        comparing methods); built from the training data otherwise.
    telemetry:
        Optional :class:`~repro.obs.telemetry.Telemetry`; when set, the
        trainer emits per-loss-component metrics and an
        ``epoch``/``step`` span tree.  ``None`` (the default) disables
        instrumentation entirely.
    """

    def __init__(self, split: CrossingCitySplit, config: STTransRecConfig,
                 index: Optional[DatasetIndex] = None,
                 telemetry: Optional[Telemetry] = None) -> None:
        self.split = split
        self.config = config
        self.telemetry = telemetry
        self.train_data = split.train
        self.target_city = split.target_city
        self.source_cities = [c for c in self.train_data.cities
                              if c != self.target_city]
        if not self.source_cities:
            raise ValueError("training data has no source cities")
        self.index = index or self.train_data.build_index()
        self._rng = as_rng(config.seed)

        self.model = STTransRec(
            num_users=self.index.num_users,
            num_pois=self.index.num_pois,
            num_words=self.index.num_words,
            config=config,
        )
        self.optimizer = self._build_optimizer()

        self._build_interaction_samplers()
        if config.use_text:
            self._build_context_samplers()
        self.segmentations: Dict[str, Segmentation] = {}
        self._build_mmd_pools()
        # Kernel bandwidth is finalized at the end of pretrain(), when
        # the embedding scale is realistic; start with a provisional
        # kernel so train_epoch() works even without pre-training.
        self._kernel = self._build_kernel()
        self._profile_rows = self._build_profile_rows()
        self._anchors: Optional[np.ndarray] = None
        # Per-optimizer views of a flat gradient buffer (_grad_views).
        self._grad_flats: Dict[int, Optional[List[np.ndarray]]] = {}

    # ------------------------------------------------------------------
    # Component construction
    # ------------------------------------------------------------------
    def _build_optimizer(self):
        """Adam over all parameters, with per-group weight decay.

        Tower weights get ``tower_weight_decay`` (default: same as
        ``weight_decay``); see the config docstring for why the groups
        need different values under Adam.
        """
        cfg = self.config
        tower_decay = (cfg.weight_decay if cfg.tower_weight_decay is None
                       else cfg.tower_weight_decay)
        if tower_decay == cfg.weight_decay:
            return Adam(self.model.parameters(), lr=cfg.learning_rate,
                        weight_decay=cfg.weight_decay)
        tower_params = [p for name, p in self.model.named_parameters()
                        if name.startswith("tower.")]
        other_params = [p for name, p in self.model.named_parameters()
                        if not name.startswith("tower.")]
        return _OptimizerGroup([
            Adam(other_params, lr=cfg.learning_rate,
                 weight_decay=cfg.weight_decay),
            Adam(tower_params, lr=cfg.learning_rate,
                 weight_decay=tower_decay),
        ])

    def _build_interaction_samplers(self) -> None:
        cfg = self.config
        self.target_interactions = InteractionSampler(
            self.train_data, self.index, self.target_city,
            num_negatives=cfg.num_negatives, rng=self._rng,
        )
        self.source_interactions = [
            InteractionSampler(
                self.train_data, self.index, city,
                num_negatives=cfg.num_negatives, rng=self._rng,
            )
            for city in self.source_cities
        ]

    def _build_context_samplers(self) -> None:
        cfg = self.config
        target_pois = self.train_data.pois_in_city(self.target_city)
        source_pois = [
            poi for city in self.source_cities
            for poi in self.train_data.pois_in_city(city)
        ]
        self.target_graph = TextualContextGraph(target_pois, self.index)
        self.source_graph = TextualContextGraph(source_pois, self.index)
        self.target_contexts = ContextPairSampler(
            self.target_graph.edges, self.index.num_words,
            num_negatives=cfg.num_context_negatives, rng=self._rng,
        )
        self.source_contexts = ContextPairSampler(
            self.source_graph.edges, self.index.num_words,
            num_negatives=cfg.num_context_negatives, rng=self._rng,
        )

    def _build_city_mmd_pool(self, city: str) -> np.ndarray:
        """Raw check-in POI draws + α-scaled density resampling draws."""
        cfg = self.config
        pois = self.train_data.pois_in_city(city)
        grid = CityGrid(pois, cfg.grid_shape)
        segmentation = segment_city(self.train_data, grid,
                                    cfg.segmentation_threshold)
        self.segmentations[city] = segmentation
        raw = np.array(
            [self.index.pois.index_of(r.poi_id)
             for r in self.train_data.checkins_in_city(city)],
            dtype=np.int64,
        )
        if cfg.resample_alpha <= 0:
            return raw
        density = build_density_model(self.train_data, segmentation)
        resampler = DensityResampler(density, alpha=cfg.resample_alpha,
                                     rng=self._rng)
        plan = resampler.plan()
        if plan.num_draws == 0:
            return raw
        extra = np.array(
            [self.index.pois.index_of(int(p)) for p in plan.poi_ids],
            dtype=np.int64,
        )
        return np.concatenate([raw, extra])

    def _build_mmd_pools(self) -> None:
        source_pools = [self._build_city_mmd_pool(c)
                        for c in self.source_cities]
        self.source_mmd_pool = np.concatenate(source_pools)
        self.target_mmd_pool = self._build_city_mmd_pool(self.target_city)

    def _build_kernel(self):
        bandwidth = self.config.mmd_bandwidth
        if bandwidth is None:
            # Median heuristic on current embedding samples.
            sample_s = self._sample_pool(self.source_mmd_pool,
                                         self.config.mmd_batch_size)
            sample_t = self._sample_pool(self.target_mmd_pool,
                                         self.config.mmd_batch_size)
            emb = self.model.poi_embeddings.weight.data
            bandwidth = median_heuristic_bandwidth(emb[sample_s], emb[sample_t])
        if self.config.mmd_kernel == "multi":
            return MultiGaussianKernel(base_bandwidth=bandwidth)
        return GaussianKernel(bandwidth)

    def _sample_pool(self, pool: np.ndarray, size: int) -> np.ndarray:
        replace = len(pool) < size
        return self._rng.choice(pool, size=size, replace=replace)

    def _build_profile_rows(self) -> Dict[int, List[int]]:
        """user index → POI indices of the user's training check-ins."""
        rows: Dict[int, List[int]] = {}
        for user_id in self.train_data.users:
            u = self.index.users.get(user_id)
            if u < 0:
                continue
            rows[u] = [
                self.index.pois.index_of(r.poi_id)
                for r in self.train_data.user_profile(user_id)
            ]
        return rows

    def _refresh_anchors(self) -> None:
        """Recompute content anchors: mean visited-POI embedding per user."""
        poi_emb = self.model.poi_embeddings.weight.data
        anchors = np.zeros_like(self.model.user_embeddings.weight.data)
        for u, rows in self._profile_rows.items():
            if rows:
                anchors[u] = poi_emb[rows].mean(axis=0)
        self._anchors = anchors

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def _cycling_context(self, sampler: ContextPairSampler) -> Iterator[tuple]:
        """Endless stream of context batches (fresh epoch when drained).

        The context graphs hold far fewer edges than there are
        interaction examples; cycling keeps the textual gradient present
        at every step so topical structure and interaction fit develop
        together.
        """
        while True:
            yield from sampler.epoch(self.config.batch_size)

    def _interaction_batches(self) -> Iterator[Tuple[str, tuple]]:
        """Interleave target and pooled-source interaction batches."""
        cfg = self.config
        iters = [("target", self.target_interactions.epoch(cfg.batch_size))]
        for sampler in self.source_interactions:
            iters.append(("source", sampler.epoch(cfg.batch_size)))
        # Round-robin until all are exhausted.
        live = [(name, it) for name, it in iters]
        while live:
            next_live = []
            for name, it in live:
                batch = next(it, None)
                if batch is not None:
                    yield name, batch
                    next_live.append((name, it))
            live = next_live

    def train_epoch(self, epoch: int = 0) -> EpochStats:
        """Run one epoch of joint optimization and return its stats."""
        cfg = self.config
        tel = self.telemetry
        self.model.train()
        sums = {"is": 0.0, "it": 0.0, "cs": 0.0, "ct": 0.0, "mmd": 0.0,
                "total": 0.0}
        counts = {"is": 0, "it": 0, "cs": 0, "ct": 0, "mmd": 0, "steps": 0}

        context_src = (self._cycling_context(self.source_contexts)
                       if cfg.use_text else iter(()))
        context_tgt = (self._cycling_context(self.target_contexts)
                       if cfg.use_text else iter(()))
        if tel is not None:
            loss_hist = tel.histogram("train.loss.total")
            step_counters = {
                key: tel.counter("train.steps", component=component)
                for key, component in (
                    ("is", "interaction_source"),
                    ("it", "interaction_target"),
                    ("cs", "context_source"),
                    ("ct", "context_target"),
                    ("mmd", "mmd"))
            }
        started = time.perf_counter()

        if cfg.user_anchor > 0 and self._anchors is None:
            self._refresh_anchors()

        model = self.model
        with _span(tel, "epoch"):
            for name, (users, pois, labels) in self._interaction_batches():
                self.optimizer.zero_grad()
                with _span(tel, "interaction"):
                    interaction = InteractionBCE(model, users, pois, labels)
                    anchor = (_AnchorTerm(model, self._anchors, users)
                              if cfg.user_anchor > 0 else None)
                loss = interaction.loss
                key = "it" if name == "target" else "is"
                sums[key] += loss.item()
                counts[key] += 1
                if tel is not None:
                    step_counters[key].inc()
                if anchor is not None:
                    loss = loss + anchor.loss * cfg.user_anchor

                context = None
                if cfg.use_text:
                    ctx = next(context_src if name == "source"
                               else context_tgt, None)
                    if ctx is not None:
                        with _span(tel, "context"):
                            context = SkipgramBatch(
                                model.poi_embeddings.weight.data,
                                model.word_embeddings.weight.data, *ctx)
                        ckey = "ct" if name == "target" else "cs"
                        sums[ckey] += context.loss.item()
                        counts[ckey] += 1
                        if tel is not None:
                            step_counters[ckey].inc()
                        loss = loss + context.loss * cfg.lambda_text

                mmd = None
                if cfg.use_mmd and cfg.lambda_mmd > 0:
                    with _span(tel, "mmd_batch"):
                        src_idx = self._sample_pool(self.source_mmd_pool,
                                                    cfg.mmd_batch_size)
                        tgt_idx = self._sample_pool(self.target_mmd_pool,
                                                    cfg.mmd_batch_size)
                        table = model.poi_embeddings.weight.data
                        mmd = (MMDBatch(_xp().take(table, src_idx, axis=0),
                                        _xp().take(table, tgt_idx, axis=0),
                                        kernel=self._kernel,
                                        estimator=cfg.mmd_estimator),
                               src_idx, tgt_idx)
                    sums["mmd"] += mmd[0].loss.item()
                    counts["mmd"] += 1
                    if tel is not None:
                        step_counters["mmd"].inc()
                    loss = loss + mmd[0].loss * cfg.lambda_mmd

                sums["total"] += loss.item()
                counts["steps"] += 1
                with _span(tel, "backward"):
                    self._set_grads(self._joint_grads(
                        loss, interaction, anchor, context, mmd))
                with _span(tel, "optimizer"):
                    self.optimizer.step()
                if tel is not None:
                    loss_hist.observe(loss.item())

        seconds = time.perf_counter() - started

        def avg(key: str, count_key: str) -> float:
            return sums[key] / counts[count_key] if counts[count_key] else 0.0

        stats = EpochStats(
            epoch=epoch,
            total=avg("total", "steps"),
            interaction_source=avg("is", "is"),
            interaction_target=avg("it", "it"),
            context_source=avg("cs", "cs"),
            context_target=avg("ct", "ct"),
            mmd=avg("mmd", "mmd"),
            seconds=seconds,
        )
        if tel is not None:
            self._record_epoch_metrics(stats)
        logger.debug("epoch %d: %s", epoch, stats)
        return stats

    def _record_epoch_metrics(self, stats: EpochStats) -> None:
        """Mirror one epoch's loss components into the telemetry registry."""
        tel = self.telemetry
        for component, value in (
                ("total", stats.total),
                ("interaction_source", stats.interaction_source),
                ("interaction_target", stats.interaction_target),
                ("context_source", stats.context_source),
                ("context_target", stats.context_target),
                ("mmd", stats.mmd)):
            tel.gauge("train.epoch.loss", component=component).set(value)
        tel.counter("train.epochs").inc()
        tel.histogram("train.epoch.seconds",
                      bounds=_EPOCH_SECONDS_BUCKETS).observe(stats.seconds)

    def pretrain(self, epochs: Optional[int] = None) -> None:
        """Word2vec-style initialization (Section 3, "we first apply the
        Word2vec technique to learning the embeddings of POIs").

        Runs skipgram-only epochs over both cities' context graphs, then
        warm-starts each user's embedding at the mean of their visited
        POIs' embeddings, so the interaction tower starts from a space
        where user–POI affinity is approximately geometric.  Without
        text there is nothing to pre-train on.

        Either way it then re-estimates the MMD kernel bandwidth (median
        heuristic, unless ``config.mmd_bandwidth`` is fixed) on the
        embedding scale joint training starts from: the provisional
        bandwidth sized on random-init embeddings would be orders of
        magnitude too small once the embeddings grow.
        """
        cfg = self.config
        if cfg.use_text:
            self._pretrain_text(
                cfg.pretrain_epochs if epochs is None else epochs)
        if cfg.mmd_bandwidth is None:
            self._kernel = self._build_kernel()

    def _pretrain_text(self, epochs: int) -> None:
        """Skipgram-only epochs, then the content-based user warm start."""
        cfg = self.config
        with _span(self.telemetry, "pretrain"):
            for _ in range(epochs):
                for sampler in (self.source_contexts, self.target_contexts):
                    for batch in sampler.epoch(cfg.batch_size):
                        self.optimizer.zero_grad()
                        context = SkipgramBatch(
                            self.model.poi_embeddings.weight.data,
                            self.model.word_embeddings.weight.data, *batch)
                        grads = _Grads()
                        self._add_context_grads(
                            grads, context,
                            _xp().ones_like(context.loss))
                        self._set_grads(grads)
                        self.optimizer.step()
        poi_emb = self.model.poi_embeddings.weight.data
        user_emb = self.model.user_embeddings.weight.data
        for u, rows in self._profile_rows.items():
            if rows:
                user_emb[u] = poi_emb[rows].mean(axis=0)

    # ------------------------------------------------------------------
    # Gradients
    # ------------------------------------------------------------------
    def _joint_grads(self, loss, interaction: InteractionBCE,
                     anchor: Optional["_AnchorTerm"],
                     context: Optional[SkipgramBatch],
                     mmd: Optional[Tuple[MMDBatch, np.ndarray, np.ndarray]]
                     ) -> "_Grads":
        """Every parameter's gradient of one joint step's loss (Eq. 3).

        The tape seeds backward with a 1 in the loss's dtype and scales
        it by each term's weight on the way down.  Contributions are
        added in the order the tape's topological walk reaches them:
        the interaction lookups, then the context lookups, then the
        source and target MMD batches.
        """
        cfg = self.config
        model = self.model
        one = _xp().ones_like(loss)
        dtype = one.dtype
        grads = _Grads()
        grads.add_interaction(model, interaction, one)
        if anchor is not None:
            grads.add(model.user_embeddings, anchor.users, anchor.backward(
                one * coerce(cfg.user_anchor, dtype=dtype)))
        if context is not None:
            self._add_context_grads(
                grads, context, one * coerce(cfg.lambda_text, dtype=dtype))
        if mmd is not None:
            batch, src_idx, tgt_idx = mmd
            g_src, g_tgt = batch.backward(
                one * coerce(cfg.lambda_mmd, dtype=dtype))
            grads.add(model.poi_embeddings, src_idx, g_src)
            grads.add(model.poi_embeddings, tgt_idx, g_tgt)
        return grads

    def _add_context_grads(self, grads: "_Grads", context: SkipgramBatch,
                           grad) -> None:
        g_poi, g_pos, g_neg = context.backward(grad)
        grads.add(self.model.poi_embeddings, context.poi_idx, g_poi)
        grads.add(self.model.word_embeddings, context.pos_word_idx, g_pos)
        grads.add(self.model.word_embeddings, context.neg_word_idx, g_neg)

    def _set_grads(self, grads: "_Grads") -> None:
        """Hand the step's gradients to the optimizer.

        A parameter the step did not reach keeps ``grad=None``, so Adam
        skips it and leaves its moments alone, as after a tape step.
        When every parameter of an :class:`~repro.nn.optim.Adam` has a
        gradient, the gradients are written as views of one flat vector
        laid out like its moments, so :meth:`Adam.step` runs one fused
        ``adam_update`` over it.
        """
        for optimizer in getattr(self.optimizer, "optimizers",
                                 [self.optimizer]):
            params = optimizer.params
            views = self._grad_views(optimizer)
            if views is None or not all(grads.reached(p) for p in params):
                for p in params:
                    p.grad = grads.value(p)
                continue
            for p, view in zip(params, views):
                p.grad = grads.value(p, out=view)

    def _grad_views(self, optimizer) -> Optional[List[np.ndarray]]:
        """Per-parameter views of one reusable flat gradient vector laid
        out like ``optimizer``'s moments; ``None`` for mixed dtypes."""
        key = id(optimizer)
        if key not in self._grad_flats:
            params = optimizer.params
            dtypes = {p.data.dtype for p in params}
            views = None
            if len(dtypes) == 1:
                flat = np.empty(sum(p.data.size for p in params),
                                dtype=dtypes.pop())
                views, start = [], 0
                for p in params:
                    views.append(flat[start:start + p.data.size]
                                 .reshape(p.data.shape))
                    start += p.data.size
            self._grad_flats[key] = views
        return self._grad_flats[key]

    def fit(self, epochs: Optional[int] = None,
            epoch_callback=None) -> TrainResult:
        """Pre-train embeddings, then run joint training.

        Parameters
        ----------
        epochs:
            Joint-training epochs (default: ``config.epochs``).
        epoch_callback:
            Optional ``callback(trainer, stats)`` invoked after each
            epoch — e.g. to track validation metrics or snapshot
            embeddings.  Exceptions from the callback propagate.
        """
        with _span(self.telemetry, "fit"):
            self.pretrain()
            result = TrainResult()
            best_loss = float("inf")
            stale_epochs = 0
            budget = epochs if epochs is not None else self.config.epochs
            for epoch in range(budget):
                if self.config.user_anchor > 0:
                    self._refresh_anchors()
                stats = self.train_epoch(epoch)
                result.history.append(stats)
                if epoch_callback is not None:
                    epoch_callback(self, stats)
                if self.config.patience is not None:
                    if stats.total < best_loss - self.config.min_loss_delta:
                        best_loss = stats.total
                        stale_epochs = 0
                    else:
                        stale_epochs += 1
                        if stale_epochs >= self.config.patience:
                            logger.info("early stopping at epoch %d", epoch)
                            break
        self.model.eval()
        return result
