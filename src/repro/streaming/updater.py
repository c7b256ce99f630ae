"""Incremental model updates: the project's one BPR fold-in.

:class:`IncrementalUpdater` folds fresh check-ins into user embeddings
in two tiers:

1. **Fold-in** — a few BPR gradient steps that move *only the touched
   users'* embedding rows, vectorized across the whole batch (one
   forward per step, not one per user).  :meth:`ingest` runs it on a
   batch of stream events; :meth:`fold_in_user` on one user's
   check-ins, as a batch of one — the serving path behind
   :meth:`repro.serving.RecommendationService.fold_in`.
2. **Periodic sparse retrain** — :meth:`retrain` replays the rows
   ingested since the last round plus an equal-size uniform sample of
   the older retained history, so a round costs O(burst), not
   O(history).  It runs :class:`repro.nn.optim.Adam` in
   ``sparse_mode="exact"``: the embedding table emits a
   ``SparseRowGrad`` restricted to the touched rows, so the optimizer
   carries real Adam moments for exactly those rows and never writes
   the rest of the table.

Both tiers differentiate only the path to the user table.  They run
inside :meth:`repro.nn.module.Module.trainable_only`, so the POI
gathers and ``poi_bias`` build no graph nodes and ``backward`` computes
no gradient for the POI table, the bias or the tower.  The user-row
gradient is the same expression either way, so the updated rows are
bit-identical to a backward through every parameter.  The fold-in's
dense user gradient is scattered by the backend's ``scatter_rows``
kernel.

Negative sampling mirrors
:meth:`repro.data.sampling.InteractionSampler.sample_negatives_batch`
— bulk draws, encoded-key ``searchsorted`` membership against the
visited set (base dataset ∪ ingested stream), bounded rejection rounds
— but scoped to the touched users only.

The updater never changes POI-side parameters, so a serving engine's
precomputed catalogue terms stay valid; republishing the model
(:mod:`repro.streaming.publisher`) and hot-swapping the fleet
(:meth:`repro.fleet.router.ShardRouter.swap`) picks up the new user
rows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.model import STTransRec
from repro.data.dataset import CheckinDataset
from repro.data.vocabulary import DatasetIndex
from repro.nn.optim import Adam
from repro.obs.metrics import MetricsRegistry
from repro.streaming.events import CheckinEvent
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import check_positive

__all__ = ["IncrementalUpdater", "UpdateStats"]

_MAX_REJECTION_ROUNDS = 100


@dataclass
class UpdateStats:
    """Cumulative counters for one updater's lifetime."""

    events_ingested: int = 0
    events_skipped: int = 0
    users_touched: int = 0
    fold_in_steps: int = 0
    retrain_rounds: int = 0
    last_seq: int = -1

    def to_dict(self) -> dict:
        return {
            "events_ingested": self.events_ingested,
            "events_skipped": self.events_skipped,
            "users_touched": self.users_touched,
            "fold_in_steps": self.fold_in_steps,
            "retrain_rounds": self.retrain_rounds,
            "last_seq": self.last_seq,
        }


class IncrementalUpdater:
    """Fold stream events into user embeddings; retrain touched rows.

    Parameters
    ----------
    model:
        Trained :class:`STTransRec`; only user-embedding rows change.
    index:
        The model's entity index.
    dataset:
        Base training dataset — seeds the visited set so negatives are
        never POIs a user has already checked into (offline or stream).
    negative_pool_ids:
        Dataset POI ids negatives are drawn from (typically the target
        city's catalogue).
    learning_rate:
        Fold-in SGD step size.
    fold_in_steps:
        BPR steps per :meth:`ingest` call.
    retrain_lr / retrain_steps:
        Adam step size / steps per :meth:`retrain` round.
    num_negatives:
        Negatives sampled per positive.
    max_history_per_user:
        Retained positives per user that :meth:`retrain` replays from or
        samples; the oldest are dropped beyond this (recency is the
        point).
    registry:
        Optional :class:`MetricsRegistry` for ``streaming.*`` metrics.
    """

    def __init__(self, model: STTransRec, index: DatasetIndex,
                 dataset: CheckinDataset,
                 negative_pool_ids: Sequence[int], *,
                 learning_rate: float = 0.05, fold_in_steps: int = 5,
                 retrain_lr: float = 0.01, retrain_steps: int = 20,
                 num_negatives: int = 4, max_history_per_user: int = 64,
                 rng: SeedLike = 0,
                 registry: Optional[MetricsRegistry] = None) -> None:
        check_positive("learning_rate", learning_rate)
        check_positive("fold_in_steps", fold_in_steps)
        check_positive("retrain_lr", retrain_lr)
        check_positive("retrain_steps", retrain_steps)
        check_positive("num_negatives", num_negatives)
        check_positive("max_history_per_user", max_history_per_user)
        self.model = model
        self.index = index
        self.learning_rate = learning_rate
        self.fold_in_steps = fold_in_steps
        self.retrain_lr = retrain_lr
        self.retrain_steps = retrain_steps
        self.num_negatives = num_negatives
        self.max_history_per_user = max_history_per_user
        self._rng = as_rng(rng)
        self._registry = registry
        self.stats = UpdateStats()
        self._published_ingested = 0
        self._published_skipped = 0

        pool = np.unique(np.array(
            [index.pois.index_of(int(p)) for p in negative_pool_ids],
            dtype=np.int64))
        if pool.size == 0:
            raise ValueError("negative pool is empty")
        self._pool = pool

        # Visited-pair membership, encoded-key searchsorted idiom from
        # InteractionSampler: key = user_row * num_pois + poi_row.
        self._poi_key = len(index.pois)
        keys = []
        for checkin in dataset.checkins:
            u = index.users.get(checkin.user_id, -1)
            p = index.pois.get(checkin.poi_id, -1)
            if u >= 0 and p >= 0:
                keys.append(u * self._poi_key + p)
        self._visited_keys = np.unique(np.array(keys, dtype=np.int64))

        # Per-user-row retained stream positives (rows), newest last.
        self._history: Dict[int, List[int]] = {}
        # Per-user-row count of history rows ingested since the last
        # retrain round: the newest entries of that user's history.
        self._fresh: Dict[int, int] = {}
        # Touched since last drain (dataset user ids) — cache
        # invalidation consumes this via drain_touched().
        self._touched_ids: set = set()

    # ------------------------------------------------------------------
    # Visited-set membership (InteractionSampler idiom)
    # ------------------------------------------------------------------
    def _is_visited(self, keys: np.ndarray) -> np.ndarray:
        vk = self._visited_keys
        if vk.size == 0:
            return np.zeros(keys.shape, dtype=bool)
        idx = np.searchsorted(vk, keys)
        idx_clipped = np.minimum(idx, vk.size - 1)
        return (idx < vk.size) & (vk[idx_clipped] == keys)

    def _mark_visited(self, user_rows: np.ndarray,
                      poi_rows: np.ndarray) -> None:
        new = user_rows.astype(np.int64) * self._poi_key + poi_rows
        self._visited_keys = np.union1d(self._visited_keys, new)

    def _sample_negatives(self, user_rows: np.ndarray) -> np.ndarray:
        """One negative per entry of ``user_rows``, never a visited POI."""
        n = user_rows.size
        pool = self._pool
        draws = pool[self._rng.integers(0, pool.size, size=n)]
        keys = user_rows.astype(np.int64) * self._poi_key + draws
        bad = self._is_visited(keys)
        rounds = 0
        while bad.any() and rounds < _MAX_REJECTION_ROUNDS:
            redraw = pool[self._rng.integers(0, pool.size,
                                             size=int(bad.sum()))]
            draws[bad] = redraw
            keys[bad] = user_rows[bad].astype(np.int64) * self._poi_key \
                + redraw
            bad = self._is_visited(keys)
            rounds += 1
        return draws

    # ------------------------------------------------------------------
    # Ingest: fold-in
    # ------------------------------------------------------------------
    def ingest(self, events: Iterable[CheckinEvent]) -> UpdateStats:
        """Fold a batch of events into their users' embedding rows.

        Unknown users/POIs are counted and skipped (a live stream will
        contain entities the offline vocabulary has never seen; growing
        the vocabulary is retraining's job, not fold-in's).  Returns the
        cumulative :class:`UpdateStats` snapshot.
        """
        user_rows: List[int] = []
        poi_rows: List[int] = []
        for event in events:
            u = self.index.users.get(event.user_id, -1)
            p = self.index.pois.get(event.poi_id, -1)
            if u < 0 or p < 0:
                self.stats.events_skipped += 1
                continue
            user_rows.append(u)
            poi_rows.append(p)
            history = self._history.setdefault(u, [])
            history.append(p)
            del history[:-self.max_history_per_user]
            self._fresh[u] = self._fresh.get(u, 0) + 1
            self._touched_ids.add(event.user_id)
            self.stats.events_ingested += 1
            self.stats.last_seq = max(self.stats.last_seq, event.seq)
        if not user_rows:
            self._publish_metrics()
            return self.stats

        users = np.array(user_rows, dtype=np.int64)
        pois = np.array(poi_rows, dtype=np.int64)
        # Mark visited *before* fold-in, as fold_in_user does, so a
        # just-ingested POI is never drawn as a negative against itself.
        self._mark_visited(users, pois)
        self._fold_in(users, pois)
        self.stats.users_touched = len(self._history)
        self._publish_metrics()
        return self.stats

    def fold_in_user(self, user_row: int, poi_rows: np.ndarray) -> None:
        """Fold one user's fresh check-ins (model rows) in as a batch of one.

        The check-ins are marked visited *before* the BPR steps, so they
        are never drawn as negatives against themselves.  They are not
        added to the retrain history.  Raises ``ValueError``, before any
        state changes, when the user would have no unvisited pool POI
        left to draw negatives from.
        """
        pool = self._pool[~np.isin(self._pool, poi_rows)]
        if self._is_visited(user_row * self._poi_key + pool).all():
            raise ValueError("no unvisited POI left in the negative pool")
        users = np.full(len(poi_rows), user_row, dtype=np.int64)
        self._mark_visited(users, poi_rows)
        self._fold_in(users, poi_rows)

    def _fold_in(self, user_rows: np.ndarray,
                 poi_rows: np.ndarray) -> None:
        """Batched BPR fold-in: move only the touched rows."""
        pos = np.repeat(poi_rows, self.num_negatives)
        users = np.repeat(user_rows, self.num_negatives)
        touched = np.unique(user_rows)
        weight = self.model.user_embeddings.weight
        was_training = self.model.training
        self.model.eval()
        try:
            with self.model.trainable_only(weight):
                for _ in range(self.fold_in_steps):
                    neg = self._sample_negatives(users)
                    self._bpr_backward(weight, users, pos, neg)
                    grad = weight.grad
                    if grad is None:
                        break
                    if hasattr(grad, "to_dense"):
                        grad = grad.to_dense()
                    weight.data[touched] -= \
                        self.learning_rate * grad[touched]
                    self.stats.fold_in_steps += 1
        finally:
            self.model.zero_grad()
            if was_training:
                self.model.train()

    def _bpr_backward(self, weight, users: np.ndarray, pos: np.ndarray,
                      neg: np.ndarray) -> None:
        """Set ``weight.grad`` to the gradient of the mean BPR loss.

        The previous step's gradient is dropped *after* this forward,
        not before it.  That gradient was the step's last allocation
        and sits at the top of the heap; while it lives, the memory the
        previous step freed below it cannot be trimmed, so the forward
        reuses those pages instead of returning them to the OS and
        faulting them back in.  On the e2e ``stream`` world with 3040
        replayed pairs that cuts page faults per retrain step from
        ~2280 to ~470.
        """
        pos_logits = self.model.interaction_logits(users, pos)
        neg_logits = self.model.interaction_logits(users, neg)
        loss = -(pos_logits - neg_logits).log_sigmoid().mean()
        weight.zero_grad()
        loss.backward()

    # ------------------------------------------------------------------
    # Periodic retrain: Adam sparse_mode over a bounded replay set
    # ------------------------------------------------------------------
    def _replay_rows(self) -> Tuple[np.ndarray, np.ndarray]:
        """(user rows, POI rows) one retrain round replays.

        The rows ingested since the last round that are still retained,
        plus a uniform sample without replacement of the older retained
        rows, as many as the new ones (all of them when there are
        fewer).  Rows keep their history order.  Consumes the new set.
        """
        users: List[int] = []
        pois: List[int] = []
        fresh: List[bool] = []
        for u, history in self._history.items():
            new = min(self._fresh.get(u, 0), len(history))
            users.extend([u] * len(history))
            pois.extend(history)
            fresh.extend([False] * (len(history) - new) + [True] * new)
        self._fresh.clear()
        keep = np.array(fresh, dtype=bool)
        older = np.flatnonzero(~keep)
        num_new = len(fresh) - older.size
        if older.size > num_new:
            older = self._rng.choice(older, size=num_new, replace=False)
        keep[older] = True
        return (np.array(users, dtype=np.int64)[keep],
                np.array(pois, dtype=np.int64)[keep])

    def retrain(self, steps: Optional[int] = None) -> UpdateStats:
        """Replay the new rows and a sample of older ones through sparse Adam.

        The replay set is :meth:`_replay_rows`: at most twice the rows
        ingested since the last round, whatever the retained history
        holds.  A call with nothing new does nothing and counts no
        round.  Only the user-embedding parameter is given to the
        optimizer and ``sparse_grad`` is enabled for the duration, so
        each backward produces a :class:`SparseRowGrad` over exactly the
        touched rows and ``sparse_mode="exact"`` updates nothing else —
        bit-identical to a dense pass restricted to those rows, at
        touched-set cost.  Every other parameter is frozen for the round
        (see the module docstring).  The ``streaming.retrain_rows``
        gauge records the pairs replayed per step: replayed rows ×
        ``num_negatives``.
        """
        if not self._fresh:
            return self.stats
        steps = self.retrain_steps if steps is None else steps
        check_positive("steps", steps)

        rows, positives = self._replay_rows()
        user_rows = np.repeat(rows, self.num_negatives)
        pos = np.repeat(positives, self.num_negatives)

        weight = self.model.user_embeddings.weight
        was_training = self.model.training
        was_sparse = self.model.user_embeddings.sparse_grad
        self.model.eval()
        self.model.user_embeddings.sparse_grad = True
        started = time.perf_counter()
        optimizer = Adam([weight], lr=self.retrain_lr,
                         sparse_mode="exact")
        try:
            with self.model.trainable_only(weight):
                for _ in range(steps):
                    neg = self._sample_negatives(user_rows)
                    self._bpr_backward(weight, user_rows, pos, neg)
                    optimizer.step()
        finally:
            self.model.zero_grad()
            self.model.user_embeddings.sparse_grad = was_sparse
            if was_training:
                self.model.train()
        self.stats.retrain_rounds += 1
        if self._registry is not None:
            self._registry.gauge("streaming.retrain_rows").set(
                float(user_rows.size))
            self._registry.counter("streaming.retrain_rounds").inc()
            self._registry.histogram("streaming.retrain_ms").observe(
                (time.perf_counter() - started) * 1000.0)
        return self.stats

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def touched_users(self) -> List[int]:
        """Dataset user ids touched since the last :meth:`drain_touched`."""
        return sorted(self._touched_ids)

    def drain_touched(self) -> List[int]:
        """Return-and-clear the touched set (feeds cache invalidation)."""
        touched = sorted(self._touched_ids)
        self._touched_ids.clear()
        return touched

    def _publish_metrics(self) -> None:
        if self._registry is None:
            return
        ingested = self.stats.events_ingested - self._published_ingested
        skipped = self.stats.events_skipped - self._published_skipped
        if ingested:
            self._registry.counter("streaming.events_ingested").inc(ingested)
        if skipped:
            self._registry.counter("streaming.events_skipped").inc(skipped)
        self._published_ingested = self.stats.events_ingested
        self._published_skipped = self.stats.events_skipped
        self._registry.gauge("streaming.users_touched").set(
            float(self.stats.users_touched))
