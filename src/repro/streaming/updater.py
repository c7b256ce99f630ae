"""Incremental model updates: the project's one BPR fold-in.

:class:`IncrementalUpdater` folds fresh check-ins into user embeddings
in two tiers:

1. **Fold-in** — a few BPR gradient steps that move *only the touched
   users'* embedding rows, vectorized across the whole batch (one
   forward per step, not one per user).  :meth:`ingest` runs it on a
   batch of stream events; :meth:`fold_in_user` on one user's
   check-ins, as a batch of one — the serving path behind
   :meth:`repro.serving.RecommendationService.fold_in`.
2. **Periodic retrain** — :meth:`retrain` replays the rows
   ingested since the last round plus an equal-size uniform sample of
   the older retained history, so a round costs O(burst), not
   O(history).  Its Adam carries moments for exactly the replayed
   users and never writes the rest of the table.

Both tiers differentiate only the path to the user table.  Each step
is one :class:`repro.core.model.UserSideBPR` call: a closed-form numpy
forward/backward of the mean BPR loss through the interaction tower,
with the POI table, ``poi_bias`` and the tower held constant.  It runs
the numpy operations the autograd tape runs for the same loss (the
reference in ``tests/oracle``), in the same order, and the steps apply
its rows with the backend's ``scatter_rows`` for the fold-in's dense
gradient, a first-occurrence coalesce and ``adam_update`` for the
retrain.  So the updated rows are bit-identical to a tape backward
through every parameter followed by the same SGD step, or, for the
retrain, to a tape backward over one lookup of the concatenated pairs,
then Adam (``tests/test_streaming_updater.py::TestFrozenBackward``).
Everything fixed for a round is built once per :meth:`ingest`,
:meth:`fold_in_user` or :meth:`retrain` call: the positive POI rows
and biases, the unique users, and a boolean visited table over (user,
negative-pool POI).

Negative sampling mirrors
:meth:`repro.data.sampling.InteractionSampler.sample_negatives_batch`
— bulk draws from the pool, bounded rejection rounds against the
visited set (base dataset ∪ ingested stream) — scoped to the touched
users.  Membership is one lookup in the round's visited table.

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

from repro.core.model import STTransRec, UserSideBPR
from repro.data.dataset import CheckinDataset
from repro.data.vocabulary import DatasetIndex
from repro.nn.backend import active_backend as _xp
from repro.obs.metrics import MetricsRegistry
from repro.streaming.events import CheckinEvent
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import check_positive

__all__ = ["IncrementalUpdater", "UpdateStats"]

_MAX_REJECTION_ROUNDS = 100
# Adam's defaults (Kingma & Ba), as repro.nn.optim.Adam has them.
_ADAM_BETAS = (0.9, 0.999)
_ADAM_EPS = 1e-8


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

    def _visited_mask(self, unique_users: np.ndarray) -> np.ndarray:
        """Boolean (user, pool position) table: has the user visited it."""
        return self._is_visited(
            unique_users[:, None].astype(np.int64) * self._poi_key
            + self._pool)

    def _sample_negatives(self, user_rows: np.ndarray) -> np.ndarray:
        """One negative per entry of ``user_rows``, never a visited POI."""
        unique, inverse = np.unique(user_rows, return_inverse=True)
        return self._draw_negatives(self._visited_mask(unique), inverse)

    def _draw_negatives(self, visited: np.ndarray,
                        inverse: np.ndarray) -> np.ndarray:
        """Bulk draws from the pool, visited ones redrawn in rounds.

        ``visited`` is :meth:`_visited_mask` over the unique users and
        ``inverse`` maps each entry to its row there.  Every round
        redraws exactly the entries still on a visited POI, in index
        order, so the generator sees the same calls whatever the
        membership test costs.
        """
        pool = self._pool
        at = self._rng.integers(0, pool.size, size=inverse.size)
        redo = np.flatnonzero(visited[inverse, at])
        rounds = 0
        while redo.size and rounds < _MAX_REJECTION_ROUNDS:
            at[redo] = self._rng.integers(0, pool.size, size=redo.size)
            redo = redo[visited[inverse[redo], at[redo]]]
            rounds += 1
        return pool[at]

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

    def _round(self, user_rows: np.ndarray, poi_rows: np.ndarray
               ) -> Tuple[UserSideBPR, np.ndarray]:
        """What one fold-in or retrain round holds fixed for its steps.

        The round's :class:`UserSideBPR` over every (user, positive)
        pair repeated ``num_negatives`` times, and the visited table of
        its unique users (:meth:`_visited_mask`).
        """
        bpr = UserSideBPR(self.model,
                          np.repeat(user_rows, self.num_negatives),
                          np.repeat(poi_rows, self.num_negatives))
        return bpr, self._visited_mask(bpr.unique)

    def _fold_in(self, user_rows: np.ndarray,
                 poi_rows: np.ndarray) -> None:
        """Batched BPR fold-in: SGD on only the touched rows.

        Each branch's per-pair rows are scattered onto the unique users
        by the backend's ``scatter_rows`` and the two are added — the
        dense gradient a backward through the embedding table forms,
        restricted to the rows it can change.
        """
        started = time.perf_counter()
        bpr, visited = self._round(user_rows, poi_rows)
        table = self.model.user_embeddings.weight.data
        scatter = _xp().scatter_rows
        n = bpr.unique.size
        for _ in range(self.fold_in_steps):
            pos_grad, neg_grad = bpr.grads(
                self._draw_negatives(visited, bpr.inverse))
            grad = scatter(bpr.inverse, pos_grad, n) \
                + scatter(bpr.inverse, neg_grad, n)
            table[bpr.unique] -= self.learning_rate * grad
            self.stats.fold_in_steps += 1
        if self._registry is not None:
            self._registry.histogram("streaming.fold_in_ms").observe(
                (time.perf_counter() - started) * 1000.0)

    # ------------------------------------------------------------------
    # Periodic retrain: Adam over a bounded replay set
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
        """Replay the new rows and a sample of older ones through Adam.

        The replay set is :meth:`_replay_rows`: at most twice the rows
        ingested since the last round, whatever the retained history
        holds.  A call with nothing new does nothing and counts no
        round.  Each round is a fresh Adam (Kingma & Ba defaults, step
        ``retrain_lr``) whose moments cover only the replayed users:
        rows outside them would get an update of exactly ``0.0``.  A
        step's gradient coalesces the positive branch's per-pair rows
        ahead of the negative branch's, summing duplicates in
        first-occurrence order, and ``adam_update`` applies it: the
        bits of a tape backward (``tests/oracle``) over one lookup of
        the concatenated pairs (positives, then negatives), then
        :class:`repro.nn.optim.Adam`.
        The ``streaming.retrain_rows`` gauge records the pairs replayed
        per step: replayed rows × ``num_negatives``.
        """
        if not self._fresh:
            return self.stats
        steps = self.retrain_steps if steps is None else steps
        check_positive("steps", steps)

        rows, positives = self._replay_rows()
        started = time.perf_counter()
        bpr, visited = self._round(rows, positives)
        table = self.model.user_embeddings.weight.data
        xp = _xp()
        n = bpr.unique.size
        inverse = np.concatenate([bpr.inverse, bpr.inverse])
        m = np.zeros((n,) + table.shape[1:], dtype=table.dtype)
        v = np.zeros_like(m)
        beta1, beta2 = _ADAM_BETAS
        for t in range(1, steps + 1):
            branches = bpr.grads(
                self._draw_negatives(visited, bpr.inverse))
            grad = xp.scatter_rows(inverse, np.concatenate(branches), n)
            table[bpr.unique] -= xp.adam_update(
                m, v, grad, self.retrain_lr, beta1, beta2, _ADAM_EPS,
                1.0 - beta1**t, 1.0 - beta2**t)
        self.stats.retrain_rounds += 1
        if self._registry is not None:
            self._registry.gauge("streaming.retrain_rows").set(
                float(bpr.users.size))
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
