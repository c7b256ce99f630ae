"""Frozen batched inference engine: the one scoring path.

The model's scores (Eq. 12) as a plain pass would compute them —
gather each (user, POI) pair's rows, concatenate the
``[x_u, x_v, x_u ⊙ x_v]`` feature block and run the full tower per pair
— re-do the catalogue's share of the work for every request.  Serving,
the offline :class:`~repro.core.recommend.Recommender` and evaluation
all score through this engine instead; the same scores on the autograd
tape (``tests/oracle``'s ``score_pois_for_user``) are its parity
reference.

:class:`InferenceEngine` freezes a trained model into contiguous numpy
buffers and restructures the computation around what serving actually
does: score *one catalogue* (the target city's POIs) for *many users*.

Three properties make the hot path fast:

* **Frozen buffers.**  All arithmetic is plain ``numpy`` on pre-copied
  parameter buffers.
* **Catalogue-side precomputation.**  The first tower layer consumes
  ``[x_u, x_v, x_u ⊙ x_v] @ W1``; splitting ``W1`` by input block turns
  it into ``x_u @ W1_u + x_v @ W1_v (+ (x_v ⊙ x_u) @ W1_p)``.  The
  ``x_v @ W1_v + b1`` term depends only on the catalogue and is computed
  once at engine build time, so each request pays only the user-side
  pieces.
* **Cache-sized tiles.**  A batch's (user, POI) pairs run through the
  tower a few users at a time, every layer writing into the same
  L2-sized scratch (:meth:`InferenceEngine.score_catalogue`).

The engine is numerically equivalent to the model it was built from
(same float64 arithmetic, dropout off), verified by the parity tests in
``tests/test_serving_engine.py``.
"""

from __future__ import annotations

import threading
from array import array
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, \
    Tuple, Union

import numpy as np

from repro.core.model import STTransRec
from repro.data.dataset import CheckinDataset
from repro.data.vocabulary import DatasetIndex
from repro.nn.backend import active_backend
from repro.nn.dtypes import coerce
from repro.nn.layers import Linear

__all__ = ["Exclusions", "InferenceEngine"]

# (user, POI) pair rows per scoring tile, rounded down to whole users.
# At the paper tower (d = 64, widths 192 → 128 → 64 → 32 → 16, float32)
# a tile's scratch is ~1.7 MB, inside one core's 2 MB L2;
# docs/performance.md has the sweep that picked it.
_CHUNK_ROWS = 1024

# Batches of fewer users than this rank with one full stable sort: for up
# to three rows it beats the partition, threshold and tie-break passes of
# :func:`_smallest_k`.
_SORT_ROWS = 4

# Bytes per packed id: the item size of both np.int64 and array("q").
_ID_BYTES = np.dtype(np.int64).itemsize


class Exclusions(NamedTuple):
    """Dataset POI ids to exclude from a batch's rankings, flattened.

    Both fields pack native int64 values into bytes: ``ids`` holds every
    user's ids back to back, and once :meth:`arrays` unpacks the two,
    user ``i``'s ids are ``ids[offsets[i]:offsets[i + 1]]``.  This is the
    one exclusion payload :meth:`InferenceEngine.top_k_slice` ranks
    against, and what a fleet ``topk`` unit carries over the pipe: the
    router keeps each user's ids packed, so a unit is joined and pickled
    without a numpy call (a Python set per user pickles id by id).  Ids
    outside the catalogue are ignored, so callers may pass unfiltered
    ids.
    """

    ids: bytes
    offsets: bytes

    @staticmethod
    def pack(ids: Optional[Iterable[int]]) -> bytes:
        """One user's ids as packed int64 (``None`` excludes nothing)."""
        if ids is None:
            return b""
        return np.fromiter(ids, dtype=np.int64).tobytes()

    @classmethod
    def join(cls, packed: Sequence[bytes]) -> "Exclusions":
        """One user's :meth:`pack`-ed ids per batch row, flattened."""
        offsets = array("q", [0])
        for ids in packed:
            offsets.append(offsets[-1] + len(ids) // _ID_BYTES)
        return cls(b"".join(packed), offsets.tobytes())

    @classmethod
    def of(cls, per_user: Sequence[Optional[Iterable[int]]]
           ) -> "Exclusions":
        """Flatten one id collection per user (``None`` excludes
        nothing)."""
        return cls.join([cls.pack(ids) for ids in per_user])

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(ids, offsets)`` as read-only int64 arrays."""
        return (np.frombuffer(self.ids, dtype=np.int64),
                np.frombuffer(self.offsets, dtype=np.int64))

    @property
    def num_users(self) -> int:
        return len(self.offsets) // _ID_BYTES - 1


def _smallest_k(keys: np.ndarray, k: int) -> np.ndarray:
    """Columns of each row's ``k`` smallest keys, in ascending key order
    with ties by ascending column: exactly
    ``np.argsort(keys, axis=1, kind="stable")[:, :k]`` for NaN-free keys.

    A partition finds each row's k-th key; the keys below it and, in
    column order, as many of its ties as fill the row to ``k`` are the
    chosen columns, and only those ``k`` are stable-sorted.
    """
    rows, width = keys.shape
    if k >= width or rows < _SORT_ROWS:
        return keys.argsort(axis=1, kind="stable")[:, :k]
    kth = np.partition(keys, k - 1, axis=1)[:, k - 1:k]
    chosen = keys <= kth
    taken = np.count_nonzero(chosen, axis=1)
    if (taken > k).any():
        # More than k keys reach the k-th: keep the first ties only.
        ties = keys == kth
        room = k - taken + np.count_nonzero(ties, axis=1)
        chosen &= ~ties | (np.cumsum(ties, axis=1) <= room[:, np.newaxis])
    columns = np.nonzero(chosen)[1].reshape(rows, k)
    ranked = np.argsort(np.take_along_axis(keys, columns, axis=1), axis=1,
                        kind="stable")
    return np.take_along_axis(columns, ranked, axis=1)


class InferenceEngine:
    """Scores batches of users against a fixed POI catalogue.

    Parameters
    ----------
    model:
        A trained :class:`STTransRec`.  Its parameters are *copied* into
        the engine; later training steps do not leak into served scores
        unless :meth:`refresh_user` / :meth:`refresh` is called.
    index:
        The entity index the model was trained under.
    catalogue_poi_ids:
        Dataset ids of the POIs this engine serves (typically the
        target city's catalogue), in ranking order.
    dtype:
        Arithmetic precision of the serving buffers.  ``float64``
        (default) is bit-for-bit faithful to the model; ``float32``
        roughly triples throughput at ~1e-7 score error — the usual
        serving trade.
    """

    def __init__(self, model: STTransRec, index: DatasetIndex,
                 catalogue_poi_ids: Sequence[int],
                 dtype=np.float64) -> None:
        if len(catalogue_poi_ids) == 0:
            raise ValueError("catalogue must contain at least one POI")
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ValueError(f"dtype must be float32/float64, got {dtype}")
        self._model = model
        self.index = index
        self.catalogue_poi_ids = np.asarray(list(catalogue_poi_ids),
                                            dtype=np.int64)
        self.catalogue_poi_indices = np.array(
            [index.pois.index_of(int(p)) for p in self.catalogue_poi_ids],
            dtype=np.int64,
        )
        self._index_catalogue()
        self._lock = threading.RLock()
        self._materialize(model)
        # Serving stats.
        self.batches_scored = 0
        self.users_scored = 0
        self.pairs_scored = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_model(cls, model: STTransRec, index: DatasetIndex,
                   dataset: CheckinDataset, target_city: str,
                   dtype=np.float64) -> "InferenceEngine":
        """Build an engine serving ``target_city``'s POI catalogue."""
        pois = dataset.pois_in_city(target_city)
        if not pois:
            raise ValueError(f"no POIs in target city {target_city!r}")
        return cls(model, index, [p.poi_id for p in pois], dtype=dtype)

    @classmethod
    def from_checkpoint(cls, path, dataset: CheckinDataset,
                        target_city: str,
                        dtype=np.float64) -> "InferenceEngine":
        """Load a checkpoint and build an engine from it."""
        from repro.core.checkpoint import load_checkpoint

        model, index = load_checkpoint(path)
        return cls.from_model(model, index, dataset, target_city,
                              dtype=dtype)

    # ------------------------------------------------------------------
    # Frozen-buffer export / attach (the serving-fleet path)
    # ------------------------------------------------------------------
    def serving_state(self) -> Dict[str, np.ndarray]:
        """Every frozen buffer this engine scores with, as named arrays.

        The flat dict (stable names, fixed shapes) is the manifest the
        sharded fleet publishes into a shared-memory parameter block:
        it contains the materialized *serving* view — split first-layer
        weights and catalogue-side precomputations included — so an
        attached engine does no arithmetic at build time.  Catalogue
        identity rides along as int64 arrays.
        """
        with self._lock:
            state = {
                "user_emb": self._user_emb,
                "poi_emb": self._poi_emb,
                "poi_bias": self._poi_bias,
                "w1_user": self._w1_user,
                "w1_poi": self._w1_poi,
                "b1": self._b1,
                "head_w": self._head_w,
                "head_b": self._head_b,
                "cat_emb": self._cat_emb,
                "cat_first": self._cat_first,
                "cat_bias": self._cat_bias,
                "catalogue_poi_ids": self.catalogue_poi_ids,
                "catalogue_poi_indices": self.catalogue_poi_indices,
            }
            if self._w1_prod is not None:
                state["w1_prod"] = self._w1_prod
            for i, (w, b) in enumerate(self._hidden_rest):
                state[f"hidden.{i}.weight"] = w
                state[f"hidden.{i}.bias"] = b
        return state

    @classmethod
    def from_serving_state(cls, state: Dict[str, np.ndarray],
                           dtype=np.float64) -> "InferenceEngine":
        """Build an engine directly over externally-owned buffers.

        The inverse of :meth:`serving_state`: no model, no
        materialization — the arrays are installed as-is, which is what
        lets fleet shards score out of read-only shared-memory views
        without ever holding a private copy of the tables.  An engine
        built this way cannot :meth:`refresh` (it has no source model,
        and its buffers may be non-writeable by design).
        """
        engine = cls.__new__(cls)
        engine.dtype = np.dtype(dtype)
        engine._model = None
        engine.index = None
        engine.catalogue_poi_ids = np.asarray(state["catalogue_poi_ids"],
                                              dtype=np.int64)
        engine.catalogue_poi_indices = np.asarray(
            state["catalogue_poi_indices"], dtype=np.int64)
        engine._index_catalogue()
        engine._lock = threading.RLock()
        engine._user_emb = state["user_emb"]
        engine._poi_emb = state["poi_emb"]
        engine._poi_bias = state["poi_bias"]
        engine._w1_user = state["w1_user"]
        engine._w1_poi = state["w1_poi"]
        engine._w1_prod = state.get("w1_prod")
        engine._b1 = state["b1"]
        engine._head_w = state["head_w"]
        engine._head_b = state["head_b"]
        engine._cat_emb = state["cat_emb"]
        engine._cat_first = state["cat_first"]
        engine._cat_bias = state["cat_bias"]
        engine.embedding_dim = int(engine._w1_user.shape[0])
        engine._product_features = engine._w1_prod is not None
        hidden: List[Tuple[np.ndarray, np.ndarray]] = []
        for i in range(len(state)):
            if f"hidden.{i}.weight" not in state:
                break
            hidden.append((state[f"hidden.{i}.weight"],
                           state[f"hidden.{i}.bias"]))
        engine._hidden_rest = hidden
        engine.batches_scored = 0
        engine.users_scored = 0
        engine.pairs_scored = 0
        return engine

    def _index_catalogue(self) -> None:
        """Sorted catalogue ids and their positions, for mapping
        excluded ids to positions with one ``searchsorted``.  The sort
        is stable, so a duplicated id's last entry holds its last
        position: the one an exclusion removes."""
        order = np.argsort(self.catalogue_poi_ids, kind="stable")
        self._sorted_ids = self.catalogue_poi_ids[order]
        self._sorted_positions = order

    # ------------------------------------------------------------------
    # Parameter materialization
    # ------------------------------------------------------------------
    def _materialize(self, model: STTransRec) -> None:
        """Copy model parameters into contiguous serving buffers."""
        d = model.config.embedding_dim
        self.embedding_dim = d
        self._product_features = (
            model.config.interaction_features == "concat_product")
        dtype = self.dtype
        # np.array(..., copy=True) — NOT ascontiguousarray, which would
        # alias an already-contiguous parameter and un-freeze the engine.
        self._user_emb = np.array(model.user_embeddings.weight.data,
                                  dtype=dtype, order="C")
        self._poi_emb = np.array(model.poi_embeddings.weight.data,
                                 dtype=dtype, order="C")
        self._poi_bias = np.array(
            model.poi_bias.weight.data.reshape(-1), dtype=dtype, order="C")

        hidden: List[Tuple[np.ndarray, np.ndarray]] = []
        for step in model.tower.tower.steps:
            if isinstance(step, Linear):
                hidden.append((
                    np.array(step.weight.data, dtype=dtype, order="C"),
                    np.array(step.bias.data, dtype=dtype, order="C"),
                ))
        if not hidden:
            raise ValueError("model tower has no Linear layers")
        w1, b1 = hidden[0]
        # Split the first layer by input block: [x_u | x_v | x_u ⊙ x_v].
        self._w1_user = np.ascontiguousarray(w1[:d])
        self._w1_poi = np.ascontiguousarray(w1[d:2 * d])
        self._w1_prod = (np.ascontiguousarray(w1[2 * d:3 * d])
                         if self._product_features else None)
        self._b1 = b1
        self._hidden_rest = hidden[1:]
        self._head_w = np.array(model.tower.head.weight.data,
                                dtype=dtype, order="C")
        self._head_b = np.array(model.tower.head.bias.data,
                                dtype=dtype, order="C")

        cat = self.catalogue_poi_indices
        # Catalogue-side constants, computed once per (re)materialization.
        self._cat_emb = np.ascontiguousarray(self._poi_emb[cat])
        self._cat_first = self._cat_emb @ self._w1_poi + self._b1
        self._cat_bias = self._poi_bias[cat]

    def refresh(self) -> None:
        """Re-copy *all* parameters from the source model."""
        if self._model is None:
            raise RuntimeError(
                "engine was attached to external serving buffers "
                "(from_serving_state); it has no source model to "
                "refresh from — republish through the parameter block "
                "owner instead")
        with self._lock:
            self._materialize(self._model)

    def refresh_user(self, user_index: int) -> None:
        """Re-copy one user's embedding row from the source model.

        Fold-in (:meth:`repro.streaming.IncrementalUpdater.fold_in_user`,
        behind :meth:`repro.serving.RecommendationService.fold_in`)
        mutates only the updated user's row, so this is the only buffer
        that must be resynchronized after an online update.
        """
        if self._model is None:
            raise RuntimeError(
                "engine was attached to external serving buffers "
                "(from_serving_state); per-user refresh must go through "
                "the parameter block owner")
        with self._lock:
            row = self._model.user_embeddings.weight.data[user_index]
            self._user_emb[user_index] = coerce(row, self.dtype)

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    @property
    def catalogue_size(self) -> int:
        return len(self.catalogue_poi_ids)

    def _buffers(self, rows: int) -> List[np.ndarray]:
        """One ``(rows, width)`` output buffer per hidden layer after the
        first, for :meth:`_tower`."""
        return [np.empty((rows, w.shape[1]), dtype=self.dtype)
                for w, _b in self._hidden_rest]

    def _tower(self, first: np.ndarray,
               buffers: List[np.ndarray]) -> np.ndarray:
        """ReLU the first-layer activations in place and run the hidden
        layers into ``buffers`` (one per layer, ``len(first)`` rows);
        returns the last hidden layer's activations."""
        h = np.maximum(first, 0.0, out=first)
        for (w, b), buf in zip(self._hidden_rest, buffers):
            h = np.matmul(h, w, out=buf)
            h += b
            np.maximum(h, 0.0, out=h)
        return h

    def _head(self, last: np.ndarray) -> np.ndarray:
        """Head logits (before the POI bias) of last-layer activations."""
        return (last @ self._head_w).reshape(len(last)) + self._head_b[0]

    def score_catalogue(self, user_indices: Sequence[int],
                        lo: int = 0,
                        hi: Optional[int] = None) -> np.ndarray:
        """Sigmoid scores of every catalogue POI for a batch of users.

        Returns an array of shape ``(len(user_indices),
        catalogue_size)``; row ``i`` matches
        :meth:`score_pois_for_user` for ``user_indices[i]`` over
        ``catalogue_poi_indices``.

        ``lo``/``hi`` restrict scoring to the contiguous catalogue slice
        ``[lo, hi)`` — the fleet's partial-top-K fanout path.  The slice
        reads the same precomputed catalogue constants as the full pass
        (just narrowed), so per-pair scores are unchanged by slicing.

        The (user, POI) pairs run through the tower in tiles of whole
        users, about :data:`_CHUNK_ROWS` pairs each, so every layer
        writes into the same cache-sized scratch instead of a fresh
        batch-sized temporary.  Two products run over the whole batch
        so that no row's bytes depend on the tiling: the user term
        ``users @ W1_u`` (a one-user tile would take BLAS's single-row
        path) and the head, a matrix-vector product whose rounding BLAS
        varies with the row count.
        """
        user_indices = np.asarray(user_indices, dtype=np.int64)
        if user_indices.ndim != 1:
            raise ValueError("user_indices must be one-dimensional")
        if hi is None:
            hi = self.catalogue_size
        if not 0 <= lo < hi <= self.catalogue_size:
            raise ValueError(
                f"invalid catalogue slice [{lo}, {hi}) for catalogue of "
                f"{self.catalogue_size}")
        cat = hi - lo
        batch = len(user_indices)
        with self._lock:
            cat_first = self._cat_first[lo:hi]
            cat_emb = self._cat_emb[lo:hi]
            users = self._user_emb[user_indices]                 # (B, d)
            user_first = users @ self._w1_user                   # (B, h)
            per = max(1, _CHUNK_ROWS // cat)                     # users/tile
            tile_rows = min(per, batch) * cat
            first_buf = np.empty((tile_rows, cat_first.shape[1]),
                                 dtype=self.dtype)
            if self._w1_prod is not None:
                pairs_buf = np.empty((tile_rows, self.embedding_dim),
                                     dtype=self.dtype)
                prod_buf = np.empty_like(first_buf)
            tile_bufs = self._buffers(tile_rows)
            # The last hidden layer of every pair, for the batch-wide head.
            last = np.empty((batch * cat, self._head_w.shape[0]),
                            dtype=self.dtype)
            for row0 in range(0, batch, per):
                n = min(per, batch - row0)
                tile = slice(row0, row0 + n)
                pair_rows = slice(row0 * cat, (row0 + n) * cat)
                # First layer, decomposed by input block and flattened
                # to single BLAS calls over all (user, POI) pairs.
                first = first_buf[:n * cat]
                np.add(cat_first[np.newaxis, :, :],
                       user_first[tile, np.newaxis, :],
                       out=first.reshape(n, cat, -1))
                if self._w1_prod is not None:
                    pairs = pairs_buf[:n * cat]
                    np.multiply(cat_emb[np.newaxis, :, :],
                                users[tile, np.newaxis, :],
                                out=pairs.reshape(n, cat, -1))
                    first += np.matmul(pairs, self._w1_prod,
                                       out=prod_buf[:n * cat])
                last[pair_rows] = self._tower(
                    first, [buf[:n * cat] for buf in tile_bufs])
            logits = self._head(last).reshape(batch, cat) \
                + self._cat_bias[lo:hi]
            self.batches_scored += 1
            self.users_scored += batch
            self.pairs_scored += logits.size
        return active_backend().stable_sigmoid(logits)

    def score_pois_for_user(self, user_index: int,
                            poi_indices: Sequence[int]) -> np.ndarray:
        """Sigmoid scores of many POIs for one user (Eq. 12).

        Accepts arbitrary POI indices (not just the catalogue); this is
        how :meth:`repro.core.recommend.Recommender.score_candidates`
        scores evaluation candidates.
        """
        poi_indices = np.asarray(poi_indices, dtype=np.int64)
        with self._lock:
            x_u = self._user_emb[user_index]
            x_v = self._poi_emb[poi_indices]
            first = x_v @ self._w1_poi + self._b1 + x_u @ self._w1_user
            if self._w1_prod is not None:
                first = first + (x_v * x_u) @ self._w1_prod
            last = self._tower(first, self._buffers(len(first)))
            logits = self._head(last) + self._poi_bias[poi_indices]
            self.batches_scored += 1
            self.users_scored += 1
            self.pairs_scored += logits.size
        return active_backend().stable_sigmoid(logits)

    # ------------------------------------------------------------------
    # Ranking
    # ------------------------------------------------------------------
    def top_k_slice(
        self, user_indices: Sequence[int], k: int, lo: int = 0,
        hi: Optional[int] = None,
        exclude_poi_ids: Union[
            Exclusions, Sequence[Optional[Iterable[int]]], None] = None,
    ) -> List[List[Tuple[int, int, float]]]:
        """Top-k of catalogue slice ``[lo, hi)`` for a batch of users.

        Returns one ``(position, poi_id, score)`` list per user, ordered
        by descending score with ties broken by ascending catalogue
        position (the stable argsort).  ``position`` is the global
        catalogue position, so partial top-Ks of different slices merge
        exactly (:func:`repro.fleet.partition.merge_topk`).

        Parameters
        ----------
        exclude_poi_ids:
            Optional dataset POI ids to exclude per user (visited-POI
            filtering): an :class:`Exclusions`, or one id collection
            per user (``None`` entries exclude nothing), which is
            flattened into one.  Ids outside the catalogue or the slice
            are ignored; a duplicated catalogue id is excluded at its
            last position.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        user_indices = np.asarray(user_indices, dtype=np.int64)
        if exclude_poi_ids is not None:
            if not isinstance(exclude_poi_ids, Exclusions):
                exclude_poi_ids = Exclusions.of(exclude_poi_ids)
            if exclude_poi_ids.num_users != len(user_indices):
                raise ValueError(
                    "exclude_poi_ids must align with user_indices")
        scores = self.score_catalogue(user_indices, lo=lo, hi=hi)
        hi = lo + scores.shape[1]
        # Rank negated scores ascending: NaN after every score, as
        # argsort puts it, excluded POIs (+inf) after everything, ties
        # in catalogue order.
        keys = np.negative(scores)
        keys[np.isnan(keys)] = np.finfo(keys.dtype).max
        if exclude_poi_ids is not None:
            keys[self._excluded_cells(exclude_poi_ids, lo, hi)] = np.inf
        order = _smallest_k(keys, k)
        row = np.arange(len(order))[:, np.newaxis]
        # Scores are sigmoids, so only an excluded key is +inf: a row
        # keeps its ranked POIs up to the first one.
        kept = (keys[row, order] != np.inf).sum(axis=1).tolist()
        positions = (order + lo).tolist()
        ids = self.catalogue_poi_ids[order + lo].tolist()
        values = scores[row, order].tolist()
        return [list(zip(p[:n], i[:n], v[:n]))
                for p, i, v, n in zip(positions, ids, values, kept)]

    def _excluded_cells(self, exclusions: Exclusions, lo: int,
                        hi: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(row, column)`` of every excluded POI inside ``[lo, hi)``,
        the column relative to ``lo``."""
        ids, offsets = exclusions.arrays()
        last = self._sorted_ids.searchsorted(ids, side="right") - 1
        # ``last`` is -1 for ids below every catalogue id; the wrapped
        # lookup then reads the largest id, which cannot match.
        hit = self._sorted_ids[last] == ids
        positions = self._sorted_positions[last]
        if lo > 0 or hi < self.catalogue_size:
            hit &= (positions >= lo) & (positions < hi)
        rows = np.arange(len(offsets) - 1).repeat(offsets[1:] - offsets[:-1])
        return rows[hit], positions[hit] - lo

    def top_k_catalogue(
        self, user_indices: Sequence[int], k: int,
        exclude_poi_ids: Union[
            Exclusions, Sequence[Optional[Iterable[int]]], None] = None,
    ) -> List[List[Tuple[int, float]]]:
        """Top-k ``(poi_id, score)`` lists for a batch of users: the
        whole-catalogue :meth:`top_k_slice` with positions stripped."""
        return [[(poi_id, score) for _pos, poi_id, score in row]
                for row in self.top_k_slice(
                    user_indices, k, exclude_poi_ids=exclude_poi_ids)]

    def stats(self) -> dict:
        """Cumulative scoring counters."""
        return {
            "batches_scored": self.batches_scored,
            "users_scored": self.users_scored,
            "pairs_scored": self.pairs_scored,
            "catalogue_size": self.catalogue_size,
        }

    def __repr__(self) -> str:
        return (f"InferenceEngine(users={len(self._user_emb)}, "
                f"catalogue={self.catalogue_size}, d={self.embedding_dim})")
