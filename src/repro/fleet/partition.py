"""Deterministic partitioning and merge rules for the serving fleet.

Everything in this module is pure arithmetic on plain ints/floats —
no randomness, no process state — because the router's correctness
story leans on it twice:

* **Routing is a function, not a table.**  ``shard_for_user`` maps a
  user index to its home shard with a multiplicative hash, and
  ``route_user`` degrades that choice onto the surviving shards
  deterministically.  Any process (router, test, replayed log) computes
  the same placement, so there is no assignment state to lose when a
  shard dies.
* **Merge order never changes results.**  ``merge_topk`` combines
  per-shard partial top-Ks under exactly the ordering the engine's own
  ``np.argsort(-scores, kind="stable")`` produces — descending score,
  ties broken by ascending catalogue position — so a fanned-out
  ranking is the single-process ranking, regardless of which shard
  scored which slice or in what order replies arrived.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

__all__ = [
    "shard_for_user",
    "route_user",
    "failover_shard",
    "group_by_shard",
    "split_catalogue",
    "merge_topk",
]

# Knuth's multiplicative hash constant (2^32 / phi); scrambles the
# low bits of sequential user indices so contiguous index ranges don't
# all land on one shard.
_KNUTH = 2654435761
_MASK32 = 0xFFFFFFFF


def shard_for_user(user_index: int, num_shards: int) -> int:
    """Home shard of a user index (stable across processes and runs)."""
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    return ((int(user_index) * _KNUTH) & _MASK32) % num_shards


def route_user(user_index: int, num_shards: int,
               live_shards: Sequence[int]) -> int:
    """Home shard if alive, else a deterministic surviving shard.

    Failover folds the home slot onto the sorted live list (``home mod
    len(live)``): every user of a dead shard moves to the *same*
    survivor, chosen without coordination, and moves back the moment
    the home shard is respawned.  Because every shard serves the full
    catalogue from the same shared parameter block, any placement is
    correct — failover degrades capacity, never results.
    """
    return failover_shard(shard_for_user(user_index, num_shards),
                          live_shards)


def failover_shard(shard: int, live_shards: Sequence[int]) -> int:
    """``shard`` if alive, else its fold onto the sorted live list.

    The failover rule of :func:`route_user`, applied to a shard slot:
    the router re-sends a whole-user batch lost with its shard here,
    unchanged, so the batch keeps the shape it was scored in.
    """
    live = sorted(live_shards)
    if not live:
        raise ValueError("no live shards to route to")
    if shard in live:
        return shard
    return live[shard % len(live)]


def group_by_shard(entries: Iterable[Tuple[int, int]], num_shards: int,
                   live_shards: Sequence[int]
                   ) -> Dict[int, List[Tuple[int, int]]]:
    """Group ``(user_id, user_index)`` entries by routed shard.

    Preserves input order within each group, so per-shard request
    payloads (and therefore replies) line up positionally.
    """
    live = sorted(live_shards)
    groups: Dict[int, List[Tuple[int, int]]] = {}
    for entry in entries:
        shard = route_user(entry[1], num_shards, live)
        groups.setdefault(shard, []).append(entry)
    return groups


def split_catalogue(catalogue_size: int,
                    num_parts: int) -> List[Tuple[int, int]]:
    """Contiguous ``[lo, hi)`` slices covering the catalogue.

    Sizes differ by at most one; empty slices are never produced (fewer
    parts come back when the catalogue is smaller than ``num_parts``).
    """
    if catalogue_size < 1:
        raise ValueError(
            f"catalogue_size must be >= 1, got {catalogue_size}")
    if num_parts < 1:
        raise ValueError(f"num_parts must be >= 1, got {num_parts}")
    parts = min(num_parts, catalogue_size)
    base, extra = divmod(catalogue_size, parts)
    slices: List[Tuple[int, int]] = []
    lo = 0
    for i in range(parts):
        hi = lo + base + (1 if i < extra else 0)
        slices.append((lo, hi))
        lo = hi
    return slices


def merge_topk(partials: Iterable[Tuple[int, int, float]],
               k: int) -> List[Tuple[int, float]]:
    """Merge ``(position, poi_id, score)`` partials into one top-K.

    Ordering matches :meth:`InferenceEngine.top_k_catalogue` exactly:
    descending score, ties broken by ascending catalogue position (the
    stable-argsort tie-break).  The result is independent of the order
    partials are supplied in, so shard reply order — which varies with
    scheduling and failover — can never change a ranking.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    ranked = sorted(partials, key=lambda item: (-item[2], item[0]))
    return [(int(poi_id), float(score))
            for _position, poi_id, score in ranked[:k]]
