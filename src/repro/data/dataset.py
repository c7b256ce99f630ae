"""The check-in dataset container.

``CheckinDataset`` joins POIs and check-in events and provides the views
the rest of the library needs: per-city slices, per-user profiles
(Definition 3), visit-count matrices, and the user/POI/word index built
for embedding tables.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, Iterable, List, Sequence, Set, Tuple

import numpy as np

from repro.data.records import POI, CheckinRecord
from repro.data.vocabulary import DatasetIndex


class CheckinDataset:
    """An immutable collection of POIs and check-in records.

    Parameters
    ----------
    pois:
        All POIs referenced by the check-ins (extra POIs are allowed and
        kept — target-city POIs with no training check-ins still need to
        be rankable).
    checkins:
        Check-in events; each must reference a known POI.
    """

    def __init__(self, pois: Iterable[POI],
                 checkins: Iterable[CheckinRecord]) -> None:
        self.pois: Dict[int, POI] = {}
        for poi in pois:
            if poi.poi_id in self.pois:
                raise ValueError(f"duplicate poi_id {poi.poi_id}")
            self.pois[poi.poi_id] = poi
        self.checkins: List[CheckinRecord] = list(checkins)
        for record in self.checkins:
            if record.poi_id not in self.pois:
                raise ValueError(
                    f"check-in references unknown poi_id {record.poi_id}"
                )
            expected_city = self.pois[record.poi_id].city
            if record.city != expected_city:
                raise ValueError(
                    f"check-in city {record.city!r} does not match POI city "
                    f"{expected_city!r} for poi_id {record.poi_id}"
                )
        self._by_user: Dict[int, List[CheckinRecord]] = defaultdict(list)
        self._by_city: Dict[str, List[CheckinRecord]] = defaultdict(list)
        for record in self.checkins:
            self._by_user[record.user_id].append(record)
            self._by_city[record.city].append(record)

    # ------------------------------------------------------------------
    # Basic views
    # ------------------------------------------------------------------
    @property
    def users(self) -> Set[int]:
        """All user ids with at least one check-in."""
        return set(self._by_user)

    @property
    def cities(self) -> List[str]:
        """All city names appearing on POIs, sorted."""
        return sorted({poi.city for poi in self.pois.values()})

    def num_checkins(self) -> int:
        return len(self.checkins)

    def user_profile(self, user_id: int) -> List[CheckinRecord]:
        """The user's check-ins, ordered by timestamp (Definition 3)."""
        return sorted(self._by_user.get(user_id, []),
                      key=lambda r: r.timestamp)

    def checkins_in_city(self, city: str) -> List[CheckinRecord]:
        """All check-ins whose POI is in ``city``."""
        return list(self._by_city.get(city, []))

    def pois_in_city(self, city: str) -> List[POI]:
        """All POIs located in ``city``, sorted by id."""
        return sorted((p for p in self.pois.values() if p.city == city),
                      key=lambda p: p.poi_id)

    def pois_of_user(self, user_id: int) -> Set[int]:
        """The set of POI ids a user has checked in at (any city)."""
        return {record.poi_id for record in self._by_user.get(user_id, [])}

    def cities_of_user(self, user_id: int) -> Set[str]:
        """The set of cities a user has checked in."""
        return {record.city for record in self._by_user.get(user_id, [])}

    def users_in_city(self, city: str) -> Set[int]:
        """Users with at least one check-in in ``city``."""
        return {record.user_id for record in self._by_city.get(city, [])}

    # ------------------------------------------------------------------
    # Aggregations
    # ------------------------------------------------------------------
    def visit_counts(self) -> Counter:
        """``Counter`` of check-ins per POI id (ItemPop's signal)."""
        return Counter(record.poi_id for record in self.checkins)

    def user_poi_pairs(self) -> List[Tuple[int, int]]:
        """Distinct observed (user, POI) interaction pairs."""
        return sorted({(r.user_id, r.poi_id) for r in self.checkins})

    def vocabulary(self) -> List[str]:
        """All words over all POI descriptions, sorted."""
        words: Set[str] = set()
        for poi in self.pois.values():
            words.update(poi.words)
        return sorted(words)

    def build_index(self) -> DatasetIndex:
        """Construct the user/POI/word index for embedding tables.

        Users and POIs are indexed in sorted-id order; words in sorted
        order — deterministic regardless of record order.
        """
        return DatasetIndex(
            user_ids=sorted(self._by_user),
            poi_ids=sorted(self.pois),
            words=self.vocabulary(),
        )

    # ------------------------------------------------------------------
    # Restriction / combination
    # ------------------------------------------------------------------
    def restrict_to_cities(self, cities: Sequence[str]) -> "CheckinDataset":
        """Sub-dataset with only POIs and check-ins in ``cities``."""
        wanted = set(cities)
        pois = [p for p in self.pois.values() if p.city in wanted]
        checkins = [r for r in self.checkins if r.city in wanted]
        return CheckinDataset(pois, checkins)

    def without_users(self, user_ids: Iterable[int]) -> "CheckinDataset":
        """Sub-dataset dropping all check-ins of the given users."""
        drop = set(user_ids)
        checkins = [r for r in self.checkins if r.user_id not in drop]
        return CheckinDataset(self.pois.values(), checkins)

    def interaction_matrix(self, index: DatasetIndex) -> np.ndarray:
        """Dense user × POI visit-count matrix under ``index``.

        Users or POIs absent from ``index`` are skipped (e.g. test-only
        entities when building from a training index).
        """
        matrix = np.zeros((index.num_users, index.num_pois))
        for record in self.checkins:
            u = index.users.get(record.user_id)
            v = index.pois.get(record.poi_id)
            if u >= 0 and v >= 0:
                matrix[u, v] += 1.0
        return matrix

    def __repr__(self) -> str:
        return (f"CheckinDataset(pois={len(self.pois)}, "
                f"checkins={len(self.checkins)}, users={len(self._by_user)}, "
                f"cities={self.cities})")
