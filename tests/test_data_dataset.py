"""CheckinDataset container tests."""

import numpy as np
import pytest

from repro.data.dataset import CheckinDataset
from repro.data.records import POI, CheckinRecord


def small_world():
    pois = [
        POI(0, "a", (0.0, 0.0), ("park",)),
        POI(1, "a", (1.0, 1.0), ("museum",)),
        POI(2, "b", (0.0, 0.0), ("casino", "park")),
    ]
    checkins = [
        CheckinRecord(10, 0, "a", 1.0),
        CheckinRecord(10, 1, "a", 2.0),
        CheckinRecord(10, 2, "b", 3.0),
        CheckinRecord(11, 1, "a", 4.0),
        CheckinRecord(11, 1, "a", 5.0),
    ]
    return CheckinDataset(pois, checkins)


class TestConstruction:
    def test_duplicate_poi_rejected(self):
        poi = POI(0, "a", (0, 0), ())
        with pytest.raises(ValueError):
            CheckinDataset([poi, poi], [])

    def test_unknown_poi_reference_rejected(self):
        poi = POI(0, "a", (0, 0), ())
        with pytest.raises(ValueError):
            CheckinDataset([poi], [CheckinRecord(1, 99, "a")])

    def test_city_mismatch_rejected(self):
        poi = POI(0, "a", (0, 0), ())
        with pytest.raises(ValueError):
            CheckinDataset([poi], [CheckinRecord(1, 0, "WRONG")])


class TestViews:
    def test_users_and_cities(self):
        ds = small_world()
        assert ds.users == {10, 11}
        assert ds.cities == ["a", "b"]

    def test_user_profile_ordered_by_time(self):
        ds = small_world()
        times = [r.timestamp for r in ds.user_profile(10)]
        assert times == sorted(times)

    def test_unknown_user_profile_empty(self):
        assert small_world().user_profile(999) == []

    def test_city_slices(self):
        ds = small_world()
        assert len(ds.checkins_in_city("a")) == 4
        assert [p.poi_id for p in ds.pois_in_city("b")] == [2]

    def test_cities_of_user(self):
        ds = small_world()
        assert ds.cities_of_user(10) == {"a", "b"}
        assert ds.cities_of_user(11) == {"a"}

    def test_pois_of_user(self):
        ds = small_world()
        assert ds.pois_of_user(10) == {0, 1, 2}
        assert ds.pois_of_user(11) == {1}
        assert ds.pois_of_user(999) == set()

    def test_users_in_city(self):
        assert small_world().users_in_city("b") == {10}


class TestAggregations:
    def test_visit_counts(self):
        counts = small_world().visit_counts()
        assert counts[1] == 3
        assert counts[0] == 1

    def test_user_poi_pairs_distinct(self):
        pairs = small_world().user_poi_pairs()
        assert (11, 1) in pairs
        assert len(pairs) == 4  # repeat visit collapsed

    def test_vocabulary_sorted_unique(self):
        vocab = small_world().vocabulary()
        assert vocab == ["casino", "museum", "park"]

    def test_build_index_deterministic(self):
        ds = small_world()
        idx1, idx2 = ds.build_index(), ds.build_index()
        assert idx1.users.keys() == idx2.users.keys()
        assert idx1.num_pois == 3
        assert idx1.num_words == 3

    def test_interaction_matrix(self):
        ds = small_world()
        index = ds.build_index()
        matrix = ds.interaction_matrix(index)
        u11 = index.users.index_of(11)
        p1 = index.pois.index_of(1)
        assert matrix[u11, p1] == 2.0
        assert matrix.sum() == 5.0


class TestRestriction:
    def test_restrict_to_cities(self):
        sub = small_world().restrict_to_cities(["a"])
        assert sub.cities == ["a"]
        assert sub.num_checkins() == 4

    def test_without_users(self):
        sub = small_world().without_users([10])
        assert sub.users == {11}
        assert len(sub.pois) == 3  # POIs kept
