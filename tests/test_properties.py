"""Property-based tests (hypothesis) on core data structures & invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.data.vocabulary import IndexMap
from repro.eval.metrics import (
    average_precision_at_k,
    ndcg_at_k,
    precision_at_k,
    recall_at_k,
)
from repro.nn.backend import active_backend
from repro.spatial.segmentation import common_user_distance
from tests.oracle import Tensor

finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)


def small_arrays(max_side=4):
    return arrays(np.float64,
                  array_shapes(min_dims=1, max_dims=2, max_side=max_side),
                  elements=st.floats(min_value=-10, max_value=10,
                                     allow_nan=False))


class TestTensorProperties:
    @given(small_arrays())
    @settings(max_examples=50, deadline=None)
    def test_add_commutes(self, data):
        a = Tensor(data)
        b = Tensor(data * 0.5 + 1.0)
        np.testing.assert_allclose((a + b).data, (b + a).data)

    @given(small_arrays())
    @settings(max_examples=50, deadline=None)
    def test_double_negation_identity(self, data):
        a = Tensor(data)
        np.testing.assert_allclose((-(-a)).data, data)

    @given(small_arrays())
    @settings(max_examples=50, deadline=None)
    def test_sum_grad_is_ones(self, data):
        a = Tensor(data, requires_grad=True)
        a.sum().backward()
        np.testing.assert_array_equal(a.grad, np.ones_like(data))

    @given(small_arrays())
    @settings(max_examples=50, deadline=None)
    def test_sigmoid_range(self, data):
        out = Tensor(data).sigmoid().data
        assert ((out > 0) & (out < 1)).all()

    @given(arrays(np.float64, st.integers(1, 20),
                  elements=st.floats(min_value=-500, max_value=500,
                                     allow_nan=False)))
    @settings(max_examples=50, deadline=None)
    def test_stable_sigmoid_matches_softplus_identity(self, data):
        # log(sigmoid(x)) == -active_backend().softplus(-x) for all x
        lhs = np.log(np.clip(active_backend().stable_sigmoid(data),
                             1e-300, None))
        rhs = -active_backend().softplus(-data)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    @given(small_arrays())
    @settings(max_examples=50, deadline=None)
    def test_reshape_roundtrip(self, data):
        a = Tensor(data)
        np.testing.assert_array_equal(
            a.reshape(-1).reshape(*data.shape).data, data
        )


class TestIndexMapProperties:
    @given(st.lists(st.integers(min_value=0, max_value=1000)))
    @settings(max_examples=100, deadline=None)
    def test_indices_contiguous_and_invertible(self, keys):
        m = IndexMap(keys)
        assert len(m) == len(set(keys))
        for key in set(keys):
            assert m.key_of(m.index_of(key)) == key
        indices = sorted(m.index_of(k) for k in set(keys))
        assert indices == list(range(len(m)))

    @given(st.lists(st.text(max_size=5)), st.text(max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_add_returns_stable_index(self, keys, probe):
        m = IndexMap(keys)
        first = m.add(probe)
        second = m.add(probe)
        assert first == second


ranked_and_relevant = st.tuples(
    st.lists(st.integers(0, 50), min_size=1, max_size=20, unique=True),
    st.sets(st.integers(0, 50), min_size=1, max_size=10),
    st.integers(1, 20),
)


class TestMetricProperties:
    @given(ranked_and_relevant)
    @settings(max_examples=200, deadline=None)
    def test_all_metrics_in_unit_interval(self, case):
        ranked, relevant, k = case
        for fn in (recall_at_k, precision_at_k, ndcg_at_k,
                   average_precision_at_k):
            assert 0.0 <= fn(ranked, relevant, k) <= 1.0

    @given(ranked_and_relevant)
    @settings(max_examples=200, deadline=None)
    def test_recall_monotone_in_k(self, case):
        ranked, relevant, k = case
        if k > 1:
            assert recall_at_k(ranked, relevant, k) >= \
                recall_at_k(ranked, relevant, k - 1)

    @given(st.sets(st.integers(0, 30), min_size=1, max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_perfect_ranking_maximal(self, relevant):
        ranked = sorted(relevant)
        k = len(ranked)
        assert recall_at_k(ranked, relevant, k) == 1.0
        assert ndcg_at_k(ranked, relevant, k) == 1.0
        assert average_precision_at_k(ranked, relevant, k) == 1.0


class TestCommonUserDistanceProperties:
    @given(st.sets(st.integers(0, 30)), st.sets(st.integers(0, 30)))
    @settings(max_examples=200, deadline=None)
    def test_symmetric_and_bounded(self, a, b):
        d_ab = common_user_distance(a, b)
        d_ba = common_user_distance(b, a)
        assert d_ab == d_ba
        assert 0.0 <= d_ab <= 1.0

    @given(st.sets(st.integers(0, 30), min_size=1))
    @settings(max_examples=100, deadline=None)
    def test_self_distance_is_one(self, a):
        assert common_user_distance(a, a) == 1.0

    @given(st.sets(st.integers(0, 15), min_size=1),
           st.sets(st.integers(16, 30), min_size=1))
    @settings(max_examples=100, deadline=None)
    def test_disjoint_is_zero(self, a, b):
        assert common_user_distance(a, b) == 0.0
