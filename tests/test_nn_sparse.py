"""SparseRowGrad semantics and the bit-exactness contract with the
dense gradient path (representation, accumulation, averaging, and the
sparse optimizer updates)."""

import pickle

import numpy as np
import pytest

from repro.nn.layers import Embedding
from repro.nn.optim import SGD, Adam
from repro.nn.sparse import SparseRowGrad, grad_values
from repro.nn.tensor import Tensor


def _grad(shape, ids, seed=0):
    rng = np.random.default_rng(seed)
    ids = np.asarray(ids, dtype=np.int64)
    return SparseRowGrad(shape, ids,
                         rng.standard_normal((ids.size,) + shape[1:]))


class TestSparseRowGrad:
    def test_basic_properties(self):
        g = _grad((10, 4), [3, 7, 3])
        assert g.shape == (10, 4)
        assert g.nnz_rows == 3
        assert g.dtype == np.float64
        assert g.nbytes == g.ids.nbytes + g.rows.nbytes
        assert "nnz_rows=3" in repr(g)

    def test_to_dense_scatter_adds_duplicates(self):
        g = SparseRowGrad((4, 2), [1, 1, 3],
                          [[1.0, 2.0], [10.0, 20.0], [5.0, 6.0]])
        dense = g.to_dense()
        np.testing.assert_array_equal(dense[1], [11.0, 22.0])
        np.testing.assert_array_equal(dense[3], [5.0, 6.0])
        np.testing.assert_array_equal(dense[[0, 2]], 0.0)

    def test_coalesce_matches_dense_scatter_bitwise(self):
        rng = np.random.default_rng(1)
        ids = rng.integers(0, 50, size=500)
        g = SparseRowGrad((50, 8), ids, rng.standard_normal((500, 8)))
        c = g.coalesce()
        assert np.array_equal(c.ids, np.unique(ids))
        np.testing.assert_array_equal(c.to_dense(), g.to_dense())

    def test_coalesce_noop_when_sorted_unique(self):
        g = _grad((10, 2), [1, 4, 9])
        assert g.coalesce() is g
        empty = SparseRowGrad((10, 2), [], np.zeros((0, 2)))
        assert empty.coalesce() is empty

    def test_add_sparse_sparse_concatenates(self):
        a = _grad((10, 2), [1, 3], seed=0)
        b = _grad((10, 2), [3, 5], seed=1)
        s = a + b
        assert isinstance(s, SparseRowGrad)
        assert s.nnz_rows == 4
        np.testing.assert_array_equal(s.to_dense(),
                                      a.to_dense() + b.to_dense())

    def test_add_mixed_matches_dense_accumulation(self):
        a = _grad((6, 3), [0, 2, 2])
        dense = np.random.default_rng(2).standard_normal((6, 3))
        np.testing.assert_array_equal(a + dense, a.to_dense() + dense)
        np.testing.assert_array_equal(dense + a, dense + a.to_dense())

    def test_add_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            _grad((6, 3), [0]) + _grad((7, 3), [0])

    def test_neg_and_scalar_mul(self):
        g = _grad((5, 2), [1, 2])
        np.testing.assert_array_equal((-g).to_dense(), -g.to_dense())
        np.testing.assert_array_equal((g * 2.0).to_dense(),
                                      g.to_dense() * 2.0)
        np.testing.assert_array_equal((0.5 * g).to_dense(),
                                      0.5 * g.to_dense())

    def test_pickle_roundtrip(self):
        g = _grad((8, 3), [2, 5, 2])
        back = pickle.loads(pickle.dumps(g))
        assert back.shape == g.shape
        np.testing.assert_array_equal(back.ids, g.ids)
        np.testing.assert_array_equal(back.rows, g.rows)

    def test_all_finite(self):
        g = _grad((5, 2), [1, 3])
        assert g.all_finite()
        g.rows[0, 0] = np.nan
        assert not g.all_finite()

    def test_copy_is_independent(self):
        g = _grad((5, 2), [1, 3])
        c = g.copy()
        c.rows[...] = 0.0
        assert g.rows.any()

    def test_grad_values(self):
        g = _grad((5, 2), [1, 3])
        assert grad_values(g) is g.rows
        arr = np.ones((5, 2))
        assert grad_values(arr) is arr


def _twin_tables(num=40, dim=6, seed=0):
    dense = Embedding(num, dim, rng=seed)
    sparse = Embedding(num, dim, rng=seed, sparse_grad=True)
    np.testing.assert_array_equal(dense.weight.data, sparse.weight.data)
    return dense, sparse


def _run_steps(emb, opt, batches):
    for ids in batches:
        emb.zero_grad()
        out = emb(ids)
        (out * out).sum().backward()
        opt.step()


class TestSparseOptimizerBitIdentity:
    """The sparse paths must reproduce the dense updates bitwise."""

    def _batches(self, num, steps=12, seed=4):
        rng = np.random.default_rng(seed)
        return [rng.integers(0, num, size=16) for _ in range(steps)]

    def test_adam_exact_matches_dense(self):
        dense, sparse = _twin_tables()
        batches = self._batches(40)
        _run_steps(dense, Adam(dense.parameters(), lr=1e-2,
                               sparse_mode="dense"), batches)
        _run_steps(sparse, Adam(sparse.parameters(), lr=1e-2,
                                sparse_mode="exact"), batches)
        np.testing.assert_array_equal(dense.weight.data, sparse.weight.data)

    def test_adam_exact_with_weight_decay_densifies(self):
        dense, sparse = _twin_tables()
        batches = self._batches(40)
        _run_steps(dense, Adam(dense.parameters(), lr=1e-2,
                               weight_decay=0.01, sparse_mode="dense"),
                   batches)
        _run_steps(sparse, Adam(sparse.parameters(), lr=1e-2,
                                weight_decay=0.01, sparse_mode="exact"),
                   batches)
        np.testing.assert_array_equal(dense.weight.data, sparse.weight.data)

    def test_adam_exact_interleaved_dense_steps(self):
        # A dense grad mid-stream must invalidate the active-row mask.
        dense, sparse = _twin_tables()
        opt_d = Adam(dense.parameters(), lr=1e-2, sparse_mode="dense")
        opt_s = Adam(sparse.parameters(), lr=1e-2, sparse_mode="exact")
        batches = self._batches(40, steps=4)
        _run_steps(dense, opt_d, batches[:2])
        _run_steps(sparse, opt_s, batches[:2])
        full = np.arange(40)               # touches every row
        _run_steps(dense, opt_d, [full])
        sparse.sparse_grad = False         # force one dense step
        _run_steps(sparse, opt_s, [full])
        sparse.sparse_grad = True
        _run_steps(dense, opt_d, batches[2:])
        _run_steps(sparse, opt_s, batches[2:])
        np.testing.assert_array_equal(dense.weight.data, sparse.weight.data)

    def test_adam_state_roundtrip_resets_active_rows(self):
        dense, sparse = _twin_tables()
        batches = self._batches(40)
        opt_d = Adam(dense.parameters(), lr=1e-2, sparse_mode="dense")
        opt_s = Adam(sparse.parameters(), lr=1e-2, sparse_mode="exact")
        _run_steps(dense, opt_d, batches[:6])
        _run_steps(sparse, opt_s, batches[:6])
        opt_s.load_state_dict(
            pickle.loads(pickle.dumps(opt_s.state_dict())))
        _run_steps(dense, opt_d, batches[6:])
        _run_steps(sparse, opt_s, batches[6:])
        np.testing.assert_array_equal(dense.weight.data, sparse.weight.data)

    def test_adam_lazy_runs_and_stays_finite(self):
        _, sparse = _twin_tables()
        opt = Adam(sparse.parameters(), lr=1e-2, sparse_mode="lazy")
        _run_steps(sparse, opt, self._batches(40, steps=5))
        assert np.all(np.isfinite(sparse.weight.data))

    def test_adam_rejects_unknown_sparse_mode(self):
        emb = Embedding(4, 2, rng=0)
        with pytest.raises(ValueError, match="sparse_mode"):
            Adam(emb.parameters(), sparse_mode="bogus")

    def test_sgd_sparse_matches_dense(self):
        dense, sparse = _twin_tables()
        batches = self._batches(40)
        _run_steps(dense, SGD(dense.parameters(), lr=1e-2), batches)
        _run_steps(sparse, SGD(sparse.parameters(), lr=1e-2), batches)
        np.testing.assert_array_equal(dense.weight.data, sparse.weight.data)

    def test_sgd_momentum_densifies_and_matches(self):
        dense, sparse = _twin_tables()
        batches = self._batches(40)
        _run_steps(dense, SGD(dense.parameters(), lr=1e-2, momentum=0.9),
                   batches)
        _run_steps(sparse, SGD(sparse.parameters(), lr=1e-2, momentum=0.9),
                   batches)
        np.testing.assert_array_equal(dense.weight.data, sparse.weight.data)

    def test_empty_sparse_grad_is_noop_under_adam_exact(self):
        # A parameter that received no gradient this step (empty ids)
        # must update exactly like a dense all-zeros gradient.
        dense, sparse = _twin_tables(num=10, dim=3)
        opt_d = Adam(dense.parameters(), lr=1e-2, sparse_mode="dense")
        opt_s = Adam(sparse.parameters(), lr=1e-2, sparse_mode="exact")
        warm = [np.array([1, 2, 3])]
        _run_steps(dense, opt_d, warm)
        _run_steps(sparse, opt_s, warm)
        dense.weight.grad = np.zeros_like(dense.weight.data)
        opt_d.step()
        sparse.weight.grad = SparseRowGrad((10, 3), [], np.zeros((0, 3)))
        opt_s.step()
        np.testing.assert_array_equal(dense.weight.data, sparse.weight.data)


class TestAutogradAccumulation:
    def test_two_lookups_accumulate_sparsely(self):
        emb = Embedding(8, 2, rng=0, sparse_grad=True)
        a = emb(np.array([1, 2]))
        b = emb(np.array([2, 5]))
        (a.sum() + b.sum()).backward()
        grad = emb.weight.grad
        assert isinstance(grad, SparseRowGrad)
        dense = grad.to_dense()
        np.testing.assert_array_equal(dense[2], 2.0)
        np.testing.assert_array_equal(dense[1], 1.0)
        np.testing.assert_array_equal(dense[5], 1.0)

    def test_mixed_sparse_dense_accumulation_densifies(self):
        emb = Embedding(8, 2, rng=0, sparse_grad=True)
        ids = np.array([1, 3])
        sparse_out = emb(ids)
        dense_out = emb.weight.sum()        # dense grad over the table
        (sparse_out.sum() + dense_out).backward()
        grad = emb.weight.grad
        assert isinstance(grad, np.ndarray)
        expected = np.ones((8, 2))
        expected[1] += 1.0
        expected[3] += 1.0
        np.testing.assert_array_equal(grad, expected)

    def test_gather_rows_2d_indices(self):
        w = Tensor(np.arange(12.0).reshape(6, 2), requires_grad=True)
        idx = np.array([[0, 1], [1, 5]])
        out = w.gather_rows(idx, sparse_grad=True)
        assert out.shape == (2, 2, 2)
        out.sum().backward()
        dense = w.grad.to_dense()
        np.testing.assert_array_equal(dense[1], 2.0)
        np.testing.assert_array_equal(dense[0], 1.0)
        np.testing.assert_array_equal(dense[5], 1.0)
