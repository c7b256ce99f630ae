"""Shared-memory gradient transport: layout, slot roundtrips, and the
bit-identity of the optimized (shm + sparse) trainer path with the
reference (pipe + dense) path — including under injected faults."""

import numpy as np
import pytest

from repro.nn.sparse import SparseRowGrad
from repro.parallel.data_parallel import DataParallelTrainer
from repro.perf.config import PerfConfig, enable_sparse_embedding_grads
from repro.perf.transport import (
    GradientLayout,
    ReadOnlyTransportError,
    ShmTransport,
    WorkerTransportClient,
)
from repro.reliability import Fault, FaultPlan

from tests.test_core_trainer import fast_config

SPECS = [
    ("emb.weight", (12, 4), "float64"),
    ("tower.weight", (4, 3), "float64"),
    ("tower.bias", (3,), "float64"),
]


class TestGradientLayout:
    def test_offsets_are_monotone_and_disjoint(self):
        layout = GradientLayout.build(SPECS)
        prev_end = 0
        for slot in layout.slots:
            assert slot.offset == prev_end
            prev_end = slot.offset + slot.nbytes
        assert layout.nbytes == prev_end

    def test_params_block_is_dense_concatenation(self):
        layout = GradientLayout.build(SPECS)
        expected = sum(int(np.prod(shape)) * 8 for _, shape, _ in SPECS)
        assert layout.nbytes == expected
        assert layout.size * 8 == expected

    def test_slot_sizes_and_nbytes(self):
        layout = GradientLayout.build(SPECS)
        by_name = {s.name: s for s in layout.slots}
        assert by_name["emb.weight"].size == 12 * 4
        assert by_name["tower.bias"].size == 3
        assert by_name["emb.weight"].nbytes == 12 * 4 * 8
        assert by_name["tower.weight"].start == 12 * 4

    def test_layout_pickles_with_names(self):
        import pickle

        layout = GradientLayout.build(SPECS).with_names("p", ["g0", "g1"])
        back = pickle.loads(pickle.dumps(layout))
        assert back.params_name == "p"
        assert back.grad_names == ("g0", "g1")
        assert back.slots == layout.slots

    def test_flat_vector_needs_one_dtype(self):
        mixed = [("a", (2,), "float64"), ("ids", (3,), "int64")]
        with pytest.raises(ValueError, match="one dtype"):
            ShmTransport(mixed, num_slots=1)
        with ShmTransport(mixed, num_slots=0) as transport:
            assert transport.num_slots == 0      # params-only may mix

    def test_nonfinite_names_from_the_layout(self):
        layout = GradientLayout.build(SPECS)
        flat = np.zeros(layout.size)
        assert layout.nonfinite_names(flat) == []
        flat[layout.slots[1].start + 2] = np.inf
        flat[-1] = np.nan
        assert layout.nonfinite_names(flat) == ["tower.weight", "tower.bias"]


def _unpack(layout, flat):
    """``{name: copy}`` of each parameter's part of a flat vector."""
    return {slot.name: slot.view(flat).copy() for slot in layout.slots}


def _assert_bytes_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


class TestShmRoundtrip:
    def _grads(self, seed=0, sparse=False, dtype="float64"):
        rng = np.random.default_rng(seed)
        grads = {
            "emb.weight": rng.standard_normal((12, 4)).astype(dtype),
            "tower.weight": rng.standard_normal((4, 3)).astype(dtype),
            "tower.bias": rng.standard_normal(3).astype(dtype),
        }
        if sparse:
            ids = np.array([3, 7, 3, 0, 7, 7])
            grads["emb.weight"] = SparseRowGrad(
                (12, 4), ids, rng.standard_normal((6, 4)).astype(dtype))
        return grads

    def _roundtrip(self, grads, specs=SPECS):
        with ShmTransport(specs, num_slots=1) as transport:
            client = WorkerTransportClient(transport.layout, 0)
            try:
                client.write_grads(grads)
                back = _unpack(transport.layout, transport.read_grads(0))
            finally:
                client.close()
        return back

    def test_dense_roundtrip_bit_identical(self):
        grads = self._grads()
        back = self._roundtrip(grads)
        for name in grads:
            _assert_bytes_equal(back[name], grads[name])

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_sparse_roundtrip_matches_to_dense(self, dtype):
        """Duplicate-id sparse rows land in the slot as ``to_dense``."""
        specs = [(name, shape, dtype) for name, shape, _ in SPECS]
        grads = self._grads(sparse=True, dtype=dtype)
        back = self._roundtrip(grads, specs)
        _assert_bytes_equal(back["emb.weight"],
                            grads["emb.weight"].to_dense())
        _assert_bytes_equal(back["tower.bias"], grads["tower.bias"])

    def test_missing_grad_is_written_as_zeros(self):
        """Over the previous step's values: a slot is reused."""
        grads = self._grads()
        grads["tower.weight"] = None
        del grads["tower.bias"]
        with ShmTransport(SPECS, num_slots=1) as transport:
            client = WorkerTransportClient(transport.layout, 0)
            try:
                client.write_grads(self._grads(seed=5))
                client.write_grads(grads)
                back = _unpack(transport.layout, transport.read_grads(0))
            finally:
                client.close()
        _assert_bytes_equal(back["tower.weight"], np.zeros((4, 3)))
        _assert_bytes_equal(back["tower.bias"], np.zeros(3))
        _assert_bytes_equal(back["emb.weight"], grads["emb.weight"])

    def test_pipe_vector_equals_slot(self):
        grads = self._grads(seed=4, sparse=True)
        layout = GradientLayout.build(SPECS)
        with ShmTransport(SPECS, num_slots=1) as transport:
            client = WorkerTransportClient(transport.layout, 0)
            try:
                client.write_grads(grads)
                slot = transport.read_grads(0).copy()
            finally:
                client.close()
        _assert_bytes_equal(layout.pack_grads(grads), slot)

    def test_read_grads_is_a_zero_copy_view(self):
        with ShmTransport(SPECS, num_slots=1) as transport:
            client = WorkerTransportClient(transport.layout, 0)
            try:
                view = transport.read_grads(0)
                client.write_grads(self._grads(seed=2))
                first = view.copy()
                client.write_grads(self._grads(seed=3))
                assert not np.array_equal(view, first)
                np.testing.assert_array_equal(
                    view, transport.layout.pack_grads(self._grads(seed=3)))
            finally:
                del view
                client.close()

    def test_slots_are_independent(self):
        with ShmTransport(SPECS, num_slots=2) as transport:
            c0 = WorkerTransportClient(transport.layout, 0)
            c1 = WorkerTransportClient(transport.layout, 1)
            try:
                c0.write_grads(self._grads(seed=1))
                c1.write_grads(self._grads(seed=2, sparse=True))
                back0 = _unpack(transport.layout, transport.read_grads(0))
                back1 = _unpack(transport.layout, transport.read_grads(1))
            finally:
                c0.close()
                c1.close()
        _assert_bytes_equal(back0["emb.weight"],
                            self._grads(seed=1)["emb.weight"])
        _assert_bytes_equal(back1["emb.weight"],
                            self._grads(seed=2, sparse=True)
                            ["emb.weight"].to_dense())

    def test_params_broadcast_roundtrip(self):
        rng = np.random.default_rng(3)
        state = {name: rng.standard_normal(shape)
                 for name, shape, _ in SPECS}
        with ShmTransport(SPECS, num_slots=1) as transport:
            client = WorkerTransportClient(transport.layout, 0)
            try:
                transport.write_params(state)
                back = client.read_params()
            finally:
                client.close()
        for name in state:
            np.testing.assert_array_equal(back[name], state[name])

    def test_read_params_copies(self):
        state = {name: np.zeros(shape) for name, shape, _ in SPECS}
        with ShmTransport(SPECS, num_slots=1) as transport:
            client = WorkerTransportClient(transport.layout, 0)
            try:
                transport.write_params(state)
                first = client.read_params()
                transport.write_params(
                    {n: np.ones_like(v) for n, v in state.items()})
            finally:
                client.close()
            np.testing.assert_array_equal(first["emb.weight"], 0.0)

    def test_close_is_idempotent(self):
        transport = ShmTransport(SPECS, num_slots=1)
        transport.close()
        transport.close()

    def test_invalid_num_slots(self):
        with pytest.raises(ValueError):
            ShmTransport(SPECS, num_slots=-1)


class TestReadOnlyAttach:
    """Params-only blocks and read-only consumers (the serving fleet)."""

    def _state(self, seed=5):
        rng = np.random.default_rng(seed)
        return {name: rng.standard_normal(shape)
                for name, shape, _ in SPECS}

    def test_params_only_block_roundtrip(self):
        state = self._state()
        with ShmTransport(SPECS, num_slots=0) as transport:
            assert transport.num_slots == 0
            client = WorkerTransportClient(transport.layout,
                                           read_only=True)
            try:
                transport.write_params(state)
                back = client.read_params()
            finally:
                client.close()
        for name in state:
            np.testing.assert_array_equal(back[name], state[name])

    def test_read_only_client_rejects_grad_writes(self):
        with ShmTransport(SPECS, num_slots=0) as transport:
            client = WorkerTransportClient(transport.layout,
                                           read_only=True)
            try:
                with pytest.raises(ReadOnlyTransportError):
                    client.write_grads(
                        {name: np.zeros(shape)
                         for name, shape, _ in SPECS})
            finally:
                client.close()

    def test_read_only_views_are_not_writable(self):
        with ShmTransport(SPECS, num_slots=0) as transport:
            transport.write_params(self._state())
            client = WorkerTransportClient(transport.layout,
                                           read_only=True)
            try:
                view = client.read_params(copy=False)
                assert not view["emb.weight"].flags.writeable
                with pytest.raises(ValueError):
                    view["emb.weight"][0, 0] = 1.0
            finally:
                # Views alias the mapping; drop them before unmapping
                # so the in-process SharedMemory can close cleanly.
                del view
                client.close()

    def test_zero_copy_view_tracks_republished_params(self):
        state = self._state()
        with ShmTransport(SPECS, num_slots=0) as transport:
            transport.write_params(state)
            client = WorkerTransportClient(transport.layout,
                                           read_only=True)
            try:
                view = client.read_params(copy=False)
                transport.write_params(
                    {n: np.ones_like(v) for n, v in state.items()})
                np.testing.assert_array_equal(view["emb.weight"], 1.0)
            finally:
                del view
                client.close()

    def test_client_constructor_validation(self):
        layout = GradientLayout.build(SPECS)
        with pytest.raises(ValueError, match="slot"):
            WorkerTransportClient(layout, 0, read_only=True)
        with pytest.raises(ValueError, match="slot"):
            WorkerTransportClient(layout)

    def test_grad_slots_rejected_on_params_only_block(self):
        with ShmTransport(SPECS, num_slots=0) as transport:
            with pytest.raises(IndexError):
                transport.read_grads(0)


class TestPerfConfig:
    def test_defaults_are_optimized(self):
        perf = PerfConfig()
        assert perf.sparse_grads and perf.transport == "auto"
        assert perf.adam_sparse_mode == "exact"

    def test_reference_is_seed_behavior(self):
        perf = PerfConfig.reference()
        assert not perf.sparse_grads
        assert perf.transport == "pipe"
        assert perf.adam_sparse_mode == "dense"

    def test_validation(self):
        with pytest.raises(ValueError, match="transport"):
            PerfConfig(transport="carrier-pigeon")
        with pytest.raises(ValueError, match="adam_sparse_mode"):
            PerfConfig(adam_sparse_mode="bogus")

    def test_enable_sparse_embedding_grads_counts_tables(self):
        from repro.core.config import STTransRecConfig
        from repro.core.model import STTransRec

        model = STTransRec(num_users=5, num_pois=6, num_words=4,
                           config=STTransRecConfig(embedding_dim=4,
                                                   hidden_sizes=[4]))
        count = enable_sparse_embedding_grads(model)
        assert count >= 2        # at least user + poi tables
        from repro.nn.layers import Embedding
        assert all(m.sparse_grad for m in model.modules()
                   if isinstance(m, Embedding))


def _run(split, perf, workers=2, steps=6, fault_plan=None):
    """Losses + final parameters for one short training run."""
    trainer = DataParallelTrainer(split, fast_config(), num_workers=workers,
                                  fault_plan=fault_plan, perf=perf)
    try:
        losses = trainer.run_steps(steps)
        state = {k: v.copy()
                 for k, v in trainer.model.state_dict().items()}
        transport = trainer._transport
    finally:
        trainer.close()
    return losses, state, transport


def _assert_identical(run_a, run_b):
    losses_a, state_a, _ = run_a
    losses_b, state_b, _ = run_b
    np.testing.assert_array_equal(np.asarray(losses_a),
                                  np.asarray(losses_b))
    assert state_a.keys() == state_b.keys()
    for name in state_a:
        np.testing.assert_array_equal(state_a[name], state_b[name])


class TestTrainerBitIdentity:
    """The acceptance contract: optimized path == reference path, bitwise."""

    def test_two_workers_shm_sparse_matches_pipe_dense(self, tiny_split):
        reference = _run(tiny_split, PerfConfig.reference())
        optimized = _run(tiny_split, PerfConfig(transport="shm"))
        assert optimized[2] is not None     # shm actually engaged
        _assert_identical(reference, optimized)

    def test_sparse_over_pipe_matches_dense(self, tiny_split):
        reference = _run(tiny_split, PerfConfig.reference())
        sparse_pipe = _run(tiny_split, PerfConfig(transport="pipe"))
        assert sparse_pipe[2] is None
        _assert_identical(reference, sparse_pipe)

    def test_single_process_sparse_matches_dense(self, tiny_split):
        reference = _run(tiny_split, PerfConfig.reference(), workers=1)
        optimized = _run(tiny_split, PerfConfig(), workers=1)
        _assert_identical(reference, optimized)

    def test_identical_under_crash_and_nan_faults(self, tiny_split):
        def plan():
            return FaultPlan([Fault.crash(worker=1, step=2),
                              Fault.nan_grad(worker=0, step=3)])

        reference = _run(tiny_split, PerfConfig.reference(),
                         fault_plan=plan(), steps=8)
        optimized = _run(tiny_split, PerfConfig(transport="shm"),
                         fault_plan=plan(), steps=8)
        assert optimized[2] is not None
        _assert_identical(reference, optimized)

    def test_auto_falls_back_to_pipe_when_shm_unavailable(
            self, tiny_split, monkeypatch):
        import repro.parallel.data_parallel as dp

        def boom(*args, **kwargs):
            raise OSError("no shared memory on this box")

        monkeypatch.setattr(dp, "ShmTransport", boom)
        auto = _run(tiny_split, PerfConfig(transport="auto"))
        assert auto[2] is None              # fell back
        reference = _run(tiny_split, PerfConfig.reference())
        _assert_identical(reference, auto)

    def test_explicit_shm_propagates_creation_failure(
            self, tiny_split, monkeypatch):
        import repro.parallel.data_parallel as dp

        def boom(*args, **kwargs):
            raise OSError("no shared memory on this box")

        monkeypatch.setattr(dp, "ShmTransport", boom)
        with pytest.raises(OSError):
            DataParallelTrainer(tiny_split, fast_config(), num_workers=2,
                                perf=PerfConfig(transport="shm"))


_REFERENCE_RUNS: dict = {}


def _matrix_plan():
    return FaultPlan([Fault.crash(worker=1, step=2),
                      Fault.nan_grad(worker=0, step=3)])


def _run_with_moments(split, perf, workers, weight_decay):
    """Losses, parameters, Adam moments and fault counts of 8 steps
    under the crash + NaN plan."""
    config = fast_config(weight_decay=weight_decay)
    trainer = DataParallelTrainer(split, config, num_workers=workers,
                                  fault_plan=_matrix_plan(), perf=perf)
    try:
        losses = trainer.run_steps(8)
        state = {k: v.copy() for k, v in trainer.model.state_dict().items()}
        moments = trainer.optimizer.state_dict()
        faults = trainer.last_fault_stats
        engaged = trainer._transport is not None
    finally:
        trainer.close()
    return losses, state, moments, (faults.crashes,
                                    faults.nonfinite_contributions), engaged


class TestFlatExchangeMatrix:
    """Every transport × gradient encoding × precision × replica count ×
    weight decay is byte-equal to the reference path, faults included.

    The reference path runs at the candidate's precision, so the
    comparison is byte-exact in f32 as well as in f64.
    """

    @pytest.mark.parametrize("weight_decay", [0.0, 3e-4])
    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("precision", ["f64", "f32"])
    @pytest.mark.parametrize("sparse_grads", [True, False])
    @pytest.mark.parametrize("transport", ["shm", "pipe"])
    def test_matches_reference(self, tiny_split, monkeypatch, transport,
                               sparse_grads, precision, workers,
                               weight_decay):
        import dataclasses

        from repro.nn.optim import Adam

        key = (precision, workers, weight_decay)
        if key not in _REFERENCE_RUNS:
            _REFERENCE_RUNS[key] = _run_with_moments(
                tiny_split,
                dataclasses.replace(PerfConfig.reference(),
                                    precision=precision),
                workers, weight_decay)
        reference = _REFERENCE_RUNS[key]
        # The averaged gradient must tile Adam's flat moments: a layout
        # drift between GradientLayout and Adam would silently fall back
        # to the per-parameter step.
        fused = []
        step_fused = Adam._step_fused
        monkeypatch.setattr(
            Adam, "_step_fused",
            lambda self, *args: fused.append(1) or step_fused(self, *args))
        perf = PerfConfig(transport=transport, sparse_grads=sparse_grads,
                          precision=precision)
        run = _run_with_moments(tiny_split, perf, workers, weight_decay)
        assert len(fused) == run[2]["step_count"] > 0
        assert run[4] == (transport == "shm")
        assert run[3] == reference[3] == (1, 1)
        _assert_bytes_equal(np.asarray(run[0]), np.asarray(reference[0]))
        for name in reference[1]:
            _assert_bytes_equal(run[1][name], reference[1][name])
        assert run[2]["step_count"] == reference[2]["step_count"]
        for key in ("m", "v"):
            for ours, theirs in zip(run[2][key], reference[2][key]):
                _assert_bytes_equal(ours, theirs)
