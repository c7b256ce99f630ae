"""Failure-path tests: supervised replicas, fault injection, resume.

Every fault is injected deterministically via a FaultPlan pinned to an
exact (worker, step) coordinate, so these tests exercise real process
death and hangs without flakiness.
"""

import multiprocessing as mp

import numpy as np
import pytest

from repro.core.checkpoint import load_training_checkpoint, save_checkpoint
from repro.parallel import (
    DataParallelTrainer,
    SupervisionConfig,
    WorkerFailure,
)
from repro.reliability import Fault, FaultPlan, TrainingDiverged

from tests.test_core_trainer import fast_config

FAST_SUPERVISION = SupervisionConfig(step_timeout=30.0, max_respawns=2,
                                     respawn_backoff=0.01)


def _no_leaked_children(before):
    new = [p for p in mp.active_children() if p not in before]
    return all(not p.is_alive() for p in new)


class TestCrashRecovery:
    def test_sigkilled_worker_is_respawned_and_epoch_completes(
            self, tiny_split):
        plan = FaultPlan([Fault.crash(worker=1, step=1)])
        with DataParallelTrainer(tiny_split, fast_config(), num_workers=2,
                                 fault_plan=plan,
                                 supervision=FAST_SUPERVISION) as dp:
            baseline = DataParallelTrainer(tiny_split, fast_config(),
                                           num_workers=2)
            expected_steps = baseline.train_epoch().steps
            baseline.close()
            stats = dp.train_epoch()
        assert stats.steps == expected_steps     # full example count
        assert stats.faults.crashes == 1
        assert stats.faults.respawns == 1
        assert np.isfinite(stats.mean_loss)

    def test_replica_count_restored_after_respawn(self, tiny_split):
        plan = FaultPlan([Fault.crash(worker=0, step=0)])
        with DataParallelTrainer(tiny_split, fast_config(), num_workers=2,
                                 fault_plan=plan,
                                 supervision=FAST_SUPERVISION) as dp:
            dp.train_epoch()
            assert dp._supervisor.num_live == 2

    def test_budget_exhaustion_degrades_to_fewer_replicas(self, tiny_split):
        plan = FaultPlan([Fault.crash(worker=1, step=1)])
        supervision = SupervisionConfig(step_timeout=30.0, max_respawns=0,
                                        respawn_backoff=0.0)
        with DataParallelTrainer(tiny_split, fast_config(), num_workers=2,
                                 fault_plan=plan,
                                 supervision=supervision) as dp:
            stats = dp.train_epoch()
            assert dp._supervisor.num_live == 1
        assert stats.faults.removals == 1
        assert stats.faults.respawns == 0
        assert np.isfinite(stats.mean_loss)

    def test_total_replica_loss_raises_worker_failure(self, tiny_split):
        before = mp.active_children()
        plan = FaultPlan([Fault.crash(worker=0, step=0),
                          Fault.crash(worker=1, step=0)])
        supervision = SupervisionConfig(step_timeout=30.0, max_respawns=0)
        dp = DataParallelTrainer(tiny_split, fast_config(), num_workers=2,
                                 fault_plan=plan, supervision=supervision)
        with pytest.raises(WorkerFailure) as excinfo:
            dp.train_epoch()
        assert "step 0" in str(excinfo.value)
        assert dp._supervisor.num_live == 0
        assert _no_leaked_children(before)


class TestHangRecovery:
    def test_hung_worker_is_killed_and_respawned(self, tiny_split):
        plan = FaultPlan([Fault.hang(worker=1, step=1, seconds=15.0)])
        supervision = SupervisionConfig(step_timeout=0.75, max_respawns=2,
                                        respawn_backoff=0.01)
        with DataParallelTrainer(tiny_split, fast_config(), num_workers=2,
                                 fault_plan=plan,
                                 supervision=supervision) as dp:
            stats = dp.train_epoch()
            assert dp._supervisor.num_live == 2
        assert stats.faults.hangs == 1
        assert stats.faults.respawns == 1
        assert np.isfinite(stats.mean_loss)

    def test_slow_worker_within_timeout_is_not_killed(self, tiny_split):
        plan = FaultPlan([Fault.delay(worker=1, step=1, seconds=0.2)])
        supervision = SupervisionConfig(step_timeout=10.0, max_respawns=2)
        with DataParallelTrainer(tiny_split, fast_config(), num_workers=2,
                                 fault_plan=plan,
                                 supervision=supervision) as dp:
            stats = dp.train_epoch()
        assert stats.faults.total_faults == 0


class TestNaNGuard:
    def test_multi_worker_nan_contribution_dropped(self, tiny_split):
        plan = FaultPlan([Fault.nan_grad(worker=0, step=1)])
        with DataParallelTrainer(tiny_split, fast_config(), num_workers=2,
                                 fault_plan=plan,
                                 supervision=FAST_SUPERVISION) as dp:
            stats = dp.train_epoch()
        assert stats.faults.nonfinite_contributions == 1
        assert stats.faults.skipped_steps == 0   # the other replica carried
        assert np.isfinite(stats.mean_loss)
        for param in dp.model.parameters():
            assert np.all(np.isfinite(param.data))

    def test_single_worker_nan_step_skipped_and_counted(self, tiny_split):
        plan = FaultPlan([Fault.nan_grad(worker=0, step=2)])
        with DataParallelTrainer(tiny_split, fast_config(),
                                 num_workers=1, fault_plan=plan) as dp:
            stats = dp.train_epoch()
        assert stats.faults.skipped_steps == 1
        assert stats.faults.nonfinite_contributions == 1
        assert np.isfinite(stats.mean_loss)
        for param in dp.model.parameters():
            assert np.all(np.isfinite(param.data))


class TestResume:
    def test_resume_is_bit_identical_single_worker(self, tiny_split,
                                                   tmp_path):
        config = fast_config(dropout=0.3)   # dropout must also be neutral
        ckpt = tmp_path / "resume.npz"

        with DataParallelTrainer(tiny_split, config) as reference:
            reference.train(epochs=4)
        with DataParallelTrainer(tiny_split, config) as interrupted:
            interrupted.train(epochs=2, checkpoint_every=2,
                              checkpoint_path=ckpt)
        with DataParallelTrainer(tiny_split, config) as resumed:
            history = resumed.train(epochs=4, resume_from=ckpt)

        assert len(history) == 2            # only the remaining epochs
        for (name, a), (_n, b) in zip(
                reference.model.named_parameters(),
                resumed.model.named_parameters()):
            np.testing.assert_array_equal(a.data, b.data, err_msg=name)

    def test_resume_multi_worker_continues(self, tiny_split, tmp_path):
        ckpt = tmp_path / "mw.npz"
        with DataParallelTrainer(tiny_split, fast_config(), num_workers=2,
                                 supervision=FAST_SUPERVISION) as first:
            first.train(epochs=1, checkpoint_every=1, checkpoint_path=ckpt)
        with DataParallelTrainer(tiny_split, fast_config(), num_workers=2,
                                 supervision=FAST_SUPERVISION) as second:
            history = second.train(epochs=2, resume_from=ckpt)
        assert len(history) == 1
        assert np.isfinite(history[0].mean_loss)

    def test_checkpoint_carries_training_state(self, tiny_split, tmp_path):
        ckpt = tmp_path / "state.npz"
        with DataParallelTrainer(tiny_split, fast_config()) as dp:
            dp.train(epochs=2, checkpoint_every=2, checkpoint_path=ckpt)
            expected_step = dp._global_step
        _model, _index, state = load_training_checkpoint(ckpt)
        assert state is not None
        assert state.epochs_completed == 2
        assert state.global_step == expected_step
        assert state.optimizer_state["step_count"] > 0
        assert len(state.optimizer_state["m"]) == \
            len(state.optimizer_state["v"]) > 0
        assert state.rng_state is not None

    def test_v1_checkpoint_refuses_resume(self, tiny_split, tmp_path):
        ckpt = tmp_path / "v1.npz"
        with DataParallelTrainer(tiny_split, fast_config()) as dp:
            save_checkpoint(dp.model, dp._master.index, ckpt)  # v1: no state
            with pytest.raises(ValueError, match="v1 checkpoint"):
                dp.train(epochs=1, resume_from=ckpt)

    def test_config_mismatch_refuses_resume(self, tiny_split, tmp_path):
        ckpt = tmp_path / "cfg.npz"
        with DataParallelTrainer(tiny_split, fast_config(seed=0)) as dp:
            dp.train(epochs=1, checkpoint_every=1, checkpoint_path=ckpt)
        with DataParallelTrainer(tiny_split, fast_config(seed=7)) as other:
            with pytest.raises(ValueError, match="does not match"):
                other.train(epochs=2, resume_from=ckpt)

    def test_checkpoint_every_requires_path(self, tiny_split):
        with DataParallelTrainer(tiny_split, fast_config()) as dp:
            with pytest.raises(ValueError, match="checkpoint_path"):
                dp.train(epochs=1, checkpoint_every=1)


class TestDivergenceHook:
    def test_tripped_detector_raises_and_closes(self, tiny_split):
        class AlwaysDiverged:
            best = 0.0

            def update(self, loss):
                return True

        dp = DataParallelTrainer(tiny_split, fast_config())
        with pytest.raises(TrainingDiverged):
            dp.train(epochs=2, divergence_detector=AlwaysDiverged())


class TestStepWake:
    def test_wake_carries_the_step(self):
        from repro.parallel.supervisor import StepWake

        wake = StepWake()
        master, worker = mp.Pipe()
        try:
            wake.post(0)
            assert wake.wait(worker) == (0, None)
            wake.post(41)
            assert wake.wait(worker) == (41, None)
        finally:
            wake.close()
            master.close()
            worker.close()

    def test_pipe_messages_and_eof_still_arrive(self):
        from repro.parallel.supervisor import StepWake

        wake = StepWake()
        master, worker = mp.Pipe()
        try:
            master.send(None)               # shutdown rides the pipe
            assert wake.wait(worker) is None
            master.close()
            with pytest.raises(EOFError):
                wake.wait(worker)
        finally:
            wake.close()
            worker.close()

    @staticmethod
    def _wait_as_orphan(monkeypatch, parents):
        """Run ``wake.wait`` with ``os.getppid`` answering ``parents``
        (called with the master's pid); return the raised EOFErrors."""
        import threading

        import repro.parallel.supervisor as supervisor

        wake = supervisor.StepWake()
        master, worker = mp.Pipe()          # held open: no EOF
        answers = iter(parents(wake.master_pid))
        monkeypatch.setattr(supervisor, "_ORPHAN_CHECK_S", 0.01)
        monkeypatch.setattr(supervisor.os, "getppid",
                            lambda: next(answers, 1))
        raised = []

        def wait():
            try:
                wake.wait(worker)
            except EOFError as exc:
                raised.append(exc)

        waiter = threading.Thread(target=wait, daemon=True)
        try:
            waiter.start()
            waiter.join(timeout=5.0)
            assert not waiter.is_alive()
            return raised
        finally:
            master.send(None)               # release a waiter still blocked
            waiter.join(timeout=5.0)
            wake.close()
            master.close()
            worker.close()

    def test_orphaned_wait_ends_when_the_parent_changes(self, monkeypatch):
        raised = self._wait_as_orphan(
            monkeypatch, lambda master: [master, master])
        assert len(raised) == 1 and "parent" in str(raised[0])

    def test_orphaned_wait_ends_when_the_parent_changed_before_it(
            self, monkeypatch):
        # The master died while the worker was computing: the first
        # check inside wait() already sees the reaper as parent.
        raised = self._wait_as_orphan(monkeypatch, lambda master: [])
        assert len(raised) == 1 and "parent" in str(raised[0])


_ORPHAN_SCRIPT = """
import sys, time
sys.path[:0] = {paths!r}
from repro.data.split import make_crossing_city_split
from repro.data.synthetic import generate_dataset
from repro.parallel import DataParallelTrainer
from tests.conftest import tiny_config
from tests.test_core_trainer import fast_config

dataset, _ = generate_dataset(tiny_config())
split = make_crossing_city_split(dataset, "shelbyville")
trainer = DataParallelTrainer(split, fast_config(), num_workers=2)
trainer.run_steps(2)
assert trainer._transport is not None
pids = [h.process.pid for h in trainer._supervisor._handles.values()]
print(" ".join(map(str, pids)), flush=True)
time.sleep(120)
"""


def _alive(pid: int) -> bool:
    """True while ``pid`` runs (a zombie waiting to be reaped is gone)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class TestOrphanedWorkers:
    @pytest.mark.skipif(not __import__("os").path.isdir("/proc"),
                        reason="reads process state from /proc")
    def test_workers_exit_when_the_trainer_is_sigkilled(self):
        import os
        import signal
        import subprocess
        import sys
        import time
        from pathlib import Path

        root = Path(__file__).resolve().parents[1]
        script = _ORPHAN_SCRIPT.format(paths=[str(root / "src"),
                                              str(root)])
        trainer = subprocess.Popen([sys.executable, "-c", script],
                                   stdout=subprocess.PIPE, text=True)
        try:
            pids = [int(p) for p in trainer.stdout.readline().split()]
            assert len(pids) == 2 and all(_alive(p) for p in pids)
        finally:
            os.kill(trainer.pid, signal.SIGKILL)
            trainer.wait()
            trainer.stdout.close()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and any(map(_alive, pids)):
            time.sleep(0.05)
        assert not any(map(_alive, pids))
