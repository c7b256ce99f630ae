"""Training pass profiler: patching, attribution, restoration."""

import importlib

import numpy as np
import pytest

from repro.nn.profile import PROFILED_PASSES, OpProfile, profile_ops
from repro.obs.metrics import MetricsRegistry
from repro.text.skipgram import SkipgramBatch


def _originals():
    out = {}
    for module, name in PROFILED_PASSES:
        cls = getattr(importlib.import_module(module), name)
        out[name] = (cls.__dict__["__init__"], cls.__dict__["backward"])
    return out


def _skipgram_step(rows=16):
    """One SkipgramBatch forward and backward on fixed tables."""
    rng = np.random.default_rng(0)
    pois = rng.standard_normal((20, 8))
    words = rng.standard_normal((30, 8))
    batch = SkipgramBatch(pois, words, np.arange(rows) % 20,
                          np.arange(rows) % 30,
                          (np.arange(3 * rows) % 30).reshape(rows, 3))
    return batch.loss, batch.backward(np.ones(()))


class TestPatching:
    def test_ops_restored_after_block(self):
        before = _originals()
        with profile_ops():
            _skipgram_step()
        assert _originals() == before

    def test_ops_restored_after_exception(self):
        before = _originals()
        with pytest.raises(RuntimeError):
            with profile_ops():
                raise RuntimeError("boom")
        assert _originals() == before

    def test_not_reentrant(self):
        ctx = profile_ops()
        with ctx:
            with pytest.raises(RuntimeError):
                ctx.__enter__()

    def test_unprofiled_runs_are_untouched(self):
        with profile_ops() as profile:
            _skipgram_step()
        calls_inside = sum(s.calls for s in profile.stats.values())
        _skipgram_step()  # outside: must not record
        assert sum(s.calls for s in profile.stats.values()) == calls_inside


class TestAttribution:
    def test_forward_ops_recorded(self):
        with profile_ops() as profile:
            _skipgram_step()
            _skipgram_step()
        stat = profile.stats["SkipgramBatch"]
        assert stat.calls == 2 and stat.forward_seconds > 0.0
        assert set(profile.stats) == {"SkipgramBatch"}

    def test_backward_time_attributed(self):
        with profile_ops() as profile:
            _skipgram_step(rows=32)
        stat = profile.stats["SkipgramBatch"]
        assert stat.backward_calls == 1 and stat.backward_seconds > 0.0
        # The POI, positive-word and negative-word gradient rows.
        assert stat.bytes_allocated == (32 + 32 + 96) * 8 * 8

    def test_gradients_match_unprofiled_run(self):
        loss, grads = _skipgram_step()
        with profile_ops():
            profiled_loss, profiled = _skipgram_step()
        assert profiled_loss.tobytes() == loss.tobytes()
        for got, want in zip(profiled, grads):
            assert got.tobytes() == want.tobytes()


class TestReporting:
    def _profiled(self):
        with profile_ops() as profile:
            _skipgram_step()
        return profile

    def test_report_table(self):
        report = self._profiled().report()
        assert "SkipgramBatch" in report
        assert "TOTAL" in report

    def test_report_top_limits_rows(self):
        profile = self._profiled()
        all_rows = len(profile.report().splitlines())
        top_rows = len(profile.report(top=1).splitlines())
        assert top_rows <= all_rows

    def test_to_registry_exports_labelled_series(self):
        registry = MetricsRegistry()
        self._profiled().to_registry(registry)
        assert registry.counter("nn.op.calls", op="SkipgramBatch").value == 1
        assert registry.counter("nn.op.alloc_bytes",
                                op="SkipgramBatch").value > 0

    def test_empty_profile_totals_are_zero(self):
        profile = OpProfile()
        assert profile.total_forward_seconds == 0.0
        assert profile.total_bytes_allocated == 0
