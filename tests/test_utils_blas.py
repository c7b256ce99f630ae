"""The child-process BLAS thread limit (run in fresh interpreters, so
the test process keeps its own thread pool)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

_PROBE = """
import ctypes, sys
sys.path.insert(0, {src!r})
import numpy
from repro.utils.blas import _loaded_libraries, limit_blas_threads

def threads():
    for path in _loaded_libraries():
        if "scipy_openblas64_" in path:
            return ctypes.CDLL(path).scipy_openblas_get_num_threads64_()
    return None

before = threads()
changed = limit_blas_threads()
print(before, changed, threads())
"""


def _probe(**env_overrides):
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS")}
    env.update(env_overrides)
    out = subprocess.run([sys.executable, "-c", _PROBE.format(src=SRC)],
                         env=env, capture_output=True, text=True,
                         check=True).stdout.split()
    return out


def _bundled_openblas() -> bool:
    from repro.utils.blas import _loaded_libraries

    return any("scipy_openblas64_" in p for p in _loaded_libraries())


@pytest.mark.skipif(not _bundled_openblas(),
                    reason="numpy without its bundled scipy-openblas")
class TestLimitBlasThreads:
    def test_sets_the_loaded_blas_to_one_thread(self):
        before, changed, after = _probe(OPENBLAS_NUM_THREADS="")
        assert changed == "True"
        assert after == "1"

    @pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS",
                                     "OMP_NUM_THREADS", "MKL_NUM_THREADS"])
    def test_an_explicit_setting_wins(self, var):
        before, changed, after = _probe(**{var: "2"})
        assert changed == "False"
        assert after == before


def test_no_known_entry_point_is_a_no_op(monkeypatch):
    import repro.utils.blas as blas

    for var in blas._THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setattr(blas, "_loaded_libraries", lambda: [])
    assert blas.limit_blas_threads() is False
