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


_FIT = """
import hashlib, sys
sys.path.insert(0, {src!r})
sys.path.insert(0, {root!r})
import numpy
from repro.utils.blas import limit_blas_threads
print(limit_blas_threads())
from repro.core.config import STTransRecConfig
from repro.core.trainer import STTransRecTrainer
from repro.data.split import make_crossing_city_split
from repro.data.synthetic import generate_dataset
from tests.conftest import tiny_config

dataset, _ = generate_dataset(tiny_config())
split = make_crossing_city_split(dataset, "shelbyville")
trainer = STTransRecTrainer(split, STTransRecConfig(
    epochs=1, pretrain_epochs=1, grid_shape=(4, 4),
    segmentation_threshold=0.2, seed=5))
trainer.fit()
digest = hashlib.sha256()
for _name, p in trainer.model.named_parameters():
    digest.update(p.data.tobytes())
print(digest.hexdigest())
"""


@pytest.mark.skipif(not _bundled_openblas(),
                    reason="numpy without its bundled scipy-openblas")
def test_one_blas_thread_keeps_the_trained_bytes():
    """A fit at the paper-shaped tower (d=32, batch 128) with the BLAS
    pool limited to one thread ends with the parameter bytes of the
    same fit at two threads."""
    root = str(Path(SRC).parent)
    script = _FIT.format(src=SRC, root=root)

    def fit(**env_overrides):
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                            "MKL_NUM_THREADS")}
        env.update(env_overrides)
        return subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True,
                              check=True).stdout.split()

    limited, one_thread = fit()
    explicit, two_threads = fit(OPENBLAS_NUM_THREADS="2")
    assert (limited, explicit) == ("True", "False")
    assert one_thread == two_threads
