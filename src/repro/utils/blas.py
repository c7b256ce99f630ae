"""Limit the BLAS thread pool of a spawned child process.

numpy's BLAS starts one thread per CPU.  A data-parallel worker or a
serving shard is already one of several processes sharing the CPUs, so
each of them spinning up a full BLAS pool oversubscribes the host: on
two vCPUs a 2-worker epoch took 0.35-0.39 s with the library default
against 0.11-0.12 s with one thread.  :func:`limit_blas_threads` sets
the already-loaded BLAS to one thread through its own entry point, the
way ``threadpoolctl`` does, without the dependency.
"""

from __future__ import annotations

import ctypes
import os

__all__ = ["limit_blas_threads"]

# An explicit setting in any of these wins over the helper.
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# numpy's wheels bundle scipy-openblas with a suffixed 64-bit-integer
# API; this is its thread-count setter.
_SETTER = "scipy_openblas_set_num_threads64_"


def _loaded_libraries():
    """Paths of the shared objects mapped into this process (Linux)."""
    try:
        with open("/proc/self/maps") as maps:
            return sorted({line.split()[-1] for line in maps
                           if ".so" in line and "/" in line})
    except OSError:
        return []


def limit_blas_threads() -> bool:
    """Set the loaded BLAS to one thread; True if it was set.

    A no-op when ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` or
    ``MKL_NUM_THREADS`` is set to a non-empty value (the caller chose),
    or when numpy's bundled OpenBLAS entry point is not loaded.
    """
    if any(os.environ.get(name) for name in _THREAD_VARS):
        return False
    for path in _loaded_libraries():
        if "openblas" not in os.path.basename(path):
            continue
        try:
            setter = getattr(ctypes.CDLL(path), _SETTER)
        except (OSError, AttributeError):
            continue
        setter.argtypes = [ctypes.c_int]
        setter.restype = None
        setter(1)
        return True
    return False
