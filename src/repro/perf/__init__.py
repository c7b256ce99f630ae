"""``repro.perf`` — hot-path optimizations for data-parallel training.

Three pieces:

* :class:`PerfConfig` / :func:`enable_sparse_embedding_grads` — switch
  sparse embedding gradients, the shared-memory gradient transport,
  and the floating-point precision policy (``"f64"`` reference /
  ``"f32"`` fast, see :mod:`repro.nn.dtypes`) for
  :class:`~repro.parallel.data_parallel.DataParallelTrainer`
  (the structural optimizations are on by default and proven
  bit-identical to the reference dense/pipe path; f32 is opt-in and
  guarded by the parity harness);
* :mod:`repro.perf.parity` — trains the same task under both
  precisions and compares final eval metrics within a tolerance band
  (``repro precision-parity``);
* :mod:`repro.perf.transport` — the preallocated
  ``multiprocessing.shared_memory`` blocks and their layout manifest.

See ``docs/performance.md`` for the design and tuning guide.
"""

from repro.perf.config import PerfConfig, enable_sparse_embedding_grads
from repro.perf.parity import ParityReport, run_precision_parity
from repro.perf.transport import (
    GradientLayout,
    ShmTransport,
    WorkerTransportClient,
)

__all__ = [
    "PerfConfig",
    "enable_sparse_embedding_grads",
    "GradientLayout",
    "ShmTransport",
    "WorkerTransportClient",
    "ParityReport",
    "run_precision_parity",
]
