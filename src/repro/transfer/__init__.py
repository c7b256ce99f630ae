"""``repro.transfer`` — kernels and the MMD estimator for transfer."""

from repro.transfer.kernels import (
    GaussianKernel,
    MultiGaussianKernel,
    median_heuristic_bandwidth,
)
from repro.transfer.mmd import MMDBatch

__all__ = [
    "GaussianKernel",
    "MultiGaussianKernel",
    "median_heuristic_bandwidth",
    "MMDBatch",
]
