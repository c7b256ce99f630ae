"""The band a closed-form pass keeps against the tape where it is not
bit-identical (``docs/performance.md``, "The tape contract").

Per tensor, the largest absolute difference over the largest absolute
reference value, ``max|got − ref| / max|ref|``, must not exceed
:data:`BAND` for the tensor's dtype.  A reference that is all zeros
needs an all-zero result.
"""

from __future__ import annotations

import numpy as np

#: Relative band per dtype: f64 sits near its rounding error after a
#: pretraining epoch and two joint epochs; f32 is loose enough for its
#: rounding through the same steps, far below any training effect.
BAND = {np.dtype(np.float64): 1e-12, np.dtype(np.float32): 1e-3}


def relative_error(got, ref) -> float:
    """``max|got − ref| / max|ref|`` (``inf`` for a nonzero result
    against an all-zero reference, 0 for two empty arrays)."""
    got, ref = np.asarray(got), np.asarray(ref)
    if not ref.size:
        return 0.0
    err = float(np.abs(got.astype(np.float64) - ref).max())
    scale = float(np.abs(ref).max())
    if scale == 0.0:
        return 0.0 if err == 0.0 else float("inf")
    return err / scale


def assert_within_band(got, ref, label: str, dtype=None) -> None:
    """``got`` matches ``ref`` in dtype and shape and within the band
    of ``dtype`` (the reference's dtype by default)."""
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.dtype == ref.dtype, f"{label}: {got.dtype} vs {ref.dtype}"
    assert got.shape == ref.shape, f"{label}: {got.shape} vs {ref.shape}"
    band = BAND[np.dtype(dtype or ref.dtype)]
    error = relative_error(got, ref)
    assert error <= band, f"{label}: relative error {error:.3g} > {band:g}"
