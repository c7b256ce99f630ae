"""The floating-point dtype policy for the training stack.

The seed promoted every array entering its autograd graph to float64
(the tensor constructor, ``stable_sigmoid`` and ``softplus`` each had
their own copy of the rule).  This module is now the *single* home of that
promotion rule, and it is configurable: a precision policy of ``"f64"``
(the reference, bit-identical to the seed) or ``"f32"`` (the fast
training path — half the bytes through every dense op, optimizer
moment, and transport payload).

The policy is a process-global default consulted wherever the stack
must invent a floating dtype — integer/bool coercion in
:func:`coerce` and parameter initialization in :mod:`repro.nn.init`.
Arrays that are *already* floating keep their dtype unless a call site
passes an explicit target, so mixing policies in one process (e.g. an
f64 evaluator next to an f32 trainer) stays well-defined: each model's
arrays carry their own dtype and the operations follow the operands.

NEP 50 note: under numpy's fine-grained promotion, a 0-d *array* is a
"strong" operand — ``f32_array * np.asarray(2.0)`` silently yields
float64.  The passes therefore route scalar constants through
:func:`coerce` with their operands' dtype as the target, which is what
keeps an f32 step f32 end-to-end (and is an exact no-op on the f64
reference path).

Set the policy per run through
:class:`repro.perf.PerfConfig(precision=...)`; use
:func:`using_dtype` for scoped overrides (model construction,
checkpoint loading).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Union

import numpy as np

__all__ = [
    "PRECISIONS",
    "coerce",
    "default_dtype",
    "precision_name",
    "resolve",
    "set_default_dtype",
    "using_dtype",
]

# Precision policy names, as they appear in PerfConfig / CLI flags /
# checkpoint manifests.
PRECISIONS = {
    "f64": np.dtype(np.float64),
    "f32": np.dtype(np.float32),
}

PrecisionLike = Union[str, np.dtype, type, None]

_default: np.dtype = PRECISIONS["f64"]


def resolve(precision: PrecisionLike) -> np.dtype:
    """Map a policy name (``"f32"``/``"f64"``), numpy dtype, or ``None``
    (the current default) to a supported floating dtype."""
    if precision is None:
        return _default
    if isinstance(precision, str) and precision in PRECISIONS:
        return PRECISIONS[precision]
    dtype = np.dtype(precision)
    if dtype not in PRECISIONS.values():
        raise ValueError(
            f"unsupported precision {precision!r}; expected one of "
            f"{sorted(PRECISIONS)} (or an equivalent numpy dtype)")
    return dtype


def precision_name(dtype) -> str:
    """The policy name (``"f32"``/``"f64"``) of a supported dtype."""
    dtype = np.dtype(dtype)
    for name, candidate in PRECISIONS.items():
        if candidate == dtype:
            return name
    raise ValueError(f"no precision policy for dtype {dtype}")


def default_dtype() -> np.dtype:
    """The dtype non-floating inputs are promoted to (policy default)."""
    return _default


def set_default_dtype(precision: PrecisionLike) -> np.dtype:
    """Set the process-global default dtype; returns the previous one."""
    global _default
    previous = _default
    _default = resolve(precision)
    return previous


@contextmanager
def using_dtype(precision: PrecisionLike) -> Iterator[np.dtype]:
    """Scoped default-dtype override (restores the previous policy)."""
    previous = set_default_dtype(precision)
    try:
        yield _default
    finally:
        set_default_dtype(previous)


def coerce(value, dtype: PrecisionLike = None) -> np.ndarray:
    """The one promotion rule for arrays entering a computation.

    * With ``dtype`` given, the result has exactly that dtype (cast only
      when needed) — the passes give their operands' dtype here so
      python scalars and integer arrays follow the operands instead of
      NEP-50-promoting them to float64.
    * Without ``dtype``, floating input keeps its dtype and anything
      else (ints, bools) is promoted to the policy default.
    """
    arr = np.asarray(value)
    if dtype is not None:
        target = resolve(dtype)
        return arr if arr.dtype == target else arr.astype(target)
    if not np.issubdtype(arr.dtype, np.floating):
        return arr.astype(_default)
    return arr
