"""Argument validation helpers shared across the library.

The scalar helpers raise ``ValueError`` with a message naming the
offending parameter, which keeps constructor bodies flat and error
messages uniform; :func:`check_ids` raises ``IndexError``, as indexing
does.
"""

from __future__ import annotations

from typing import Union

import numpy as np

Number = Union[int, float]


def check_positive(name: str, value: Number) -> Number:
    """Require ``value > 0``; return it unchanged."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return value


def check_non_negative(name: str, value: Number) -> Number:
    """Require ``value >= 0``; return it unchanged."""
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")
    return value


def check_fraction(name: str, value: Number) -> Number:
    """Require ``0 <= value <= 1``; return it unchanged."""
    if not 0 <= value <= 1:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return value


def check_in_range(name: str, value: Number, low: Number, high: Number) -> Number:
    """Require ``low <= value <= high``; return it unchanged."""
    if not low <= value <= high:
        raise ValueError(f"{name} must be in [{low}, {high}], got {value!r}")
    return value


def check_ids(name: str, ids: np.ndarray, num_rows: int) -> None:
    """Require every id in ``[0, num_rows)``: the passes gather table
    rows with ``take``, which would wrap a negative id silently."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= num_rows):
        raise IndexError(f"{name} out of range [0, {num_rows}): "
                         f"min={ids.min()}, max={ids.max()}")
