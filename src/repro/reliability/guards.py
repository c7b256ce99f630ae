"""Numeric guards: non-finite gradient rejection and divergence detection.

Two failure modes survive process supervision because the process stays
healthy while the *numbers* go bad:

* a single poisoned batch (or faulty replica) produces NaN/Inf
  gradients — applying them destroys every parameter instantly;
* the optimization itself diverges — the loss climbs steadily away
  from its best value and no single step looks wrong.

:class:`GradientGuard` implements the per-step skip policy for the
first case; :class:`DivergenceDetector` implements a windowed
loss-explosion check for the second.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np


class GradientGuard:
    """Per-step skip policy for non-finite losses and gradients.

    ``check(grads, loss, layout)`` returns True when the update is safe to
    apply.  A rejected step is counted and its offending parameter
    names recorded, so supervisors can surface *which* tensor went
    non-finite, not just that something did.
    """

    def __init__(self) -> None:
        self.steps_checked = 0
        self.steps_skipped = 0
        self.last_bad_names: List[str] = []

    def check(self, grads: np.ndarray, loss: Optional[float],
              layout) -> bool:
        """``grads`` is one flat vector laid out by ``layout`` (a
        :class:`~repro.perf.transport.GradientLayout`): it is checked
        with a single ``isfinite`` pass, and the offending names are
        worked out from the layout only when it fails."""
        self.steps_checked += 1
        bad = ([] if np.isfinite(grads).all()
               else layout.nonfinite_names(grads))
        if loss is not None and not np.isfinite(loss):
            bad = ["<loss>"] + bad
        if bad:
            self.steps_skipped += 1
            self.last_bad_names = bad
            return False
        return True

    def __repr__(self) -> str:
        return (f"GradientGuard(checked={self.steps_checked}, "
                f"skipped={self.steps_skipped})")


class TrainingDiverged(RuntimeError):
    """Raised when the divergence detector trips during training."""

    def __init__(self, epoch: int, loss: float, best: float) -> None:
        super().__init__(
            f"training diverged at epoch {epoch}: loss {loss:.6g} vs "
            f"best {best:.6g}")
        self.epoch = epoch
        self.loss = loss
        self.best = best


class DivergenceDetector:
    """Flags a loss explosion relative to the best loss seen so far.

    A single bad epoch is tolerated; divergence is declared only after
    ``patience`` *consecutive* updates where the loss is non-finite or
    exceeds ``factor`` times the best value observed.  The first
    ``warmup`` updates never trip the detector (early losses are
    legitimately chaotic).
    """

    def __init__(self, factor: float = 10.0, patience: int = 3,
                 warmup: int = 1) -> None:
        if factor <= 1.0:
            raise ValueError(f"factor must be > 1, got {factor}")
        if patience < 1:
            raise ValueError(f"patience must be >= 1, got {patience}")
        if warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {warmup}")
        self.factor = factor
        self.patience = patience
        self.warmup = warmup
        self.best = float("inf")
        self.strikes = 0
        self.updates = 0

    def update(self, loss: float) -> bool:
        """Record one loss value; returns True when divergence is declared."""
        self.updates += 1
        exploded = (not np.isfinite(loss)
                    or (np.isfinite(self.best)
                        and loss > self.factor * abs(self.best)))
        if np.isfinite(loss) and loss < self.best:
            self.best = float(loss)
        if self.updates <= self.warmup:
            return False
        if exploded:
            self.strikes += 1
        else:
            self.strikes = 0
        return self.strikes >= self.patience

    def __repr__(self) -> str:
        return (f"DivergenceDetector(best={self.best:.6g}, "
                f"strikes={self.strikes}/{self.patience})")
