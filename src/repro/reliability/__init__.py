"""``repro.reliability`` — fault injection and training-stability guards.

Long-running multi-process training fails in ways unit tests rarely
exercise: a replica is OOM-killed, a replica hangs on a bad node, a
batch produces NaN gradients, the loss diverges.  This package makes
every one of those failure modes *deterministic and injectable*
(:mod:`repro.reliability.faults`) and provides the numeric guards the
trainer applies per step (:mod:`repro.reliability.guards`).  The
supervision machinery that reacts to worker death lives next to the
trainer in :mod:`repro.parallel.supervisor`.
"""

from repro.reliability.faults import ChaosPlan, Fault, FaultPlan, WindowFault
from repro.reliability.guards import (
    DivergenceDetector,
    GradientGuard,
    TrainingDiverged,
)

__all__ = [
    "ChaosPlan",
    "Fault",
    "FaultPlan",
    "WindowFault",
    "DivergenceDetector",
    "GradientGuard",
    "TrainingDiverged",
]
