"""Loss-process models that drive equation-based rate control.

Provides i.i.d. (shifted exponential, gamma, lognormal, deterministic,
empirical), correlated (Markov-modulated, Gilbert), Bernoulli/geometric,
and trace-driven models, all behind the common
:class:`~repro.lossprocess.base.LossProcess` interface.
"""

from .base import LossProcess, derive_point_seed, make_rng
from .bernoulli import BernoulliDropper, GeometricIntervals
from .iid import (
    DeterministicIntervals,
    EmpiricalIntervals,
    GammaIntervals,
    LognormalIntervals,
    ShiftedExponentialIntervals,
)
from .markov import (
    GilbertIntervals,
    GilbertPacketLoss,
    MarkovModulatedIntervals,
    two_phase_process,
)
from .trace import TraceIntervals, load_intervals

__all__ = [
    "LossProcess",
    "derive_point_seed",
    "make_rng",
    "ShiftedExponentialIntervals",
    "DeterministicIntervals",
    "GammaIntervals",
    "LognormalIntervals",
    "EmpiricalIntervals",
    "MarkovModulatedIntervals",
    "GilbertPacketLoss",
    "GilbertIntervals",
    "two_phase_process",
    "BernoulliDropper",
    "GeometricIntervals",
    "TraceIntervals",
    "load_intervals",
]
