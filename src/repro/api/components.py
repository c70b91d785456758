"""The five component registries of :mod:`repro.api`.

One :class:`~repro.api.registry.ComponentRegistry` per configurable
family, with every concrete component the package ships registered under
a stable ``kind``:

========================  =====================================================
registry                  kinds
========================  =====================================================
:data:`FORMULAS`          sqrt, pftk-standard, pftk-simplified, aimd, msmo97
:data:`LATENCY_MODELS`    csa00
:data:`LOSS_PROCESSES`    shifted-exponential, deterministic, gamma, lognormal,
                          empirical, geometric, markov-modulated, two-phase,
                          gilbert, trace
:data:`WEIGHT_PROFILES`   tfrc, uniform, custom
:data:`SCENARIOS`         ns2, lab, internet, dumbbell
:data:`GENERATORS`        fixed-population, poisson-arrivals, on-off
========================  =====================================================

``FORMULAS`` holds the steady-state loss-throughput models of the
paper; ``LATENCY_MODELS`` holds the complementary short-flow
expected-transfer-latency models (:mod:`repro.core.shortflow`), which
map a finite transfer size and loss-event rate to seconds instead of a
rate.

This module absorbed the pre-existing ad-hoc construction paths (the
formula table behind the removed ``make_formula`` /
``formula_to_params`` shims), and every component family -- including
the flow-level traffic generators of :mod:`repro.flowsim` -- shares the
uniform construct-from-config idiom.
"""

from __future__ import annotations

from typing import Any, Dict

from ..core.formulas import (
    AimdFormula,
    LossThroughputFormula,
    Msmo97Formula,
    PftkSimplifiedFormula,
    PftkStandardFormula,
    SqrtFormula,
)
from ..core.shortflow import Csa00LatencyModel, LatencyModel
from ..flowsim.generators import (
    FixedPopulationGenerator,
    OnOffGenerator,
    PoissonArrivalsGenerator,
    TrafficGenerator,
)
from ..lossprocess.base import LossProcess
from ..lossprocess.bernoulli import GeometricIntervals
from ..lossprocess.iid import (
    DeterministicIntervals,
    EmpiricalIntervals,
    GammaIntervals,
    LognormalIntervals,
    ShiftedExponentialIntervals,
)
from ..lossprocess.markov import (
    GilbertIntervals,
    MarkovModulatedIntervals,
    two_phase_process,
)
from ..lossprocess.trace import TraceIntervals
from .profiles import (
    CustomWeightProfile,
    TfrcWeightProfile,
    UniformWeightProfile,
    WeightProfile,
)
from .registry import ComponentRegistry
from .scenarios import (
    CustomDumbbellScenario,
    InternetScenario,
    LabScenario,
    Ns2Scenario,
    ScenarioFamily,
)

__all__ = [
    "REGISTRIES",
    "FORMULAS",
    "LATENCY_MODELS",
    "LOSS_PROCESSES",
    "WEIGHT_PROFILES",
    "SCENARIOS",
    "GENERATORS",
]


# ----------------------------------------------------------------------
# Formulas
# ----------------------------------------------------------------------
FORMULAS = ComponentRegistry("formula", LossThroughputFormula)
FORMULAS.register("sqrt", SqrtFormula, example=lambda: SqrtFormula(rtt=0.5))
FORMULAS.register(
    "pftk-standard",
    PftkStandardFormula,
    example=lambda: PftkStandardFormula(rtt=0.1),
)
FORMULAS.register(
    "pftk-simplified",
    PftkSimplifiedFormula,
    example=lambda: PftkSimplifiedFormula(rtt=2.0, rto=5.0),
)
FORMULAS.register(
    "aimd", AimdFormula, example=lambda: AimdFormula(alpha=1.0, beta=0.5)
)
FORMULAS.register(
    "msmo97", Msmo97Formula, example=lambda: Msmo97Formula(rtt=0.2)
)


# ----------------------------------------------------------------------
# Short-flow latency models
# ----------------------------------------------------------------------
LATENCY_MODELS = ComponentRegistry("latency model", LatencyModel)
LATENCY_MODELS.register(
    "csa00",
    Csa00LatencyModel,
    example=lambda: Csa00LatencyModel(rtt=0.1, initial_window=2),
)


# ----------------------------------------------------------------------
# Loss processes
# ----------------------------------------------------------------------
def _decode_shifted_exponential(params: Dict[str, Any]) -> ShiftedExponentialIntervals:
    """Accept both the canonical (shift, rate) and the (p, cv) forms.

    The paper's sweeps are phrased in terms of the loss-event rate ``p``
    and the coefficient of variation, so JSON specs may say::

        {"kind": "shifted-exponential", "loss_event_rate": 0.1,
         "coefficient_of_variation": 0.9}

    ``to_config`` always emits the canonical (shift, rate) shape.
    """
    if "loss_event_rate" in params:
        return ShiftedExponentialIntervals.from_loss_rate_and_cv(
            float(params["loss_event_rate"]),
            float(params.get("coefficient_of_variation", 1.0)),
        )
    return ShiftedExponentialIntervals(**params)


def _encode_markov(process: MarkovModulatedIntervals) -> Dict[str, Any]:
    return {
        "transition_matrix": process.transition_matrix.tolist(),
        "phase_means": process.phase_means.tolist(),
        "phase_cv": process.phase_cv,
    }


LOSS_PROCESSES = ComponentRegistry("loss process", LossProcess)
LOSS_PROCESSES.register(
    "shifted-exponential",
    ShiftedExponentialIntervals,
    decode=_decode_shifted_exponential,
    example=lambda: ShiftedExponentialIntervals.from_loss_rate_and_cv(0.1, 0.9),
)
LOSS_PROCESSES.register(
    "deterministic",
    DeterministicIntervals,
    example=lambda: DeterministicIntervals(value=12.5),
)
LOSS_PROCESSES.register(
    "gamma", GammaIntervals, example=lambda: GammaIntervals(mean=20.0, cv=1.5)
)
LOSS_PROCESSES.register(
    "lognormal",
    LognormalIntervals,
    example=lambda: LognormalIntervals(mean=10.0, cv=0.7),
)
LOSS_PROCESSES.register(
    "empirical",
    EmpiricalIntervals,
    encode=lambda process: {"observations": process.observations.tolist()},
    example=lambda: EmpiricalIntervals([3.0, 7.0, 11.0, 5.0]),
)
LOSS_PROCESSES.register(
    "geometric",
    GeometricIntervals,
    example=lambda: GeometricIntervals(loss_probability=0.1),
)
LOSS_PROCESSES.register(
    "markov-modulated",
    MarkovModulatedIntervals,
    encode=_encode_markov,
    example=lambda: MarkovModulatedIntervals(
        transition_matrix=[[0.9, 0.1], [0.2, 0.8]],
        phase_means=[50.0, 5.0],
        phase_cv=1.0,
    ),
)
# Constructor alias: a symmetric two-phase chain described by its switch
# probability.  to_config of the result reports the canonical
# "markov-modulated" shape.
LOSS_PROCESSES.register(
    "two-phase",
    MarkovModulatedIntervals,
    encode=_encode_markov,
    decode=lambda params: two_phase_process(**params),
    example=lambda: two_phase_process(
        good_mean=40.0, bad_mean=8.0, switch_probability=0.2
    ),
)
LOSS_PROCESSES.register(
    "gilbert",
    GilbertIntervals,
    example=lambda: GilbertIntervals(
        good_to_bad=0.05, bad_to_good=0.4, bad_loss_probability=0.5
    ),
)
LOSS_PROCESSES.register(
    "trace",
    TraceIntervals,
    encode=lambda process: {"intervals": process.intervals.tolist()},
    example=lambda: TraceIntervals([4.0, 9.0, 6.0, 14.0, 2.0]),
)


# ----------------------------------------------------------------------
# Estimator weight profiles
# ----------------------------------------------------------------------
WEIGHT_PROFILES = ComponentRegistry("weight profile", WeightProfile)
WEIGHT_PROFILES.register(
    "tfrc", TfrcWeightProfile, example=lambda: TfrcWeightProfile(history_length=8)
)
WEIGHT_PROFILES.register(
    "uniform",
    UniformWeightProfile,
    example=lambda: UniformWeightProfile(history_length=4),
)
WEIGHT_PROFILES.register(
    "custom",
    CustomWeightProfile,
    encode=lambda profile: {"raw_weights": list(profile.raw_weights)},
    example=lambda: CustomWeightProfile([4.0, 2.0, 1.0]),
)


# ----------------------------------------------------------------------
# Dumbbell scenario families
# ----------------------------------------------------------------------
SCENARIOS = ComponentRegistry("scenario", ScenarioFamily)
SCENARIOS.register(
    "ns2", Ns2Scenario, example=lambda: Ns2Scenario(num_connections=2)
)
SCENARIOS.register(
    "lab",
    LabScenario,
    example=lambda: LabScenario(num_connections=2, queue_type="red",
                                buffer_packets=None),
)
SCENARIOS.register(
    "internet",
    InternetScenario,
    example=lambda: InternetScenario(path_name="UMASS", num_connections=1),
)
SCENARIOS.register(
    "dumbbell",
    CustomDumbbellScenario,
    example=lambda: CustomDumbbellScenario(num_tfrc=2, num_tcp=1,
                                           queue_type="droptail",
                                           buffer_packets=50),
)


# ----------------------------------------------------------------------
# Flow-level traffic generators
# ----------------------------------------------------------------------
GENERATORS = ComponentRegistry("traffic generator", TrafficGenerator)
GENERATORS.register(
    "fixed-population",
    FixedPopulationGenerator,
    example=lambda: FixedPopulationGenerator(num_flows=50),
)
GENERATORS.register(
    "poisson-arrivals",
    PoissonArrivalsGenerator,
    example=lambda: PoissonArrivalsGenerator(arrival_rate=2.0,
                                             mean_duration=5.0),
)
GENERATORS.register(
    "on-off",
    OnOffGenerator,
    example=lambda: OnOffGenerator(num_flows=10, mean_on=5.0, mean_off=2.0),
)


#: Every component family, for code that must recognise any registered
#: instance (:func:`repro.experiments.store.canonical_payload`).
REGISTRIES = (FORMULAS, LATENCY_MODELS, LOSS_PROCESSES, WEIGHT_PROFILES,
              SCENARIOS, GENERATORS)
