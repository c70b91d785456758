"""Core contribution of the paper: equation-based rate control analysis.

This subpackage contains the loss-throughput formulas, the loss-event
interval estimator, the basic and comprehensive control laws, the analytic
throughput expressions (Propositions 1-3), the convexity diagnostics and
sufficient conditions (Theorems 1-2, Proposition 4), and the
TCP-friendliness breakdown into sub-conditions.
"""

from .conditions import (
    ConditionReport,
    Verdict,
    check_condition_c1,
    check_condition_c2,
    evaluate_conditions,
    theorem1_bound,
    theorem1_verdict,
    theorem2_verdict,
)
from .control import (
    BasicControl,
    ComprehensiveControl,
    ControlTrace,
    run_basic_control,
    run_comprehensive_control,
)
from .convexity import (
    ConvexityReport,
    analyze_formula_convexity,
    convex_closure,
    deviation_from_convexity,
    is_concave_on_grid,
    is_convex_on_grid,
)
from .estimator import (
    EstimatorTrace,
    MovingAverageEstimator,
    estimate_series,
    tfrc_weights,
    uniform_weights,
)
from .formulas import (
    AimdFormula,
    LossThroughputFormula,
    Msmo97Formula,
    PftkSimplifiedFormula,
    PftkStandardFormula,
    SqrtFormula,
    default_c1,
    default_c2,
)
from .rtt import EventAverageRtt, EwmaRttEstimator, JacobsonRttEstimator
from .shortflow import Csa00LatencyModel, LatencyModel
from .friendliness import (
    FlowObservation,
    FriendlinessBreakdown,
    breakdown,
    is_tcp_friendly,
)
from .throughput import (
    ThroughputDecomposition,
    decompose_throughput,
)

__all__ = [
    # formulas
    "LossThroughputFormula",
    "SqrtFormula",
    "PftkStandardFormula",
    "PftkSimplifiedFormula",
    "AimdFormula",
    "Msmo97Formula",
    "default_c1",
    "default_c2",
    # short-flow latency models
    "LatencyModel",
    "Csa00LatencyModel",
    # estimator
    "MovingAverageEstimator",
    "EstimatorTrace",
    "estimate_series",
    "tfrc_weights",
    "uniform_weights",
    # control
    "BasicControl",
    "ComprehensiveControl",
    "ControlTrace",
    "run_basic_control",
    "run_comprehensive_control",
    # throughput
    "ThroughputDecomposition",
    "decompose_throughput",
    # convexity
    "ConvexityReport",
    "analyze_formula_convexity",
    "convex_closure",
    "deviation_from_convexity",
    "is_convex_on_grid",
    "is_concave_on_grid",
    # conditions
    "Verdict",
    "ConditionReport",
    "check_condition_c1",
    "check_condition_c2",
    "theorem1_bound",
    "theorem1_verdict",
    "theorem2_verdict",
    "evaluate_conditions",
    # rtt
    "EwmaRttEstimator",
    "JacobsonRttEstimator",
    "EventAverageRtt",
    # friendliness
    "FlowObservation",
    "FriendlinessBreakdown",
    "breakdown",
    "is_tcp_friendly",
]
