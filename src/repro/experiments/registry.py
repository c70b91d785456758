"""Runner registry and named figure presets.

The registry maps a spec's ``runner`` kind to a plain function
``fn(params, seed) -> dict`` executing one point and returning a JSON-safe
value dictionary.  These kinds are built in, wired through the unified
component API in :mod:`repro.api`:

``montecarlo-basic`` / ``montecarlo-comprehensive``
    The :func:`repro.api.simulate` facade over *any* registered loss
    process and weight profile, on a :class:`~repro.api.SimConfig` built
    from the point's params that name its fields.  The classic Figure
    3/4 form names ``loss_event_rate`` / ``coefficient_of_variation``
    (shifted exponential; the cv is required); a ``loss_process`` config
    entry swaps in any other registered kind (Markov/Gilbert, traces,
    ...), and a ``profile`` entry swaps the estimator weights.
``dumbbell``
    :func:`repro.simulator.run_dumbbell` on a registered scenario family
    (a ``scenario`` config), summarised per flow and per TFRC/TCP pair.
``dumbbell-batch``
    One scenario family evaluated over several replications in a single
    point: the scenario config is resolved and its
    :class:`~repro.simulator.scenarios.DumbbellConfig` (the topology
    description) built once, and the replications re-run the simulator
    from that shared description with only the seed varying.  A campaign
    whose grid sweeps ``scenario`` configs therefore resolves each
    family exactly once per point.
``audio``
    The Claim 2 / Figure 6 audio source through a Bernoulli dropper.
``flowsim``
    The flow-level engine of :mod:`repro.flowsim`: per-interval
    throughput sampling over an entire flow population (no packets),
    for thousand-to-million-flow scenario points, on a
    :class:`~repro.flowsim.FlowSimConfig` built the same way.
``shortflow``
    Closed-form short-flow expected transfer latency (the
    ``repro.api.LATENCY_MODELS`` registry, CSA00 by default) over
    (transfer size, loss-event rate, RTT) axes, with an optional
    steady-state formula comparison per point at the point's one RTT;
    comparing latency models is a ``latency_model`` grid axis.

Either config's own rules check the params it is given, so a point
that names both ``profile`` and ``history_length``, or a
``loss_process`` with a cv or a ``loss_event_rate``, is an error row;
so is a montecarlo point whose ``control`` differs from its runner's.
The runner's derived seed replaces a ``seed`` param, and any other key
(a ``replication`` axis, say) only enters the point's derived seed.

Custom kinds can be registered with :func:`register_runner`; the function
must live at module level so it survives pickling into worker processes.
:data:`IN_PROCESS_KINDS` names the built-in kinds whose points are too
cheap for a process pool; the runner keeps those in the calling process.

:func:`preset` returns ready-made :class:`~repro.experiments.spec.
ExperimentSpec` campaigns for the paper's figure scenarios; the
``FIGURE3_*`` / ``FIGURE4_CVS`` constants are the Figure 3/4 axes they
grid over.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..api.components import FORMULAS, LATENCY_MODELS, SCENARIOS
from ..api.simulate import SimConfig
from ..api.simulate import simulate as _simulate_point
# Unused here; bound so perfbench's traced pass can still wrap it by name.
from ..api.simulate import simulate_batch as _simulate_batch  # noqa: F401
from ..lossprocess.base import derive_point_seed
from .spec import ExperimentSpec

__all__ = [
    "register_runner",
    "resolve_runner",
    "runner_kinds",
    "IN_PROCESS_KINDS",
    "FIGURE3_CV",
    "FIGURE3_LOSS_RATES",
    "FIGURE3_HISTORY_LENGTHS",
    "FIGURE4_CVS",
    "run_campaign_batched",
    "preset",
    "preset_names",
    "PRESETS",
]

RunnerFunction = Callable[[Dict[str, Any], Optional[int]], Dict[str, Any]]

_RUNNERS: Dict[str, RunnerFunction] = {}


def register_runner(kind: str, function: RunnerFunction) -> None:
    """Register (or replace) the runner function for a spec kind."""
    if not kind:
        raise ValueError("runner kind must be non-empty")
    _RUNNERS[kind] = function


def resolve_runner(kind: str) -> RunnerFunction:
    """Look up a runner function by kind."""
    try:
        return _RUNNERS[kind]
    except KeyError:
        raise KeyError(
            f"unknown runner kind {kind!r}; registered kinds are {runner_kinds()}"
        ) from None


def runner_kinds() -> List[str]:
    """The registered runner kinds, sorted."""
    return sorted(_RUNNERS)


# ----------------------------------------------------------------------
# Built-in runners
# ----------------------------------------------------------------------
def _float_or_nan(value: float) -> float:
    value = float(value)
    return value if math.isfinite(value) else float("nan")


def _typed_param(params: Dict[str, Any], name: str, default: Any) -> Any:
    """The point's ``name`` param (or ``default``), which must have the
    default's type: an integer (not a bool) or a bool.  Coercing it
    instead would run ``4.9`` as 4 or ``"false"`` as True while the
    point's key records the value as given."""
    value = params.get(name, default)
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ValueError(f"{name} must be a bool, got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def run_montecarlo_basic(params: Dict[str, Any], seed: Optional[int]) -> Dict[str, Any]:
    """One numerical-experiment point with the basic control."""
    return _run_montecarlo(params, seed, comprehensive=False)


def run_montecarlo_comprehensive(
    params: Dict[str, Any], seed: Optional[int]
) -> Dict[str, Any]:
    """One numerical-experiment point with the comprehensive control."""
    return _run_montecarlo(params, seed, comprehensive=True)


def _config_from_params(config_type, params: Dict[str, Any], **owned: Any):
    """Build ``config_type`` from the point's params that name its fields
    (see the module docstring); ``owned`` are the fields the runner sets
    itself, whatever the params say."""
    names = {field.name for field in dataclasses.fields(config_type)}
    fields = {name: value for name, value in params.items() if name in names}
    return config_type(**{**fields, **owned})


def _run_montecarlo(
    params: Dict[str, Any], seed: Optional[int], comprehensive: bool
) -> Dict[str, Any]:
    control = "comprehensive" if comprehensive else "basic"
    # The control enters the point's key, so a point may not name another.
    if params.get("control", control) != control:
        raise ValueError(
            f"point control {params['control']!r} differs from the runner's {control!r}"
        )
    config = _config_from_params(SimConfig, params, control=control, seed=seed)
    if config.loss_process is None and "coefficient_of_variation" not in params:
        # Required in the classic form: a missing (or misspelled) cv key
        # fails the point rather than silently running at the
        # exponential default.
        raise KeyError("coefficient_of_variation")
    result = _simulate_point(config)
    # Echo the requested axis values verbatim where the spec named them,
    # so grid labels round-trip exactly.  Config-driven loss processes
    # report the model's nominal rate and a null cv (computing the cv of
    # an arbitrary process needs a large simulation).
    loss_event_rate = (
        float(params["loss_event_rate"])
        if "loss_event_rate" in params
        else result.loss_event_rate
    )
    coefficient_of_variation = (
        float(params["coefficient_of_variation"])
        if "coefficient_of_variation" in params
        else None
    )
    return {
        "loss_event_rate": loss_event_rate,
        "coefficient_of_variation": coefficient_of_variation,
        "history_length": int(result.history_length),
        "normalized_throughput": float(result.normalized_throughput),
        "throughput": float(result.throughput),
        "interval_estimate_covariance": float(result.interval_estimate_covariance),
        "estimator_cv": float(result.estimator_cv),
        "empirical_loss_event_rate": float(result.empirical_loss_event_rate),
        "num_events": int(result.num_events),
    }


def _dumbbell_point(
    params: Dict[str, Any], seed: Optional[int]
) -> Tuple[Dict[str, Any], Any]:
    """The point's scenario family: the ``family`` and ``num_connections``
    that label its value, and its built simulator config."""
    if "scenario" not in params:
        raise ValueError(
            "dumbbell points need a 'scenario' component config, e.g. "
            "{'scenario': {'kind': 'ns2', 'num_connections': 2}}; the flat "
            "family=/num_connections=/... form is no longer accepted"
        )
    scenario = SCENARIOS.from_config(params["scenario"])
    config = scenario.build(seed)
    label = {
        "family": SCENARIOS.to_config(scenario)["kind"],
        "num_connections": int(getattr(scenario, "num_connections", config.num_tfrc)),
    }
    return label, config


def _scenario_ratios(result) -> Dict[str, float]:
    """The scenario's ``p'/p`` and ``x/x'``, nan where one is undefined."""
    from ..analysis.breakdown import loss_rate_ratio, throughput_ratio

    ratios = {}
    for name, ratio in (
        ("loss_rate_ratio", loss_rate_ratio),
        ("throughput_ratio", throughput_ratio),
    ):
        try:
            ratios[name] = _float_or_nan(ratio(result))
        except ValueError:
            ratios[name] = float("nan")
    return ratios


def run_dumbbell_scenario(params: Dict[str, Any], seed: Optional[int]) -> Dict[str, Any]:
    """One packet-level dumbbell scenario, summarised per flow and per pair."""
    # Imported lazily to keep a montecarlo-only campaign from paying for
    # the analysis/measurement stack in every worker process.
    from ..analysis.breakdown import pair_breakdowns
    from ..measurement.collectors import scenario_summaries
    from ..simulator.scenarios import run_dumbbell

    label, config = _dumbbell_point(params, seed)
    result = run_dumbbell(config)

    # scenario_summaries has no formula fallback of its own; normalise by
    # the formula the TFRC senders ran, as the breakdown layer does.
    flows = []
    for summary in scenario_summaries(result, formula=config.resolve_formula()):
        flows.append(
            {
                "label": summary.label,
                "num_loss_events": int(summary.num_loss_events),
                "loss_event_rate": _float_or_nan(summary.loss_event_rate),
                "normalized_throughput": _float_or_nan(summary.normalized_throughput),
                "normalized_covariance": _float_or_nan(summary.normalized_covariance),
                "throughput": _float_or_nan(summary.throughput),
                "mean_rtt": _float_or_nan(summary.mean_rtt),
            }
        )
    pairs = []
    for pair in pair_breakdowns(result):
        pairs.append(
            {
                "tfrc_loss_event_rate": _float_or_nan(pair.tfrc.loss_event_rate),
                "tcp_loss_event_rate": _float_or_nan(pair.tcp.loss_event_rate),
                "conservativeness_ratio": _float_or_nan(
                    pair.breakdown.conservativeness_ratio
                ),
                "loss_rate_ratio": _float_or_nan(pair.breakdown.loss_rate_ratio),
                "rtt_ratio": _float_or_nan(pair.breakdown.rtt_ratio),
                "tcp_obedience_ratio": _float_or_nan(pair.breakdown.tcp_obedience_ratio),
                "throughput_ratio": _float_or_nan(pair.breakdown.throughput_ratio),
            }
        )
    return {
        **label,
        "flows": flows,
        "pairs": pairs,
        **_scenario_ratios(result),
        "measured_duration": float(result.measured_duration),
    }


def run_dumbbell_batch(params: Dict[str, Any], seed: Optional[int]) -> Dict[str, Any]:
    """One scenario family over several replications of its topology.

    The point's ``scenario`` config is resolved a single time, and
    :meth:`~repro.api.scenarios.ScenarioFamily.build` is called once --
    every replication re-runs the simulator from that shared
    :class:`~repro.simulator.scenarios.DumbbellConfig`, with only the
    seed varying (derived per replication with the same hashed
    scheme the campaign grid uses).  Returns per-replication
    friendliness ratios plus their mean over the finite values.
    """
    from ..simulator.scenarios import run_dumbbell

    label, base_config = _dumbbell_point(params, seed)
    replications = _typed_param(params, "replications", 1)
    if replications < 1:
        raise ValueError("replications must be at least 1")

    runs: List[Dict[str, Any]] = []
    for replication in range(replications):
        rep_seed = (
            seed
            if replications == 1
            else derive_point_seed(seed, replication=replication)
        )
        result = run_dumbbell(
            dataclasses.replace(base_config, seed=rep_seed)
        )
        runs.append(
            {
                "replication": replication,
                "seed": rep_seed,
                **_scenario_ratios(result),
                "measured_duration": float(result.measured_duration),
            }
        )

    def _finite_mean(key: str) -> float:
        values = [run[key] for run in runs if math.isfinite(run[key])]
        return float(sum(values) / len(values)) if values else float("nan")

    return {
        **label,
        "replications": replications,
        "loss_rate_ratio": _finite_mean("loss_rate_ratio"),
        "throughput_ratio": _finite_mean("throughput_ratio"),
        "runs": runs,
    }


def run_audio_scenario(params: Dict[str, Any], seed: Optional[int]) -> Dict[str, Any]:
    """Claim 2 / Figure 6: one audio source through a Bernoulli dropper."""
    from ..simulator.engine import Simulator
    from ..simulator.sources import AudioSource

    formula = FORMULAS.from_config(params["formula"])
    simulator = Simulator(seed=seed)
    source = AudioSource(
        simulator,
        loss_probability=float(params["loss_probability"]),
        formula=formula,
        history_length=_typed_param(params, "history_length", 4),
        packet_period=float(params.get("packet_period", 0.002)),
        comprehensive=_typed_param(params, "comprehensive", True),
    )
    simulator.run(until=float(params.get("duration", 200.0)))
    intervals = source.stats.loss_event_intervals
    mean_interval = (
        float(sum(intervals) / len(intervals)) if intervals else float("nan")
    )
    estimates = source.estimate_samples[len(source.estimate_samples) // 10:]
    squared_cv = float("nan")
    if estimates:
        mean_estimate = sum(estimates) / len(estimates)
        if mean_estimate > 0:
            variance = sum((e - mean_estimate) ** 2 for e in estimates) / len(estimates)
            squared_cv = variance / mean_estimate**2
    return {
        "loss_probability": float(params["loss_probability"]),
        "normalized_throughput": _float_or_nan(source.normalized_throughput()),
        "mean_rate": _float_or_nan(source.mean_rate()),
        "loss_event_rate": _float_or_nan(
            1.0 / mean_interval if mean_interval and mean_interval > 0 else float("nan")
        ),
        "estimator_squared_cv": _float_or_nan(squared_cv),
        "packets_sent": int(source.stats.packets_sent),
    }


def run_flowsim_scenario(params: Dict[str, Any], seed: Optional[int]) -> Dict[str, Any]:
    """One flow-level scenario point (see :mod:`repro.flowsim`).

    The point's params that name :class:`~repro.flowsim.FlowSimConfig`
    fields build its config: a ``generator`` config (any registered
    ``repro.api.GENERATORS`` kind; 100 fixed-population flows by
    default), a ``formula``, and a loss model either as a
    ``loss_process`` config or the classic ``loss_event_rate`` (+
    optional ``coefficient_of_variation``) axes.  Returns the scalar
    flow summary -- flow counts, flowlets, the mean per-flow rate and
    its steady-state formula prediction.
    """
    # Imported lazily so montecarlo-only campaign workers never pay for
    # the flow-level stack.
    from ..flowsim import FlowSimConfig, run_flowsim

    # The runner returns the summary only, so it records no flowlets.
    config = _config_from_params(
        FlowSimConfig, params, record_flowlets=False, seed=seed
    )
    return run_flowsim(config).summary()


def _shortflow_model_and_formula(params: Dict[str, Any]):
    """Resolve the point's latency model and comparison formula.

    A point has one RTT: its ``rtt`` param, or else the latency model's.
    The formula's config is built at that RTT, so ``rate_ratio`` compares
    the transfer with ``f(p, r)`` at the RTT the transfer itself sees.
    The ``rtt`` param goes through the config dict (not
    ``dataclasses.replace``) so derived defaults -- CSA00's
    ``rto = 2 * rtt`` fill-in -- re-derive at the new RTT unless the
    spec pinned them explicitly.  Either config may be a kind string.
    """
    model_config = params.get("latency_model") or "csa00"
    if isinstance(model_config, str):
        model_config = {"kind": model_config}
    if "rtt" in params:
        model_config = {**model_config, "rtt": float(params["rtt"])}
    model = LATENCY_MODELS.from_config(model_config)
    formula = params.get("formula")
    if formula is not None:
        if isinstance(formula, str):
            formula = {"kind": formula}
        formula = FORMULAS.from_config({**formula, "rtt": float(model.rtt)})
    return model, formula


def run_shortflow_point(params: Dict[str, Any], seed: Optional[int]) -> Dict[str, Any]:
    """One short-flow latency point: expected transfer latency vs size.

    The point names a ``latency_model`` config (any registered
    ``repro.api.LATENCY_MODELS`` kind, default CSA00), a transfer size in
    packets and a loss-event rate, plus an optional steady-state
    ``formula`` for comparison at the point's RTT (see
    :func:`_shortflow_model_and_formula`).  The model is closed form, so
    the seed is unused; the runner keeps the common signature for the
    campaign machinery.
    """
    model, formula = _shortflow_model_and_formula(params)
    size = float(params["transfer_size"])
    loss_event_rate = float(params["loss_event_rate"])
    components = (
        model.components(size, loss_event_rate)
        if hasattr(model, "components")
        else {"latency": model.latency(size, loss_event_rate)}
    )
    value: Dict[str, Any] = {
        "transfer_size": size,
        "loss_event_rate": loss_event_rate,
        "rtt": float(model.rtt),
        "transfer_rate": float(size / components["latency"]),
    }
    for name, component in components.items():
        value[name] = float(component)
    if formula is not None:
        steady_state = float(formula.rate(loss_event_rate))
        value["steady_state_rate"] = steady_state
        value["rate_ratio"] = (
            value["transfer_rate"] / steady_state
            if steady_state > 0
            else float("nan")
        )
    return value


register_runner("montecarlo-basic", run_montecarlo_basic)
register_runner("montecarlo-comprehensive", run_montecarlo_comprehensive)
register_runner("dumbbell", run_dumbbell_scenario)
register_runner("dumbbell-batch", run_dumbbell_batch)
register_runner("audio", run_audio_scenario)
register_runner("flowsim", run_flowsim_scenario)
register_runner("shortflow", run_shortflow_point)


#: Kinds whose points cost less than a process pool's start-up and
#: pickling: a Monte-Carlo point is one kernel call, a short-flow point a
#: closed form.  :class:`~repro.experiments.runner.ExperimentRunner` runs
#: them serially in the calling process whatever its ``workers`` says.
IN_PROCESS_KINDS = frozenset(
    {"montecarlo-basic", "montecarlo-comprehensive", "shortflow"}
)


def run_campaign_batched(spec: ExperimentSpec, workers: Optional[int] = None):
    """Alias of ``ExperimentRunner(workers=workers).run(spec)``."""
    from .runner import ExperimentRunner

    return ExperimentRunner(workers=workers).run(spec)


# ----------------------------------------------------------------------
# Named presets for the paper's figure scenarios
# ----------------------------------------------------------------------
#: The coefficient of variation used throughout Figure 3.
FIGURE3_CV = 1.0 - 1.0 / 1000.0

#: The loss-event rate grid of Figure 3 (0 excluded; up to 0.4).
FIGURE3_LOSS_RATES: Tuple[float, ...] = (0.01, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4)

#: The window lengths shown in Figures 3 and 4.
FIGURE3_HISTORY_LENGTHS: Tuple[int, ...] = (1, 2, 4, 8, 16)

#: The coefficient-of-variation grid of Figure 4.
FIGURE4_CVS: Tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.999)


def _fig3_spec(formula_name: str) -> ExperimentSpec:
    return ExperimentSpec(
        name=f"fig3-{formula_name.split('-')[0]}",
        runner="montecarlo-basic",
        base={
            "formula": {"kind": formula_name, "rtt": 1.0},
            "coefficient_of_variation": FIGURE3_CV,
            "num_events": 20_000,
        },
        grid={
            "history_length": list(FIGURE3_HISTORY_LENGTHS),
            "loss_event_rate": list(FIGURE3_LOSS_RATES),
        },
        seed=17,
        description=(
            f"Figure 3 ({formula_name}): normalized throughput of the basic "
            "control vs p, cv = 1 - 1/1000, L in {1, 2, 4, 8, 16}."
        ),
    )


def _fig4_spec(loss_event_rate: float, label: str) -> ExperimentSpec:
    return ExperimentSpec(
        name=f"fig4-{label}",
        runner="montecarlo-basic",
        base={
            "formula": {"kind": "pftk-simplified", "rtt": 1.0},
            "loss_event_rate": loss_event_rate,
            "num_events": 20_000,
        },
        grid={
            "history_length": list(FIGURE3_HISTORY_LENGTHS),
            "coefficient_of_variation": list(FIGURE4_CVS),
        },
        seed=11,
        description=(
            f"Figure 4 (p = {loss_event_rate}): normalized throughput vs "
            "cv[theta_0], PFTK-simplified."
        ),
    )


def _fig5_spec() -> ExperimentSpec:
    return ExperimentSpec(
        name="fig5-ns2",
        runner="dumbbell",
        grid={
            "scenario": [
                {"kind": "ns2", "num_connections": count, "duration": 120.0}
                for count in (1, 2, 4, 8)
            ]
        },
        seed=100,
        description=(
            "Figure 5: equal numbers of TFRC and TCP flows over a RED "
            "bottleneck (ns-2 analogue); per-flow normalized throughput and "
            "covariance vs p."
        ),
    )


def _fig6_spec() -> ExperimentSpec:
    return ExperimentSpec(
        name="fig6-audio",
        runner="audio",
        base={
            "formula": {"kind": "pftk-simplified", "rtt": 1.0},
            "history_length": 4,
            "packet_period": 0.002,
            "duration": 240.0,
        },
        grid={"loss_probability": [0.02, 0.05, 0.1, 0.15, 0.2, 0.25]},
        seed=300,
        description=(
            "Figure 6: audio source (fixed packet clock, variable length) "
            "through a Bernoulli dropper, L = 4."
        ),
    )


def _fig11_spec() -> ExperimentSpec:
    return ExperimentSpec(
        name="fig11-internet",
        runner="dumbbell",
        grid={
            "scenario": [
                {
                    "kind": "internet",
                    "path_name": path_name,
                    "num_connections": count,
                    "duration": 150.0,
                }
                for path_name in ("INRIA", "UMASS", "KTH", "UMELB")
                for count in (1, 2)
            ]
        },
        seed=1100,
        description=(
            "Figure 11: TFRC/TCP throughput ratio on the Table I Internet "
            "path analogues."
        ),
    )


def _fig16_spec() -> ExperimentSpec:
    # buffer_packets=None keeps the paper's lab setups: 100 packets for
    # DropTail, bandwidth-delay-derived for RED (LabScenario.build).
    return ExperimentSpec(
        name="fig16-lab",
        runner="dumbbell",
        grid={
            "scenario": [
                {
                    "kind": "lab",
                    "queue_type": queue_type,
                    "num_connections": count,
                    "buffer_packets": None,
                    "duration": 150.0,
                }
                for queue_type in ("droptail", "red")
                for count in (1, 2, 4, 6)
            ]
        },
        seed=1600,
        description=(
            "Figure 16: TFRC/TCP throughput ratio vs p in the lab analogues "
            "(DropTail 100 and RED, comprehensive control disabled)."
        ),
    )


def _fig5_batch_spec() -> ExperimentSpec:
    """Figure-5-style dumbbell campaign through the batched runner.

    The grid sweeps ``scenario`` configs directly (the ns-2 family at
    three flow counts); each point runs two replications from the one
    topology description built for its scenario config, averaging the
    TFRC/TCP friendliness ratios over the replications.
    """
    return ExperimentSpec(
        name="fig5-ns2-batch",
        runner="dumbbell-batch",
        base={"replications": 2},
        grid={
            "scenario": [
                {"kind": "ns2", "num_connections": n, "duration": 60.0}
                for n in (1, 2, 4)
            ]
        },
        seed=510,
        description=(
            "Figure 5 (batched): ns-2 dumbbell scenario grid, 2 "
            "replications per scenario from one built topology "
            "description, mean TFRC/TCP ratios."
        ),
    )


def _fig_shortflow_spec() -> ExperimentSpec:
    """Short-flow latency surface: CSA00 over size x loss rate x RTT.

    The CSA00 expected-transfer-latency model against the PFTK-standard
    steady-state rate at the same loss rate and RTT: ``rate_ratio``
    (short-flow effective rate over steady-state rate) shows how far
    below the long-flow asymptote a finite transfer lands -- the
    finite-transfer complement to the paper's long-lived-flow
    friendliness claims.
    """
    return ExperimentSpec(
        name="fig-shortflow",
        runner="shortflow",
        base={
            "latency_model": {"kind": "csa00", "initial_window": 2},
            "formula": {"kind": "pftk-standard"},
        },
        grid={
            "transfer_size": [4.0, 16.0, 64.0, 256.0, 1024.0],
            "loss_event_rate": [0.005, 0.02, 0.05, 0.1, 0.2],
            "rtt": [0.05, 0.2],
        },
        seed=2000,
        description=(
            "Short-flow latency surface: CSA00 expected transfer latency "
            "and effective rate vs steady-state PFTK-standard, over "
            "transfer size x loss-event rate x RTT."
        ),
    )


def _smoke_spec() -> ExperimentSpec:
    return ExperimentSpec(
        name="smoke",
        runner="montecarlo-basic",
        base={
            "formula": {"kind": "sqrt", "rtt": 1.0},
            "coefficient_of_variation": 0.9,
            "num_events": 2_000,
        },
        grid={"history_length": [2, 8], "loss_event_rate": [0.05, 0.2]},
        seed=1,
        description="Tiny 4-point campaign for CI smoke tests (seconds).",
    )


def _fig3_markov_spec() -> ExperimentSpec:
    """Figure-3-style sweep of p under a two-phase Markov loss process.

    The loss-process axis is a list of component configs: each point is a
    symmetric two-phase chain whose stationary mean interval is ``1/p``
    (good phase 1.6/p, congested phase 0.4/p), so the x-axis sweeps the
    loss-event rate exactly as Figure 3 does while the interval sequence
    is strongly phase-correlated -- the regime where Theorem 1's
    covariance condition is stressed.
    """
    processes = [
        {
            "kind": "two-phase",
            "good_mean": 1.6 / rate,
            "bad_mean": 0.4 / rate,
            "switch_probability": 0.2,
        }
        for rate in (0.02, 0.05, 0.1, 0.2)
    ]
    return ExperimentSpec(
        name="fig3-markov",
        runner="montecarlo-basic",
        base={
            "formula": {"kind": "pftk-simplified", "rtt": 1.0},
            "num_events": 10_000,
        },
        grid={
            "history_length": [2, 8],
            "loss_process": processes,
        },
        seed=23,
        description=(
            "Figure-3-style sweep under a two-phase Markov loss process "
            "(stationary mean 1/p), L in {2, 8}, PFTK-simplified."
        ),
    )


def _flowsim_scale_spec() -> ExperimentSpec:
    """10k concurrent flows, 100 simulated seconds, two loss-rate points.

    The flow-level engine's scale demonstration: each point draws one
    estimator sample per flow per second (10k x 100 x L = 8M interval
    draws) in vectorised per-tick passes, so the whole campaign runs in
    seconds where the packet-level dumbbell could not hold 10k flows at
    all.  cv = 0.6 keeps the estimator-sampling bias of the mean
    per-flow rate well inside the 5% acceptance band.
    """
    return ExperimentSpec(
        name="flowsim-scale",
        runner="flowsim",
        base={
            "formula": {"kind": "sqrt", "rtt": 0.1},
            "coefficient_of_variation": 0.6,
            "history_length": 8,
            "duration": 100.0,
            "interval": 1.0,
            "generator": {"kind": "fixed-population", "num_flows": 10_000},
        },
        grid={"loss_event_rate": [0.02, 0.1]},
        seed=4200,
        description=(
            "Flow-level scale demo: 10k concurrent flows for 100 s, "
            "per-second estimator-sampled flowlets, sqrt formula at "
            "p in {0.02, 0.1}."
        ),
    )


PRESETS: Dict[str, Callable[[], ExperimentSpec]] = {
    "fig3-sqrt": lambda: _fig3_spec("sqrt"),
    "fig3-pftk": lambda: _fig3_spec("pftk-simplified"),
    "fig3-markov": _fig3_markov_spec,
    "fig4-low-loss": lambda: _fig4_spec(0.01, "low-loss"),
    "fig4-high-loss": lambda: _fig4_spec(0.1, "high-loss"),
    "fig5-ns2": _fig5_spec,
    "fig5-ns2-batch": _fig5_batch_spec,
    "fig6-audio": _fig6_spec,
    "fig11-internet": _fig11_spec,
    "fig16-lab": _fig16_spec,
    "fig-shortflow": _fig_shortflow_spec,
    "flowsim-scale": _flowsim_scale_spec,
    "smoke": _smoke_spec,
}


def preset(name: str) -> ExperimentSpec:
    """Build the named preset campaign spec."""
    try:
        factory = PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; available presets are {preset_names()}"
        ) from None
    return factory()


def preset_names() -> List[str]:
    """The available preset names, sorted."""
    return sorted(PRESETS)
