"""The ``simulate()`` facade: typed configs in, typed results out.

These two functions are the package's only way to evaluate the basic
and comprehensive controls over a sampled loss process; the per-event
loops of :mod:`repro.core.control` are the test oracle, and
:mod:`repro.montecarlo` holds only the kernels beneath:

* :func:`simulate` takes a :class:`SimConfig` (or its dict/JSON form) and
  evaluates it as a one-row batch: the grid evaluator behind
  :func:`simulate_batch`, with one formula, one window and one loss
  model, sampled with the config's own seed.  That covers the basic /
  comprehensive control simulation and the Proposition 1/3 analytic
  integration, over *any* registered loss process and weight profile
  (a phased loss process of the paper's Section III-B.2 is the
  ``two-phase`` kind like any other);
* :func:`simulate_batch` takes a :class:`BatchConfig` describing a whole
  grid of (formula, p, cv, L) -- or (formula, loss process, L) -- points
  and evaluates it in shared numpy passes through
  :mod:`repro.montecarlo.vectorized` (``method="montecarlo"``) or
  :mod:`repro.montecarlo.vectorized_analytic` (``method="analytic"``,
  the Proposition 1/3 integrals), reusing sampled blocks across formula
  variants.  With ``share_noise=True`` (the default for the
  shifted-exponential grid form) a *single* unit-exponential block is
  drawn and rescaled per point -- common random numbers across the whole
  grid -- which both slashes sampling cost and smooths comparisons
  between neighbouring grid points.  With ``share_noise=False`` each
  point is sampled the way :func:`simulate` samples its one row, from
  the point's derived seed, so each row equals :func:`simulate` at that
  seed; the test suite asserts this equivalence for both methods.

The analytic method applies only to loss processes that *declare*
i.i.d. intervals (``is_iid = True``): Propositions 1 and 3 factorise the
estimator window from the next interval, which fails under correlation.
A process that does not expose the flag at all is rejected rather than
assumed independent.

Both config types and :class:`SimResult` round-trip through plain dicts
and JSON, so a simulation request is data the same way an
:class:`~repro.experiments.spec.ExperimentSpec` is.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import asdict, dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from .. import telemetry
from ..core.estimator import check_history_length
from ..lossprocess.base import check_seed, derive_point_seed, make_rng
from ..lossprocess.iid import ShiftedExponentialIntervals
from ..montecarlo.vectorized import (
    evaluate_control_arrays,
    sliding_estimates,
    summarize_rows,
)
from ..montecarlo.vectorized_analytic import (
    affine_basic_throughput_rows,
    analytic_window_estimates,
    basic_throughput_rows,
    comprehensive_throughput_rows,
    stratified_representatives,
)
from .components import FORMULAS, LOSS_PROCESSES, WEIGHT_PROFILES
from .profiles import TfrcWeightProfile

__all__ = ["SimConfig", "SimResult", "BatchConfig", "BatchResult",
           "SEED_AXES", "simulate", "simulate_batch", "require_iid"]

_CONTROLS = ("basic", "comprehensive")
_METHODS = ("montecarlo", "analytic")

#: The batch axes that can enter per-point seed derivation, each with the
#: :class:`BatchConfig` field that lists its values.
_SEED_AXIS_FIELDS = {
    "history_length": "history_lengths",
    "loss_event_rate": "loss_event_rates",
    "coefficient_of_variation": "coefficients_of_variation",
    "loss_process": "loss_processes",
}
#: The names a :attr:`BatchConfig.seed_axes` list may hold.
SEED_AXES = tuple(_SEED_AXIS_FIELDS)


def _component_config(registry, value: Any) -> Any:
    """Best-effort serialisation of a component reference for to_dict()."""
    if value is None or isinstance(value, (str, Mapping)):
        return value if not isinstance(value, Mapping) else dict(value)
    try:
        return registry.to_config(value)
    except TypeError:
        return value


def _check_run(config: Any) -> None:
    """The run fields :class:`SimConfig` and :class:`BatchConfig` share:
    the control, the method, an integer event count (concrete integer
    types, as in :func:`check_seed`) of at least 10, or 100 for the
    analytic method, and a valid seed."""
    if config.control not in _CONTROLS:
        raise ValueError(f"control must be one of {_CONTROLS}")
    if config.method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}")
    num_events = config.num_events
    if num_events < 10:
        raise ValueError("num_events must be at least 10")
    if config.method == "analytic" and num_events < 100:
        raise ValueError("method='analytic' needs num_events of at least 100")
    if isinstance(num_events, bool) or not isinstance(num_events, (int, np.integer)):
        raise ValueError(f"num_events must be an integer, got {num_events!r}")
    check_seed(config.seed)


def require_iid(process: Any) -> None:
    """Reject loss processes that do not declare i.i.d. intervals.

    The analytic (Proposition 1/3) paths factorise the estimator window
    from the next interval, which holds only for i.i.d. processes.  The
    default is *rejection*: a process type that does not expose
    ``is_iid`` at all (e.g. a virtual :class:`~repro.lossprocess.base.
    LossProcess` subclass that never inherited the attribute) must not
    silently receive i.i.d. treatment.
    """
    if not getattr(process, "is_iid", False):
        raise ValueError(
            "method='analytic' factorises the estimator window from "
            "the next interval (Propositions 1/3) and is only valid "
            "for loss processes declaring i.i.d. intervals "
            f"(is_iid=True); {type(process).__name__} does not -- use "
            "method='montecarlo'"
        )


@dataclass
class SimConfig:
    """Declarative description of one evaluation point.

    Components may be given as config dicts, kind strings, or ready
    instances; the shifted-exponential default loss process can instead be
    described by ``loss_event_rate`` + ``coefficient_of_variation`` (the
    paper's sweep axes), and the default TFRC weight profile by
    ``history_length`` alone.  These point rules, the seed check and the
    resolvers below are the only copy:
    :class:`~repro.flowsim.FlowSimConfig` checks and resolves its point
    through a SimConfig.
    """

    formula: Any
    loss_process: Any = None
    loss_event_rate: Optional[float] = None
    coefficient_of_variation: Optional[float] = None
    profile: Any = None
    history_length: Optional[int] = None
    control: str = "basic"
    method: str = "montecarlo"
    num_events: int = 40_000
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        _check_run(self)
        if self.loss_process is None and self.loss_event_rate is None:
            raise ValueError(
                "specify a loss_process config or a loss_event_rate"
            )
        if self.loss_process is not None and self.loss_event_rate is not None:
            raise ValueError(
                "pass either loss_process or loss_event_rate, not both"
            )
        if (
            self.loss_process is not None
            and self.coefficient_of_variation is not None
        ):
            raise ValueError(
                "coefficient_of_variation parameterises the default "
                "shifted-exponential process and cannot accompany an "
                "explicit loss_process config"
            )
        if self.profile is not None and self.history_length is not None:
            raise ValueError(
                "pass either profile or history_length, not both"
            )

    # ------------------------------------------------------------------
    # Component resolution
    # ------------------------------------------------------------------
    def resolve_formula(self):
        return FORMULAS.from_config(self.formula)

    def resolve_loss_process(self):
        if self.loss_process is not None:
            return LOSS_PROCESSES.from_config(self.loss_process)
        cv = (
            1.0
            if self.coefficient_of_variation is None
            else float(self.coefficient_of_variation)
        )
        return ShiftedExponentialIntervals.from_loss_rate_and_cv(
            float(self.loss_event_rate), cv
        )

    def resolve_profile(self):
        if self.profile is not None:
            return WEIGHT_PROFILES.from_config(self.profile)
        length = 8 if self.history_length is None else self.history_length
        return TfrcWeightProfile(history_length=length)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        payload = asdict(self)
        payload["formula"] = _component_config(FORMULAS, self.formula)
        payload["loss_process"] = _component_config(
            LOSS_PROCESSES, self.loss_process
        )
        payload["profile"] = _component_config(WEIGHT_PROFILES, self.profile)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SimConfig":
        return cls(**dict(payload))


@dataclass(frozen=True)
class SimResult:
    """Outcome of one evaluation point, JSON-safe via :meth:`to_dict`.

    ``loss_event_rate`` is the nominal (model) rate; for Monte-Carlo runs
    ``empirical_loss_event_rate`` is the rate observed in the sampled
    sequence and is what ``normalized_throughput`` divides by.  Figure
    10's normalised covariance ``cov[theta_0, theta_hat_0] p^2`` is
    ``interval_estimate_covariance * empirical_loss_event_rate**2``.
    Analytic results have no per-event trace, so their covariance and
    estimator-cv fields are ``nan``.
    """

    control: str
    method: str
    formula: Any
    loss_process: Any
    history_length: int
    num_events: int
    seed: Optional[int]
    loss_event_rate: float
    coefficient_of_variation: Optional[float]
    throughput: float
    normalized_throughput: float
    empirical_loss_event_rate: float
    interval_estimate_covariance: float
    estimator_cv: float

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


def simulate(config: Union[SimConfig, Mapping[str, Any]]) -> SimResult:
    """Evaluate one point described by a :class:`SimConfig`.

    The point is a one-row grid of the evaluator :func:`simulate_batch`
    runs -- one formula, one window, one loss model -- sampled with the
    config's own ``seed`` rather than a per-point derived one.
    """
    if isinstance(config, Mapping):
        config = SimConfig.from_dict(config)
    with telemetry.span(
        "api.simulate",
        method=config.method,
        control=config.control,
        num_events=config.num_events,
    ):
        formula = config.resolve_formula()
        process = config.resolve_loss_process()
        window = _window(config.resolve_profile())
        point = {
            "process": process,
            "axes": {},
            "loss_event_rate": float(process.loss_event_rate),
            "coefficient_of_variation": config.coefficient_of_variation,
        }
        (result,) = _evaluate_grid(
            [formula],
            [point],
            [window],
            control=config.control,
            method=config.method,
            num_events=config.num_events,
            seed=config.seed,
            row_seed=lambda history_length, axes: config.seed,
            shared=False,
        )
        return result


# perfbench's traced pass wraps these two names as attributes of this
# module, and its tests install the wrappers, so they must exist; they
# are not API (not in __all__).  The benchmark change that moves
# perfbench onto telemetry spans (ROADMAP, measurement-stack item)
# deletes them.
def simulate_basic_control(**fields: Any) -> SimResult:
    """``simulate(SimConfig(control="basic", **fields))``."""
    return simulate(SimConfig(control="basic", **fields))


def simulate_comprehensive_control(**fields: Any) -> SimResult:
    """``simulate(SimConfig(control="comprehensive", **fields))``."""
    return simulate(SimConfig(control="comprehensive", **fields))


# ----------------------------------------------------------------------
# Batch mode
# ----------------------------------------------------------------------
@dataclass
class BatchConfig:
    """A whole grid of evaluation points for :func:`simulate_batch`.

    Two grid forms are supported:

    * ``loss_event_rates`` x ``coefficients_of_variation`` -- the
      shifted-exponential family of the paper's numerical experiments
      (Figures 3 and 4), eligible for the ``share_noise`` fast path;
    * ``loss_processes`` -- an explicit list of loss-process configs
      (Markov, Gilbert, traces, ...), sampled per point.

    Either way the grid is crossed with ``formulas`` and
    ``history_lengths``, and the sampled interval blocks are reused
    across all formula variants.  ``method`` selects the evaluation per
    point: ``"montecarlo"`` runs the control over sampled sequences,
    ``"analytic"`` evaluates the Proposition 1/3 integrals (i.i.d. loss
    processes only, matching the scalar facade's guard).
    """

    formulas: List[Any] = field(default_factory=list)
    history_lengths: List[int] = field(default_factory=lambda: [8])
    loss_event_rates: Optional[List[float]] = None
    coefficients_of_variation: Optional[List[float]] = None
    loss_processes: Optional[List[Any]] = None
    profile: Any = "tfrc"
    control: str = "basic"
    method: str = "montecarlo"
    num_events: int = 20_000
    seed: Optional[int] = None
    share_noise: bool = True
    #: Axis names entering per-point seed derivation.  ``None`` (the
    #: default) keeps the positional rule -- every *multi-valued* batch
    #: axis derives -- while an explicit list of distinct
    #: :data:`SEED_AXES` names pins the derivation to exactly those
    #: axes, the way a campaign spec's ``grid`` keys do even when
    #: single-valued.
    seed_axes: Optional[List[str]] = None

    def __post_init__(self) -> None:
        if not self.formulas:
            raise ValueError("batch needs at least one formula")
        if not self.history_lengths:
            raise ValueError("batch needs at least one history length")
        # SimConfig's rules: the batch must not accept grids its scalar
        # equivalent would fail point for point.
        _check_run(self)
        rate_form = (
            self.loss_event_rates is not None
            and self.coefficients_of_variation is not None
        )
        process_form = self.loss_processes is not None
        if rate_form == process_form:
            raise ValueError(
                "specify either loss_event_rates + coefficients_of_variation "
                "or loss_processes"
            )
        for values, noun in (
            (self.loss_event_rates, "loss event rate"),
            (self.coefficients_of_variation, "coefficient of variation"),
            (self.loss_processes, "loss process"),
        ):
            if values is not None and len(values) == 0:
                raise ValueError(f"batch needs at least one {noun}")
        if self.seed_axes is not None and not (
            isinstance(self.seed_axes, list)
            and all(name in SEED_AXES for name in self.seed_axes)
            and len(set(self.seed_axes)) == len(self.seed_axes)
        ):
            raise ValueError(
                "seed_axes must be None or a list of distinct names from "
                f"{list(SEED_AXES)}, got {self.seed_axes!r}"
            )

    # ------------------------------------------------------------------
    def point_seed(self, **axes: Any) -> Optional[int]:
        """The per-point seed the batch derives for the given axis values.

        Mirrors the grid-expansion derivation of
        :func:`repro.lossprocess.derive_point_seed` with the same axis
        placement an equivalent :class:`ExperimentSpec` would use.
        With ``seed_axes=None`` only *multi-valued* batch axes enter the
        derivation (a single-valued axis corresponds to a ``base``
        parameter of the spec, which is excluded); an explicit
        ``seed_axes`` list overrides that rule, so a spec whose *grid*
        names a single-valued axis still derives from it.  Either way,
        ``share_noise=False`` batches reproduce the matching campaign
        point for point, to numerical precision.
        """
        filtered = {
            name: value
            for name, value in axes.items()
            if self._axis_in_seed(name)
        }
        return derive_point_seed(self.seed, **filtered)

    def _axis_in_seed(self, name: str) -> bool:
        if self.seed_axes is not None:
            return name in self.seed_axes
        return self._axis_is_gridded(name)

    def _axis_is_gridded(self, name: str) -> bool:
        field_name = _SEED_AXIS_FIELDS.get(name)
        values = None if field_name is None else getattr(self, field_name)
        return values is not None and len(values) > 1

    @property
    def uses_shared_noise(self) -> bool:
        """The effective sampling mode: the shared-block fast path only
        applies to the shifted-exponential (p, cv) grid form."""
        return self.share_noise and self.loss_processes is None

    def profile_for(self, history_length: int):
        """Resolve the weight profile for one window length of the grid.

        ``profile`` is any :data:`~repro.api.WEIGHT_PROFILES` reference;
        the parametric kinds (``tfrc``, ``uniform``) take their window
        length from the batch's ``history_lengths`` axis, while a fixed
        profile (e.g. ``custom``) must match it.  Either way the axis
        value must be an integer (:func:`~repro.core.estimator.
        check_history_length`).
        """
        check_history_length(history_length)
        config = self.profile
        if isinstance(config, str):
            config = {"kind": config}
        if isinstance(config, Mapping):
            config = dict(config)
            if config.get("kind") in ("tfrc", "uniform"):
                config.setdefault("history_length", history_length)
        profile = WEIGHT_PROFILES.from_config(config)
        if profile.history_length != history_length:
            raise ValueError(
                f"profile of length {profile.history_length} does not "
                f"match grid history_length {history_length}"
            )
        return profile

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        payload = asdict(self)
        payload["formulas"] = [
            _component_config(FORMULAS, formula) for formula in self.formulas
        ]
        payload["profile"] = _component_config(WEIGHT_PROFILES, self.profile)
        if self.loss_processes is not None:
            payload["loss_processes"] = [
                _component_config(LOSS_PROCESSES, process)
                for process in self.loss_processes
            ]
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "BatchConfig":
        return cls(**dict(payload))


@dataclass
class BatchResult:
    """All point results of one batch, with a small query helper."""

    config: BatchConfig
    results: List[SimResult] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.results)

    def select(self, **criteria: Any) -> List[SimResult]:
        """Filter results by SimResult field values.

        ``formula`` matches the formula config's ``kind``; any other key
        is compared against the result attribute of the same name.
        """
        matches = []
        for result in self.results:
            keep = True
            for key, wanted in criteria.items():
                if key == "formula":
                    actual = (
                        result.formula.get("kind")
                        if isinstance(result.formula, Mapping)
                        else result.formula
                    )
                else:
                    actual = getattr(result, key)
                if isinstance(actual, float) and isinstance(wanted, (int, float)):
                    keep = keep and bool(np.isclose(actual, wanted))
                else:
                    keep = keep and actual == wanted
            if keep:
                matches.append(result)
        return matches

    def one(self, **criteria: Any) -> SimResult:
        """Like :meth:`select` but asserts exactly one match."""
        matches = self.select(**criteria)
        if len(matches) != 1:
            raise KeyError(
                f"expected exactly one result for {criteria}, found "
                f"{len(matches)}"
            )
        return matches[0]


def _batch_points(
    config: BatchConfig,
) -> List[Dict[str, Any]]:
    """Expand the loss-model axis of the grid (formulas/L crossed later).

    Each point records the sampling axes used for seed derivation plus the
    affine (shift, scale) pair when the shifted-exponential fast path
    applies.
    """
    points: List[Dict[str, Any]] = []
    if config.loss_processes is not None:
        for process_config in config.loss_processes:
            process = LOSS_PROCESSES.from_config(process_config)
            # Seed-axis value: the config exactly as given, so that the
            # derived seeds match a campaign whose grid lists the same
            # config dicts (instances fall back to their canonical
            # config).
            axis_value = (
                process_config
                if isinstance(process_config, (str, Mapping))
                else _component_config(LOSS_PROCESSES, process_config)
            )
            points.append(
                {
                    "process": process,
                    "axes": {"loss_process": axis_value},
                    "loss_event_rate": float(process.loss_event_rate),
                    "coefficient_of_variation": None,
                }
            )
        return points
    for rate in config.loss_event_rates:
        for cv in config.coefficients_of_variation:
            process = ShiftedExponentialIntervals.from_loss_rate_and_cv(
                float(rate), float(cv)
            )
            points.append(
                {
                    "process": process,
                    "axes": {
                        "loss_event_rate": float(rate),
                        "coefficient_of_variation": float(cv),
                    },
                    "loss_event_rate": float(rate),
                    "coefficient_of_variation": float(cv),
                    "shift": process.shift,
                    "scale": 1.0 / process.rate,
                }
            )
    return points


def simulate_batch(
    config: Union[BatchConfig, Mapping[str, Any]]
) -> BatchResult:
    """Evaluate a whole grid in shared numpy passes.

    The sampled interval block (and its sliding-window estimator arrays)
    for each (loss model, L) pair is computed once and reused across all
    formula variants; with ``share_noise=True`` a single base block is
    additionally shared across every (p, cv) point.  With
    ``method="analytic"`` the grid goes through the vectorised
    Proposition 1/3 kernels instead of the control simulation.
    """
    if isinstance(config, Mapping):
        config = BatchConfig.from_dict(config)
    formulas = [FORMULAS.from_config(formula) for formula in config.formulas]
    points = _batch_points(config)
    shared = config.uses_shared_noise

    batch = BatchResult(config=config)
    with telemetry.span(
        "api.simulate_batch",
        method=config.method,
        control=config.control,
        grid_points=len(points),
        formulas=len(formulas),
        history_lengths=len(config.history_lengths),
        num_events=config.num_events,
        shared_noise=shared,
    ) as batch_span:
        windows = [
            _window(config.profile_for(length))
            for length in config.history_lengths
        ]
        batch.results = _evaluate_grid(
            formulas,
            points,
            windows,
            control=config.control,
            method=config.method,
            num_events=config.num_events,
            seed=config.seed,
            row_seed=lambda history_length, axes: config.point_seed(
                history_length=history_length, **axes
            ),
            shared=shared,
        )
        batch_span.set("items", len(batch.results))
        telemetry.incr("api.batch.calls")
        telemetry.incr("api.batch.rows", len(batch.results))
    return batch


# ----------------------------------------------------------------------
# The grid evaluator behind both entry points
# ----------------------------------------------------------------------
class _Window(NamedTuple):
    """One estimator window of a grid, in the forms the kernels take."""

    history_length: int
    #: The profile's weight vector, as the control kernel takes it.
    weights: np.ndarray
    #: Its unit-sum copy, for the analytic estimate sums.
    normalized: np.ndarray


def _window(profile: Any) -> _Window:
    """The kernel inputs of one weight profile."""
    weights = profile.weights()
    normalized = np.asarray(list(weights), dtype=float)
    normalized /= normalized.sum()
    return _Window(int(weights.size), weights, normalized)


def _evaluate_grid(
    formulas: Sequence[Any],
    points: Sequence[Dict[str, Any]],
    windows: Sequence[_Window],
    control: str,
    method: str,
    num_events: int,
    seed: Optional[int],
    row_seed: Callable[[int, Dict[str, Any]], Optional[int]],
    shared: bool,
) -> List[SimResult]:
    """Evaluate every (window, formula, point) row of a grid.

    Rows come out grouped by window, then formula, with the point index
    innermost.  With ``shared`` one common unit-exponential block drawn
    from ``seed`` is rescaled to every (p, cv) point; otherwise the
    point ``i`` of window length ``L`` is sampled from
    ``make_rng(row_seed(L, points[i]["axes"]))``.
    """
    comprehensive = control == "comprehensive"
    if method == "analytic":
        for point in points:
            require_iid(point["process"])
        kernel_rows = _analytic_rows
    else:
        kernel_rows = _control_rows
    formula_configs = [_component_config(FORMULAS, formula) for formula in formulas]
    process_configs = [
        _component_config(LOSS_PROCESSES, point["process"]) for point in points
    ]
    results: List[SimResult] = []
    for window, seeds, index, stats in kernel_rows(
        formulas, points, windows, comprehensive, num_events, seed, row_seed,
        shared,
    ):
        for row, point in enumerate(points):
            results.append(
                SimResult(
                    control=control,
                    method=method,
                    formula=formula_configs[index],
                    loss_process=process_configs[row],
                    history_length=window.history_length,
                    num_events=num_events,
                    seed=seeds[row],
                    loss_event_rate=point["loss_event_rate"],
                    coefficient_of_variation=point["coefficient_of_variation"],
                    **{name: float(column[row]) for name, column in stats.items()},
                )
            )
    return results


def _affine_maps(points: Sequence[Dict[str, Any]]) -> Tuple[np.ndarray, np.ndarray]:
    """The (shift, scale) columns of the shifted-exponential grid form."""
    shifts = np.asarray([point["shift"] for point in points], dtype=float)
    scales = np.asarray([point["scale"] for point in points], dtype=float)
    return shifts, scales


def _control_rows(
    formulas, points, windows, comprehensive, num_events, seed, row_seed, shared
):
    """Yield ``(window, seeds, formula index, stats)`` from the
    vectorised control kernel; ``stats`` maps each statistic's
    ``SimResult`` field name to its per-row array.

    Shared noise is common random numbers: a shifted exponential is an
    affine map of a unit exponential, and a unit-sum moving average
    commutes with affine maps, so one base block's kept/estimate/candidate
    arrays are computed per window length and rescaled per (p, cv) point.
    """
    longest = max(window.history_length for window in windows)
    for window in windows:
        if shared:
            seeds = [seed] * len(points)
            # One draw, long enough for the largest window; every window
            # length uses the slice that puts its warm-up just before the
            # shared kept block.
            base = make_rng(seed).exponential(1.0, size=num_events + longest)
            shifts, scales = _affine_maps(points)
            kept, estimates, candidates = (
                shifts[:, None] + scales[:, None] * array[None, :]
                for array in sliding_estimates(
                    base[longest - window.history_length:], window.weights
                )
            )
        else:
            seeds = [row_seed(window.history_length, point["axes"]) for point in points]
            matrix = np.vstack(
                [
                    point["process"].sample_intervals(
                        num_events + window.history_length, make_rng(point_seed)
                    )
                    for point, point_seed in zip(points, seeds)
                ]
            )
            kept, estimates, candidates = sliding_estimates(matrix, window.weights)
        for index, formula in enumerate(formulas):
            _, durations = evaluate_control_arrays(
                formula,
                kept,
                estimates,
                candidates,
                float(window.weights[0]),
                comprehensive=comprehensive,
            )
            stats = summarize_rows(formula, kept, estimates, durations)
            stats["empirical_loss_event_rate"] = stats.pop("loss_event_rate")
            yield window, seeds, index, stats


def _analytic_rows(
    formulas, points, windows, comprehensive, num_events, seed, row_seed, shared
):
    """Yield ``(window, seeds, formula index, stats)`` from the
    Proposition 1/3 kernels; ``stats`` as for :func:`_control_rows`.

    Per point, the integrals run over the point's own seeded draws.
    Under shared noise one base block of unit-exponential windows is
    rescaled per point, and the basic control additionally goes through
    the stratified factorised fast path -- see
    :mod:`repro.montecarlo.vectorized_analytic`.  Analytic rows have no
    per-event trace, so their empirical fields are ``nan``.
    """
    nominal_rates = np.asarray(
        [point["process"].loss_event_rate for point in points], dtype=float
    )
    missing = np.full(len(points), np.nan)
    if shared:
        # One base block of unit-exponential windows for the whole grid
        # (standard_exponential *is* exponential(scale=1), minus a scale
        # pass), and one stacked matmul for every window length's base
        # estimator sample: column j is w_{L_j} zero-padded to the
        # longest window.
        rng = make_rng(seed)
        longest = max(window.history_length for window in windows)
        base_windows = rng.standard_exponential(size=(num_events, longest))
        base_intervals = (
            rng.standard_exponential(size=num_events) if comprehensive else None
        )
        stacked_weights = np.zeros((longest, len(windows)))
        for column, window in enumerate(windows):
            stacked_weights[: window.history_length, column] = window.normalized
        # (lengths, num_events), C-order: each window length's base
        # estimator sample is a contiguous row for the sort below.
        base_estimate_rows = np.matmul(stacked_weights.T, base_windows.T)
        shifts, scales = _affine_maps(points)

    for column, window in enumerate(windows):
        weights = window.normalized
        if shared:
            seeds = [seed] * len(points)
            base_estimates = base_estimate_rows[column]
            if comprehensive:
                base_next = np.concatenate(
                    [base_intervals[:, None],
                     base_windows[:, : window.history_length - 1]],
                    axis=1,
                ) @ weights
                intervals, estimates, next_estimates = (
                    shifts[:, None] + scales[:, None] * array[None, :]
                    for array in (base_intervals, base_estimates, base_next)
                )
            else:
                representatives, probabilities = stratified_representatives(
                    base_estimates
                )
        else:
            seeds = [row_seed(window.history_length, point["axes"]) for point in points]
            interval_rows, estimate_rows, next_rows = [], [], []
            for point, point_seed in zip(points, seeds):
                # One generator per point: the window draws first, then
                # the next intervals.
                rng = make_rng(point_seed)
                draws = point["process"].sample_intervals(
                    num_events * window.history_length, rng
                ).reshape(num_events, window.history_length)
                theta = point["process"].sample_intervals(num_events, rng)
                interval_rows.append(theta)
                if comprehensive:
                    now, nxt = analytic_window_estimates(
                        draws, theta, weights
                    )
                    next_rows.append(nxt)
                else:
                    now = draws @ weights
                estimate_rows.append(now)
                # L times the size of a row: free it before the next
                # point's draws and the stacked copies below.
                del draws
            intervals = np.vstack(interval_rows)
            estimates = np.vstack(estimate_rows)
            next_estimates = np.vstack(next_rows) if comprehensive else None

        for index, formula in enumerate(formulas):
            if comprehensive:
                throughputs = comprehensive_throughput_rows(
                    formula, intervals, estimates, next_estimates,
                    float(weights[0]),
                )
            elif shared:
                throughputs = affine_basic_throughput_rows(
                    formula, shifts, scales, representatives, probabilities
                )
            else:
                throughputs = basic_throughput_rows(
                    formula, intervals, estimates
                )
            yield window, seeds, index, {
                "throughput": throughputs,
                "normalized_throughput": throughputs / np.asarray(
                    formula.rate(nominal_rates), dtype=float
                ),
                "empirical_loss_event_rate": missing,
                "interval_estimate_covariance": missing,
                "estimator_cv": missing,
            }
