"""Driver of the flow-level simulator: config, simulation, result.

The flow-level engine replaces per-packet simulation with per-interval
throughput sampling: every ``interval`` simulated seconds one periodic
event fires and assigns each active flow a send rate drawn from the
registered loss-throughput formula against the configured loss process
-- no packets, no queues.  Two sampling modes:

``sampling="estimator"`` (default)
    Each flow's rate for the interval is ``f(1/theta_hat)`` where
    ``theta_hat`` is a fresh draw of the TFRC loss-event interval
    estimator: a weighted window of ``history_length`` intervals sampled
    from the loss process (the stationary estimator distribution of the
    paper's basic control).  All flows of a tick are evaluated in one
    numpy pass -- an ``(n, L)`` sample, one matmul against the weight
    profile, one vectorised formula evaluation -- which is what makes a
    10k-concurrent-flow, 100-second campaign point a matter of seconds.
``sampling="mean"``
    Every flow sends at the deterministic steady state ``f(p)``; useful
    as an exact baseline and for capacity planning sweeps.
``sampling="csa00"``
    Size-bounded flows send at the short-flow effective rate
    ``size / E[latency]`` of a registered latency model
    (``repro.api.LATENCY_MODELS``, CSA00 by default, built at the
    formula's RTT), so a finite transfer completes on the model-predicted
    expected latency (quantised to interval boundaries) instead of the
    long-flow steady state; unbounded flows keep ``f(p)``.

A flow whose lifetime fits inside one interval -- an on-period shorter
than the tick, or an arrival in the final instant -- emits no flowlet at
all; such flows are counted in ``flowlets_dropped`` (and the
``flowsim.flowlets_dropped`` telemetry counter) rather than silently
vanishing from the rate statistics.

The loop costs one event per tick, plus the events an event-driven
generator schedules (``on-off``: two per burst) -- *not* one per flow
per RTT -- so event count is independent of the population size.
``poisson-arrivals`` schedules none: it draws each window's arrivals in
one block, so a Poisson run processes exactly one event per tick.

Flows are managed as a table of numpy columns (ids, start times,
packets sent, size limits, end times, per-flow rate sums, flowlet
counts), one row per flow, rows in flow-id order.  The rows of flows
that have joined at a tick come first; flows opened since the last tick
wait in the rows after them.  Each tick applies the generators' actions
in a deterministic order: closes first (every row whose end time has
come, an open-ended flow's being ``inf``; a flow closed mid-interval
emits no flowlet for it), then size-limit completions, then the waiting
flows join (first sampled at the *next* tick boundary).  Flowlet
emission is therefore quantised to interval boundaries.  The records of
leaving flows are built from their columns read once each.

Everything :mod:`repro.api` is imported lazily inside functions: the
``GENERATORS`` registry imports :mod:`repro.flowsim.generators` at
definition time, so this module must not import ``repro.api`` at import
time.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from itertools import repeat
from math import isfinite
from typing import Any, Callable, Dict, List, Mapping, Optional, Union

import numpy as np

from .. import telemetry
from .core import FlowSimCore
from .flowlet import FlowRecord, Flowlet

__all__ = ["FlowSimConfig", "FlowSimResult", "FlowSimulation", "run_flowsim"]

_SAMPLINGS = ("estimator", "mean", "csa00")

#: Most ticks one run may take, ``duration / interval``.  A limit, like
#: the service's ``MAX_BATCH_ROWS``, not an option: a tiny interval
#: would otherwise construct and then never finish.
MAX_TICKS = 10**7


@dataclass
class FlowSimConfig:
    """Declarative description of one flow-level simulation.

    Its point -- ``formula``, the loss model, the estimator window and
    ``seed`` -- follows :class:`repro.api.SimConfig`'s rules and is
    resolved by SimConfig's resolvers: components may be config dicts,
    kind strings or ready instances, the shifted-exponential default loss
    process can be described by ``loss_event_rate`` +
    ``coefficient_of_variation``, the default TFRC weight profile by
    ``history_length`` alone, and the seed is ``None`` or a non-negative
    integer.  Construction also resolves every component once -- the
    point's, the generator and, under ``sampling="csa00"``, the latency
    model -- so an unknown kind or a bad parameter fails here rather
    than in the run.
    """

    formula: Any
    generator: Any = "fixed-population"
    loss_process: Any = None
    loss_event_rate: Optional[float] = None
    coefficient_of_variation: Optional[float] = None
    profile: Any = None
    history_length: Optional[int] = None
    duration: float = 100.0
    interval: float = 1.0
    sampling: str = "estimator"
    latency_model: Any = None
    record_flowlets: bool = False
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.sampling not in _SAMPLINGS:
            raise ValueError(f"sampling must be one of {_SAMPLINGS}")
        if self.latency_model is not None and self.sampling != "csa00":
            raise ValueError(
                "latency_model only applies to sampling='csa00' (got "
                f"sampling={self.sampling!r})"
            )
        for name in ("duration", "interval"):
            value = getattr(self, name)
            if not (isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.duration / self.interval > MAX_TICKS:
            raise ValueError(
                f"duration / interval is {self.duration / self.interval:.3g} "
                f"ticks, more than the limit of {MAX_TICKS}"
            )
        point = self._point()  # SimConfig's rules check the point
        # Resolve every component to check it (nothing is cached), so a
        # bad one fails here, with the message the run would raise.
        formula = point.resolve_formula()
        point.resolve_loss_process()
        point.resolve_profile()
        self.resolve_generator()
        if self.sampling == "csa00":
            self.resolve_latency_model(float(formula.rtt))

    # ------------------------------------------------------------------
    # Component resolution (lazy api imports: see module docstring)
    # ------------------------------------------------------------------
    def _point(self):
        """The run's point as a :class:`repro.api.SimConfig`, which checks
        it on construction."""
        from ..api.simulate import SimConfig

        return SimConfig(
            formula=self.formula,
            loss_process=self.loss_process,
            loss_event_rate=self.loss_event_rate,
            coefficient_of_variation=self.coefficient_of_variation,
            profile=self.profile,
            history_length=self.history_length,
            seed=self.seed,
        )

    def resolve_formula(self):
        return self._point().resolve_formula()

    def resolve_loss_process(self):
        return self._point().resolve_loss_process()

    def resolve_profile(self):
        return self._point().resolve_profile()

    def resolve_generator(self):
        from ..api.components import GENERATORS

        return GENERATORS.from_config(self.generator)

    def resolve_latency_model(self, rtt: float):
        """The short-flow latency model of ``sampling="csa00"``, at ``rtt``.

        The caller passes the resolved formula's RTT, so short flows and
        the steady-state rate they are compared with see one path.  A
        ``latency_model`` config (default CSA00; a dict or a kind string)
        is built with ``rtt`` put into it, whatever RTT it names, so
        derived defaults such as CSA00's ``rto = 2 * rtt`` re-derive
        unless the config pins them.  A ready instance is used as given.
        """
        from ..api.components import LATENCY_MODELS

        config = self.latency_model or "csa00"
        if isinstance(config, str):
            config = {"kind": config}
        if isinstance(config, Mapping):
            config = {**config, "rtt": float(rtt)}
        return LATENCY_MODELS.from_config(config)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        from ..api.components import (
            FORMULAS,
            GENERATORS,
            LATENCY_MODELS,
            LOSS_PROCESSES,
            WEIGHT_PROFILES,
        )
        from ..api.simulate import _component_config

        payload = asdict(self)
        payload["formula"] = _component_config(FORMULAS, self.formula)
        payload["generator"] = _component_config(GENERATORS, self.generator)
        payload["loss_process"] = _component_config(
            LOSS_PROCESSES, self.loss_process
        )
        payload["profile"] = _component_config(WEIGHT_PROFILES, self.profile)
        payload["latency_model"] = _component_config(
            LATENCY_MODELS, self.latency_model
        )
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FlowSimConfig":
        return cls(**dict(payload))


@dataclass
class FlowSimResult:
    """Outcome of one flow-level simulation.

    ``mean_flow_rate`` averages the per-flow mean assigned rates over
    every flow that emitted at least one flowlet; ``predicted_rate`` is
    the steady-state formula prediction ``f(p)`` at the loss process's
    nominal rate -- the pair the acceptance test compares.
    """

    records: List[FlowRecord] = field(default_factory=list)
    flowlets: List[Flowlet] = field(default_factory=list)
    duration: float = 0.0
    num_flows: int = 0
    num_completed: int = 0
    peak_concurrent: int = 0
    flowlets_emitted: int = 0
    flowlets_dropped: int = 0
    events_processed: int = 0
    total_packets: float = 0.0
    mean_flow_rate: float = float("nan")
    predicted_rate: float = float("nan")
    loss_event_rate: float = float("nan")

    @property
    def aggregate_throughput(self) -> float:
        """Total emitted packets per simulated second, all flows."""
        return self.total_packets / self.duration if self.duration else 0.0

    def summary(self) -> Dict[str, Any]:
        """The JSON-safe scalar summary the campaign runner records."""
        mean = float(self.mean_flow_rate)
        predicted = float(self.predicted_rate)
        return {
            "num_flows": int(self.num_flows),
            "num_completed": int(self.num_completed),
            "peak_concurrent": int(self.peak_concurrent),
            "flowlets_emitted": int(self.flowlets_emitted),
            "flowlets_dropped": int(self.flowlets_dropped),
            "events_processed": int(self.events_processed),
            "duration": float(self.duration),
            "total_packets": float(self.total_packets),
            "aggregate_throughput": float(self.aggregate_throughput),
            "mean_flow_rate": mean,
            "predicted_rate": predicted,
            "normalized_mean_rate": (
                mean / predicted if predicted > 0.0 else float("nan")
            ),
            "loss_event_rate": float(self.loss_event_rate),
        }


class FlowSimulation:
    """One flow-level run: the flow table, the tick, and the records.

    Generators open flows with :meth:`open_flow` (one, now) or
    :meth:`open_flows` (columns of a window's arrivals) and close them
    with :meth:`close_flow` or by an end time; every effect waits for
    the enclosing tick, so rows only leave or join the sampled part of
    the numpy flow table at interval boundaries.
    """

    def __init__(self, config: FlowSimConfig) -> None:
        from ..lossprocess.base import make_rng

        self.config = config
        self.core = FlowSimCore()
        self.rng = make_rng(config.seed)
        self.formula = config.resolve_formula()
        self.process = config.resolve_loss_process()
        self.generator = config.resolve_generator()
        self.latency_model = (
            config.resolve_latency_model(float(self.formula.rtt))
            if config.sampling == "csa00"
            else None
        )
        profile = config.resolve_profile()
        self.weights = np.asarray(profile.weights(), dtype=float)
        self.history_length = int(self.weights.size)

        self._next_flow_id = 0
        # The flow table: one column per field, one row per flow, rows in
        # flow-id order.  The first ``_joined`` rows are sampled at each
        # tick; the rest were opened since the last tick and join at the
        # next one.
        self._ids = np.zeros(0, dtype=np.int64)
        self._starts = np.zeros(0)
        self._sent = np.zeros(0)
        self._limits = np.zeros(0)
        self._ends = np.zeros(0)
        self._rate_sums = np.zeros(0)
        self._flowlet_counts = np.zeros(0, dtype=np.int64)
        self._joined = 0
        # Buffered generator actions, applied at tick boundaries.
        self._pending_opens: List[tuple] = []
        self._pending_closes: Dict[int, float] = {}
        self._windows: List[Callable[[float], None]] = []

        self.records: List[FlowRecord] = []
        self.flowlets: List[Flowlet] = []
        self.num_completed = 0
        self.peak_concurrent = 0
        self.flowlets_emitted = 0
        self.flowlets_dropped = 0
        self.total_packets = 0.0

    # ------------------------------------------------------------------
    # Generator interface
    # ------------------------------------------------------------------
    def open_flow(self, size: Optional[float] = None) -> int:
        """Open a flow now; it joins the table at the next tick boundary.

        ``size`` is an optional packet limit: the flow completes when it
        has emitted that volume.
        """
        if size is not None and not (isfinite(size) and size > 0.0):
            raise ValueError(f"flow size must be positive and finite, got {size}")
        flow_id = self._next_flow_id
        self._next_flow_id += 1
        self._pending_opens.append(
            (flow_id, self.core.now, np.inf if size is None else size)
        )
        return flow_id

    def open_flows(
        self,
        starts: np.ndarray,
        sizes: Optional[np.ndarray] = None,
        ends: Optional[np.ndarray] = None,
    ) -> None:
        """Open one flow per start time; they join at the next tick boundary.

        ``starts`` are arrival times in the current window, in order.
        ``sizes`` are optional packet limits, as :meth:`open_flow`'s;
        ``ends`` are optional end times: a flow whose end time comes by a
        tick closes before that tick samples, like a :meth:`close_flow`
        at that time.
        """
        count = len(starts)
        if sizes is not None and not (
            np.isfinite(sizes).all() and (sizes > 0.0).all()
        ):
            raise ValueError("flow sizes must be positive and finite")
        self._flush_opens()
        ids = np.arange(self._next_flow_id, self._next_flow_id + count)
        self._next_flow_id += count
        self._append(
            ids,
            starts,
            np.full(count, np.inf) if sizes is None else sizes,
            np.full(count, np.inf) if ends is None else ends,
        )

    def close_flow(self, flow_id: int) -> None:
        """Close a flow now; it emits no flowlet for the current interval."""
        self._pending_closes.setdefault(flow_id, self.core.now)

    def on_window(self, open_window: Callable[[float], None]) -> None:
        """Have ``open_window(until)`` open the flows arriving before ``until``.

        It is called before the first tick and after every tick's joins;
        ``until`` is the next tick time or, after the last tick, just past
        the run's end, since the run still takes events at its end time.
        """
        self._windows.append(open_window)

    # ------------------------------------------------------------------
    # Flow table management
    # ------------------------------------------------------------------
    def _append(
        self,
        ids: np.ndarray,
        starts: np.ndarray,
        limits: np.ndarray,
        ends: np.ndarray,
    ) -> None:
        """Add rows, after every row of the table, that have not joined."""
        count = len(ids)
        self._ids = np.concatenate([self._ids, ids])
        self._starts = np.concatenate([self._starts, starts])
        self._sent = np.concatenate([self._sent, np.zeros(count)])
        self._limits = np.concatenate([self._limits, limits])
        self._ends = np.concatenate([self._ends, ends])
        self._rate_sums = np.concatenate([self._rate_sums, np.zeros(count)])
        self._flowlet_counts = np.concatenate(
            [self._flowlet_counts, np.zeros(count, dtype=np.int64)]
        )

    def _flush_opens(self) -> None:
        """Move the flows opened one at a time into the table."""
        if self._pending_opens:
            ids, starts, limits = zip(*self._pending_opens)
            self._append(
                np.array(ids, np.int64), np.array(starts, float),
                np.array(limits, float), np.full(len(ids), np.inf),
            )
            self._pending_opens.clear()

    def _finalize(self, leaving: np.ndarray, completed: bool) -> None:
        """Emit records for the rows where ``leaving`` is True, compact.

        A record's end time is its row's end time.
        """
        ids = self._ids[leaving].tolist()
        counts = self._flowlet_counts[leaving].tolist()
        sums = self._rate_sums[leaving].tolist()
        limits = self._limits[leaving].tolist()
        # A flow that never reached a tick (short on-period, or arrival
        # in the final instant) contributes no flowlet and no rate
        # sample.  Count it rather than dropping it silently.
        self.flowlets_dropped += counts.count(0)
        self.records.extend(map(FlowRecord._make, zip(
            ids, self._starts[leaving].tolist(), self._ends[leaving].tolist(),
            self._sent[leaving].tolist(), counts,
            [total / count if count else 0.0
             for total, count in zip(sums, counts)],
            repeat(completed),
            [limit if isfinite(limit) else None for limit in limits],
        )))
        if completed:
            self.num_completed += len(ids)
        self._joined -= int(np.count_nonzero(leaving[:self._joined]))
        keep = ~leaving
        self._ids = self._ids[keep]
        self._starts = self._starts[keep]
        self._sent = self._sent[keep]
        self._limits = self._limits[keep]
        self._ends = self._ends[keep]
        self._rate_sums = self._rate_sums[keep]
        self._flowlet_counts = self._flowlet_counts[keep]

    def _apply_closes(self) -> None:
        """Close every row, joined or waiting, whose end time has come.

        The closes buffered by :meth:`close_flow` are written into the
        end column first.  A flow keeps its earliest end time, and a
        close of a flow that already left finds no row.
        """
        self._flush_opens()
        closes = self._pending_closes
        if closes and self._ids.size:
            ids = np.fromiter(closes, np.int64, len(closes))
            rows = self._ids.searchsorted(ids).clip(max=self._ids.size - 1)
            found = self._ids[rows] == ids
            rows = rows[found]
            times = np.fromiter(closes.values(), float, len(closes))[found]
            self._ends[rows] = np.minimum(self._ends[rows], times)
        closes.clear()
        closing = self._ends <= self.core.now
        if closing.any():
            self._finalize(closing, completed=True)

    def _join(self) -> None:
        """Let every waiting row join, then open the next window's flows."""
        self._joined = self._ids.size
        self.peak_concurrent = max(self.peak_concurrent, self._joined)
        until = self.core.now + self.config.interval
        if until > self.config.duration:
            until = np.nextafter(float(self.config.duration), np.inf)
        for open_window in self._windows:
            open_window(until)

    # ------------------------------------------------------------------
    # The tick
    # ------------------------------------------------------------------
    def _sample_rates(self, count: int) -> np.ndarray:
        if self.config.sampling == "mean":
            return np.full(
                count, float(self.formula.rate(self.process.loss_event_rate))
            )
        if self.config.sampling == "csa00":
            # Size-bounded flows send at the short-flow effective rate
            # size / E[latency], completing on the model-predicted
            # latency; unbounded flows keep the long-flow steady state.
            nominal = float(self.process.loss_event_rate)
            rates = np.full(count, float(self.formula.rate(nominal)))
            limits = self._limits[:count]
            bounded = np.isfinite(limits)
            if bounded.any():
                rates[bounded] = self.latency_model.transfer_rate(
                    limits[bounded], nominal
                )
            return rates
        draws = self.process.sample_intervals(
            count * self.history_length, self.rng
        ).reshape(count, self.history_length)
        estimates = draws @ self.weights
        return np.asarray(self.formula.rate_of_interval(estimates), dtype=float)

    def _tick(self) -> None:
        self._apply_closes()
        count = self._joined
        if count:
            rates = self._sample_rates(count)
            packets = rates * self.config.interval
            self._sent[:count] += packets
            self._rate_sums[:count] += rates
            self._flowlet_counts[:count] += 1
            self.flowlets_emitted += count
            self.total_packets += float(packets.sum())
            if self.config.record_flowlets:
                self.flowlets.extend(map(
                    Flowlet,
                    self._ids[:count].tolist(),
                    repeat(self.core.now - self.config.interval),
                    repeat(self.config.interval),
                    rates.tolist(),
                    packets.tolist(),
                ))
            done = self._sent >= self._limits
            if done.any():
                self._ends[done] = self.core.now
                self._finalize(done, completed=True)
        self._join()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> FlowSimResult:
        """Install the generator, run the ticks, finalise the records."""
        config = self.config
        self.generator.install(self)
        self._apply_closes()
        self._join()
        self.core.schedule_periodic(config.interval, self._tick)
        self.core.run(until=config.duration)
        # End of simulation: apply buffered and due closes, then cut off
        # every remaining flow (completed=False -- still active at the
        # end), joined or not.
        self._apply_closes()
        if self._ids.size:
            self._ends[:] = config.duration
            self._finalize(
                np.ones(self._ids.size, dtype=bool), completed=False
            )

        sampled = [record for record in self.records if record.num_flowlets]
        mean_flow_rate = (
            float(np.mean([record.mean_rate for record in sampled]))
            if sampled
            else float("nan")
        )
        nominal = float(self.process.loss_event_rate)
        return FlowSimResult(
            records=self.records,
            flowlets=self.flowlets,
            duration=float(config.duration),
            num_flows=self._next_flow_id,
            num_completed=self.num_completed,
            peak_concurrent=self.peak_concurrent,
            flowlets_emitted=self.flowlets_emitted,
            flowlets_dropped=self.flowlets_dropped,
            events_processed=self.core.events_processed,
            total_packets=self.total_packets,
            mean_flow_rate=mean_flow_rate,
            predicted_rate=float(self.formula.rate(nominal)),
            loss_event_rate=nominal,
        )


def run_flowsim(
    config: Optional[Union[FlowSimConfig, Mapping[str, Any]]] = None,
    **kwargs: Any,
) -> FlowSimResult:
    """Run one flow-level simulation from a config (or its dict form)."""
    if config is None:
        config = FlowSimConfig(**kwargs)
    elif isinstance(config, Mapping):
        config = FlowSimConfig.from_dict(config)
    simulation = FlowSimulation(config)
    with telemetry.span(
        "flowsim.run",
        sampling=config.sampling,
        duration=config.duration,
        interval=config.interval,
    ) as span:
        result = simulation.run()
        span.set("items", result.flowlets_emitted)
        telemetry.incr("flowsim.runs_total")
        telemetry.incr("flowsim.flows_started", result.num_flows)
        telemetry.incr("flowsim.flows_completed", result.num_completed)
        telemetry.incr("flowsim.flowlets", result.flowlets_emitted)
        telemetry.incr("flowsim.flowlets_dropped", result.flowlets_dropped)
    return result
