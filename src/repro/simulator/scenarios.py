"""The dumbbell: the one topology of the paper's packet-level experiments.

A set of TFRC, TCP and probe flows shares a single bottleneck; a
:class:`DumbbellConfig` fixes the queue discipline, capacity, delays and
flow counts, and :func:`run_dumbbell` returns per-flow
:class:`~repro.simulator.flowstats.FlowStats` plus scenario-level
metadata, from which the analysis layer computes the TCP-friendliness
breakdown.

The paper's three setups are the scenario families of
:mod:`repro.api.scenarios`, each of which builds its
:class:`DumbbellConfig`: the ns-2 experiments (Section V-A.2, RED), the
lab experiments (Section V-A.3, DropTail or RED) and the Internet
experiments (Section V-A.4), whose paths Table I parameterises
(:data:`INTERNET_PATHS`).

The families' default capacities and durations are scaled down from the
paper's so that a scenario runs in seconds of wall-clock time in pure
Python; the scaling preserves the ratio of buffer to bandwidth-delay
product and the per-flow share of the bottleneck, which are what the
claims depend on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..core.formulas import LossThroughputFormula, PftkStandardFormula
from .engine import Simulator
from .flowstats import FlowStats
from .link import BottleneckLink
from .packets import DEFAULT_PACKET_SIZE
from .queues import DropTailQueue, QueueDiscipline, RedQueue
from .sources import CbrSource, PoissonSource
from .tcp import TcpSender
from .tfrc import TfrcSender

__all__ = [
    "DumbbellConfig",
    "DumbbellResult",
    "run_dumbbell",
    "INTERNET_PATHS",
]


@dataclass(frozen=True)
class PathProfile:
    """Parameters of one Internet path from Table I of the paper."""

    name: str
    access_rate_mbps: float
    hops: int
    rtt_seconds: float


#: Table I of the paper: receiver access rate, hop count and round-trip time.
INTERNET_PATHS: Dict[str, PathProfile] = {
    "INRIA": PathProfile("INRIA", 100.0, 13, 0.030),
    "UMASS": PathProfile("UMASS", 100.0, 15, 0.097),
    "KTH": PathProfile("KTH", 10.0, 20, 0.046),
    "UMELB": PathProfile("UMELB", 10.0, 24, 0.350),
}


@dataclass
class DumbbellConfig:
    """Configuration of a dumbbell experiment.

    Attributes
    ----------
    num_tfrc, num_tcp, num_poisson, num_cbr:
        Flow counts of each kind sharing the bottleneck.
    capacity_mbps:
        Bottleneck capacity in megabits per second.
    rtt_seconds:
        Fixed two-way propagation delay (excluding queueing).
    queue_type:
        ``"droptail"`` or ``"red"``.
    buffer_packets:
        Physical buffer size; if None it is derived from the
        bandwidth-delay product (2.5x, as in the paper's RED setup).
    red_min_fraction, red_max_fraction:
        RED thresholds as fractions of the bandwidth-delay product
        (paper: 1/4 and 5/4).
    history_length:
        TFRC loss-interval history length ``L``.
    tfrc_comprehensive:
        Whether TFRC's comprehensive control element is enabled.
    probe_rate_fraction:
        Send rate of each probe source as a fraction of the fair share.
    duration:
        Simulated seconds.
    warmup:
        Leading seconds excluded from throughput/loss accounting.
    packet_size:
        Packet size in bytes.
    seed:
        Simulation seed.
    formula:
        The loss-throughput formula used by the TFRC senders; defaults to
        PFTK-standard as in the paper's experiments.
    """

    num_tfrc: int = 1
    num_tcp: int = 1
    num_poisson: int = 0
    num_cbr: int = 0
    capacity_mbps: float = 1.5
    rtt_seconds: float = 0.05
    queue_type: str = "red"
    buffer_packets: Optional[int] = None
    red_min_fraction: float = 0.25
    red_max_fraction: float = 1.25
    history_length: int = 8
    tfrc_comprehensive: bool = True
    probe_rate_fraction: float = 0.25
    duration: float = 200.0
    warmup: float = 20.0
    packet_size: int = DEFAULT_PACKET_SIZE
    seed: Optional[int] = 1
    formula: Optional[LossThroughputFormula] = None

    def bandwidth_delay_packets(self) -> int:
        """Bandwidth-delay product in packets."""
        bits = self.capacity_mbps * 1e6 * self.rtt_seconds
        return max(int(bits / (8 * self.packet_size)), 4)

    def resolve_formula(self) -> LossThroughputFormula:
        """The TFRC senders' formula: ``formula``, else PFTK-standard at
        ``rtt_seconds`` -- also what the analysis layer normalises by."""
        if self.formula is not None:
            return self.formula
        return PftkStandardFormula(rtt=self.rtt_seconds)


@dataclass
class DumbbellResult:
    """Outcome of one dumbbell run."""

    config: DumbbellConfig
    tfrc_flows: List[FlowStats] = field(default_factory=list)
    tcp_flows: List[FlowStats] = field(default_factory=list)
    poisson_flows: List[FlowStats] = field(default_factory=list)
    cbr_flows: List[FlowStats] = field(default_factory=list)
    measured_duration: float = 0.0

    def all_flows(self) -> List[FlowStats]:
        """All flow statistics, TFRC first."""
        return self.tfrc_flows + self.tcp_flows + self.poisson_flows + self.cbr_flows

    def mean_loss_event_rate(self, flows: Sequence[FlowStats]) -> float:
        """Average loss-event rate over a set of flows (0 if empty)."""
        rates = [flow.loss_event_rate() for flow in flows if flow.loss_event_rate() > 0]
        if not rates:
            return 0.0
        return float(sum(rates) / len(rates))

    def mean_throughput(self, flows: Sequence[FlowStats]) -> float:
        """Average throughput (packets/s) over a set of flows (0 if empty)."""
        if not flows or self.measured_duration <= 0.0:
            return 0.0
        return float(
            sum(flow.throughput(self.measured_duration) for flow in flows) / len(flows)
        )


def _build_queue(config: DumbbellConfig) -> QueueDiscipline:
    bdp = config.bandwidth_delay_packets()
    buffer_packets = (
        config.buffer_packets
        if config.buffer_packets is not None
        else max(int(2.5 * bdp), 8)
    )
    queue_type = config.queue_type.strip().lower()
    if queue_type == "droptail":
        return DropTailQueue(buffer_packets)
    if queue_type == "red":
        min_threshold = max(config.red_min_fraction * bdp, 1.0)
        max_threshold = max(config.red_max_fraction * bdp, min_threshold + 1.0)
        return RedQueue(
            capacity_packets=buffer_packets,
            min_threshold=min_threshold,
            max_threshold=max_threshold,
            max_drop_probability=0.1,
            weight=0.002,
        )
    raise ValueError(f"unknown queue_type {config.queue_type!r}")


def run_dumbbell(config: DumbbellConfig) -> DumbbellResult:
    """Run one dumbbell scenario and return the per-flow measurements.

    Flow ``i`` starts at ``0.01 * i`` seconds, TFRC flows first, then TCP,
    Poisson and CBR.  Flow statistics (packets, loss events, RTT samples)
    are reset at the end of the warm-up period so that the returned
    counters reflect the steady-state portion only.
    """
    if config.duration <= config.warmup:
        raise ValueError("duration must exceed warmup")
    simulator = Simulator(seed=config.seed)
    capacity_bps = config.capacity_mbps * 1e6
    link = BottleneckLink(
        simulator,
        _build_queue(config),
        capacity_bps=capacity_bps,
        propagation_delay=config.rtt_seconds / 4.0,
    )
    counts = (config.num_tfrc, config.num_tcp, config.num_poisson, config.num_cbr)
    fair_share = capacity_bps / (8.0 * config.packet_size * max(sum(counts), 1))
    probe = {"rate": max(config.probe_rate_fraction * fair_share, 1.0)}
    tfrc = {
        "formula": config.resolve_formula(),
        "history_length": config.history_length,
        "comprehensive": config.tfrc_comprehensive,
        "max_rate": 4.0 * capacity_bps / (8.0 * config.packet_size),
    }
    kinds = ((TfrcSender, tfrc), (TcpSender, {}), (PoissonSource, probe), (CbrSource, probe))

    groups = []
    first = 0
    for count, (sender_type, options) in zip(counts, kinds):
        groups.append([
            sender_type(
                simulator,
                link,
                flow_id,
                access_delay=config.rtt_seconds / 2.0,
                packet_size=config.packet_size,
                start_time=0.01 * flow_id,
                **options,
            )
            for flow_id in range(first, first + count)
        ])
        first += count

    # Warm up, then reset the counters that feed the long-run estimates.
    simulator.run(until=config.warmup)
    for group in groups:
        for sender in group:
            sender.stats.reset()
    simulator.run(until=config.duration)

    tfrc_flows, tcp_flows, poisson_flows, cbr_flows = (
        [sender.stats for sender in group] for group in groups
    )
    return DumbbellResult(
        config=config,
        tfrc_flows=tfrc_flows,
        tcp_flows=tcp_flows,
        poisson_flows=poisson_flows,
        cbr_flows=cbr_flows,
        measured_duration=config.duration - config.warmup,
    )
