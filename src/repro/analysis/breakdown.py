"""Empirical TCP-friendliness breakdown of simulated scenarios.

Figures 12-15 (Internet paths) and 18-19 (lab configurations) plot, per
experiment, the four sub-condition ratios against the loss-event rate of
the TFRC flow: ``x_bar / f(p, r)``, ``p' / p``, ``r' / r`` and
``x_bar' / f(p', r')``; Figures 11 and 16 plot the direct throughput
ratio ``x_bar / x_bar'``.  This module computes those quantities from a
:class:`~repro.simulator.scenarios.DumbbellResult`, pairing each TFRC flow
with a TCP flow (by index, as the paper pairs its probe connections).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..core.formulas import LossThroughputFormula
from ..core.friendliness import FlowObservation, FriendlinessBreakdown, breakdown
from ..measurement.collectors import flow_observation
from ..simulator.scenarios import DumbbellResult

__all__ = [
    "PairBreakdown",
    "pair_breakdowns",
    "aggregate_breakdown",
    "loss_rate_ratio",
    "throughput_ratio",
]


@dataclass(frozen=True)
class PairBreakdown:
    """Breakdown of one TFRC/TCP flow pair, with the observations kept."""

    tfrc: FlowObservation
    tcp: FlowObservation
    breakdown: FriendlinessBreakdown


def _formula_for(result: DumbbellResult,
                 formula: Optional[LossThroughputFormula]) -> LossThroughputFormula:
    return formula if formula is not None else result.config.resolve_formula()


def pair_breakdowns(
    result: DumbbellResult,
    formula: Optional[LossThroughputFormula] = None,
) -> List[PairBreakdown]:
    """Per-pair breakdowns: the i-th TFRC flow against the i-th TCP flow."""
    chosen_formula = _formula_for(result, formula)
    fallback_rtt = result.config.rtt_seconds
    pairs: List[PairBreakdown] = []
    for tfrc_flow, tcp_flow in zip(result.tfrc_flows, result.tcp_flows):
        tfrc_obs = flow_observation(
            tfrc_flow, result.measured_duration, fallback_rtt, label="tfrc"
        )
        tcp_obs = flow_observation(
            tcp_flow, result.measured_duration, fallback_rtt, label="tcp"
        )
        if tfrc_obs.throughput <= 0.0 or tcp_obs.throughput <= 0.0:
            continue
        pairs.append(
            PairBreakdown(
                tfrc=tfrc_obs,
                tcp=tcp_obs,
                breakdown=breakdown(tfrc_obs, tcp_obs, chosen_formula),
            )
        )
    return pairs


def aggregate_breakdown(
    result: DumbbellResult,
    formula: Optional[LossThroughputFormula] = None,
) -> FriendlinessBreakdown:
    """Breakdown computed from the *mean* TFRC and TCP observations.

    This is the scenario-level summary used when the per-pair variability
    is not of interest (e.g. the aggregate points of Figures 8 and 17).
    """
    chosen_formula = _formula_for(result, formula)
    fallback_rtt = result.config.rtt_seconds
    duration = result.measured_duration

    def mean_observation(flows, label: str) -> FlowObservation:
        observations = [
            flow_observation(flow, duration, fallback_rtt, label=label)
            for flow in flows
        ]
        if not observations:
            raise ValueError(f"no {label} flows in the scenario")
        return FlowObservation(
            throughput=float(np.mean([obs.throughput for obs in observations])),
            loss_event_rate=float(
                np.mean([obs.loss_event_rate for obs in observations])
            ),
            mean_rtt=float(np.mean([obs.mean_rtt for obs in observations])),
            label=label,
        )

    tfrc_obs = mean_observation(result.tfrc_flows, "tfrc")
    tcp_obs = mean_observation(result.tcp_flows, "tcp")
    return breakdown(tfrc_obs, tcp_obs, chosen_formula)


def loss_rate_ratio(result: DumbbellResult) -> float:
    """``p'(TCP) / p(TFRC)`` from the scenario's mean loss-event rates.

    This is the quantity plotted in Figure 17 (versus buffer size) and the
    second panel of the breakdown figures.
    """
    tfrc_rate = result.mean_loss_event_rate(result.tfrc_flows)
    tcp_rate = result.mean_loss_event_rate(result.tcp_flows)
    if tfrc_rate <= 0.0:
        raise ValueError("TFRC flows observed no loss events")
    return tcp_rate / tfrc_rate


def throughput_ratio(result: DumbbellResult) -> float:
    """``x_bar(TFRC) / x_bar'(TCP)`` from the scenario means (Figures 8, 11, 16)."""
    tfrc_throughput = result.mean_throughput(result.tfrc_flows)
    tcp_throughput = result.mean_throughput(result.tcp_flows)
    if tcp_throughput <= 0.0:
        raise ValueError("TCP flows carried no traffic")
    return tfrc_throughput / tcp_throughput
