"""Comparative analyses: loss-event rate ordering and friendliness breakdown."""

from .breakdown import (
    PairBreakdown,
    aggregate_breakdown,
    loss_rate_ratio,
    pair_breakdowns,
    throughput_ratio,
)
from .few_flows import (
    Claim4Prediction,
    aimd_loss_event_rate,
    aimd_loss_throughput_constant,
    claim4_prediction,
    equation_based_loss_event_rate,
    loss_event_rate_ratio,
    simulate_aimd_on_link,
    simulate_equation_based_on_link,
)
from .many_sources import (
    Claim3Result,
    CongestionModel,
    claim3_loss_event_rates,
    equation_based_rate_profile,
    poisson_source_rate_profile,
    responsive_source_rate_profile,
    sampled_loss_event_rate,
    simulate_congestion_sampling,
)

__all__ = [
    "CongestionModel",
    "sampled_loss_event_rate",
    "poisson_source_rate_profile",
    "responsive_source_rate_profile",
    "equation_based_rate_profile",
    "claim3_loss_event_rates",
    "Claim3Result",
    "simulate_congestion_sampling",
    "aimd_loss_throughput_constant",
    "aimd_loss_event_rate",
    "equation_based_loss_event_rate",
    "loss_event_rate_ratio",
    "Claim4Prediction",
    "claim4_prediction",
    "simulate_aimd_on_link",
    "simulate_equation_based_on_link",
    "PairBreakdown",
    "pair_breakdowns",
    "aggregate_breakdown",
    "loss_rate_ratio",
    "throughput_ratio",
]
