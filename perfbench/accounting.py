"""Per-layer accounting of a traced run: self time, shares, remainders.

A *phase* is one stretch of a workload (``churn``, ``pool``, ...).  Its
*base* is the operation time the phase spent, summed over its lanes:
the phase wall for in-process work, the sum of request latencies (or
busy connection time) for HTTP traffic.  Each layer's self time is
attributed to it; what no span covers is the phase's ``unattributed``
remainder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from .common import Report, ratio

#: Layers named by the per-layer metrics, in report order.
LAYERS = (
    "loadgen",
    "service.http",
    "service.core",
    "service.workers",
    "experiments.store",
    "experiments.runner",
    "experiments.registry",
    "api.simulate",
    "api.simulate_batch",
    "montecarlo.scalar",
    "montecarlo.vectorized",
    "montecarlo.vectorized_analytic",
    "core.shortflow",
    "simulator.engine",
    "flowsim.run",
    "flowsim.core",
    "flowsim.generators",
    "lossprocess",
    "core.formulas",
)


@dataclass
class Phase:
    name: str
    base_s: float
    self_s: Dict[str, float] = field(default_factory=dict)
    note: str = ""

    @property
    def attributed_s(self) -> float:
        return sum(self.self_s.values())

    @property
    def unattributed_share(self) -> float:
        return max(0.0, 1.0 - ratio(self.attributed_s, self.base_s))


def account(report: Report, phases: List[Phase]) -> None:
    """Write self-time shares and remainders for ``phases`` into ``report``."""
    total_base = sum(phase.base_s for phase in phases)
    totals: Dict[str, float] = {}
    for phase in phases:
        for layer, seconds in phase.self_s.items():
            totals[layer] = totals.get(layer, 0.0) + seconds
        report.note(
            f"phase {phase.name}: base {phase.base_s:.4f} s, "
            f"unattributed_share {phase.unattributed_share:.4f}"
            + (f" ({phase.note})" if phase.note else "")
        )
        for layer in LAYERS:
            if phase.self_s.get(layer):
                report.note(
                    f"  {layer:<32} self {1000.0 * phase.self_s[layer]:12.3f} ms"
                )
    for layer in LAYERS:
        report.put("layers", f"{layer}.self_share", ratio(totals.get(layer, 0.0), total_base), "ratio")
    attributed = sum(phase.attributed_s for phase in phases)
    report.put(
        "layers", "unattributed_share", max(0.0, 1.0 - ratio(attributed, total_base)), "ratio"
    )


def overhead(report: Report, untraced: Dict[str, float], traced: Dict[str, float]) -> None:
    """Tracing overhead: relative slow-down of the traced end-to-end numbers.

    Each metric contributes ``traced/untraced - 1``, inverted for rates
    (names ending ``_per_s`` or ``_rps``), and ``trace_overhead`` is
    their mean.
    """
    shares = []
    for name, base in untraced.items():
        value = traced.get(name, 0.0)
        if base <= 0 or value <= 0:
            continue
        rate = name.endswith(("_per_s", "_rps"))
        share = base / value - 1.0 if rate else value / base - 1.0
        shares.append(share)
        report.note(f"trace overhead on {name}: {100.0 * share:+.2f}% "
                    f"(untraced {base:.6g}, traced {value:.6g})")
    report.put("layers", "trace_overhead", sum(shares) / len(shares) if shares else 0.0, "ratio")
