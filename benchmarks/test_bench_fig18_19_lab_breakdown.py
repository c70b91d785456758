"""Figures 18-19: TCP-friendliness breakdown for the lab-analogue configurations.

Same four-panel breakdown as Figures 12-15 but for the lab setups
(DropTail-100 and RED bottleneck, TFRC comprehensive control disabled,
PFTK-standard, L = 8), over a wide range of loss-event rates obtained by
varying the number of competing connections.
"""

from repro.analysis import pair_breakdowns
from repro.api import LabScenario
from repro.simulator import run_dumbbell

from conftest import print_table

CONNECTIONS = (1, 2, 4, 8)
DURATION = 150.0


def generate_lab_breakdown():
    rows = []
    for queue_label, queue_type in (("DropTail 100", "droptail"), ("RED", "red")):
        for count in CONNECTIONS:
            config = LabScenario(
                count,
                queue_type=queue_type,
                buffer_packets=100,
                duration=DURATION,
            ).build(seed=1900 + count)
            result = run_dumbbell(config)
            for pair in pair_breakdowns(result):
                breakdown = pair.breakdown
                rows.append(
                    [
                        queue_label,
                        count,
                        pair.tfrc.loss_event_rate,
                        breakdown.conservativeness_ratio,
                        breakdown.loss_rate_ratio,
                        breakdown.rtt_ratio,
                        breakdown.tcp_obedience_ratio,
                    ]
                )
    return rows


def test_fig18_19_lab_breakdown(run_once):
    rows = run_once(generate_lab_breakdown)
    print_table(
        "Figures 18-19: breakdown, lab-analogue (basic TFRC, PFTK-standard, L=8)",
        ["queue", "conn", "p", "x/f(p,r)", "p'/p", "r'/r", "x'/f(p',r')"],
        rows,
    )
    assert len(rows) >= 8
    conservativeness = [row[3] for row in rows]
    loss_rates = [row[2] for row in rows]
    # The loss-event rate spans a non-trivial range as the load grows.
    assert max(loss_rates) > 2.0 * min(loss_rates)
    # Lab observation: conservativeness strengthens at larger loss-event
    # rates (x/f(p, r) smaller for heavier loss).
    heavy = [c for p, c in zip(loss_rates, conservativeness)
             if p >= sorted(loss_rates)[len(rows) // 2]]
    light = [c for p, c in zip(loss_rates, conservativeness)
             if p < sorted(loss_rates)[len(rows) // 2]]
    assert sum(heavy) / len(heavy) <= sum(light) / len(light) + 0.1
    # Ratios stay in a physically sensible band.
    assert all(0.05 < value < 2.5 for value in conservativeness)
    assert all(0.3 < row[5] < 3.0 for row in rows)
