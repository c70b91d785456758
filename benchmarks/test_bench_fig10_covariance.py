"""Figure 10: the normalised covariance cov[theta_0, theta_hat_0] p^2 across scenarios.

The paper computes the normalised covariance of the loss-event interval and
its estimator for the TFRC flows of the lab experiments (DropTail 64,
DropTail 100, RED) and the Internet experiments (INRIA, UMASS, KTH, UMELB,
and a cable-modem receiver), and finds it mostly near zero (slightly
negative in a few cases) -- the empirical justification of condition (C1).
"""

import math

from repro.api import InternetScenario, LabScenario
from repro.measurement import normalized_covariance_from_flow
from repro.simulator import run_dumbbell

from conftest import print_table

DURATION = 150.0


def scenario_set():
    return {
        "DT 64": LabScenario(2, queue_type="droptail", buffer_packets=64,
                             duration=DURATION).build(seed=1001),
        "DT 100": LabScenario(2, queue_type="droptail", buffer_packets=100,
                              duration=DURATION).build(seed=1002),
        "RED": LabScenario(2, queue_type="red", buffer_packets=None,
                           duration=DURATION).build(seed=1003),
        "INRIA": InternetScenario("INRIA", 2, duration=DURATION).build(seed=1004),
        "UMASS": InternetScenario("UMASS", 2, duration=DURATION).build(seed=1005),
        "KTH": InternetScenario("KTH", 2, duration=DURATION).build(seed=1006),
        "UMELB": InternetScenario("UMELB", 2, duration=DURATION).build(seed=1007),
    }


def generate_figure10():
    rows = []
    for name, config in scenario_set().items():
        result = run_dumbbell(config)
        for flow in result.tfrc_flows:
            value = normalized_covariance_from_flow(flow, history_length=8)
            if not math.isnan(value):
                rows.append([name, len(flow.loss_event_intervals), value])
    return rows


def test_fig10_normalized_covariance(run_once):
    rows = run_once(generate_figure10)
    print_table(
        "Figure 10: cov[theta_0, theta_hat_0] p^2 per scenario (TFRC flows)",
        ["scenario", "loss events", "normalized covariance"],
        rows,
    )
    assert len(rows) >= 5
    values = [row[2] for row in rows]
    # The paper's range is roughly [-0.4, 0.8] with most values near zero.
    assert all(-0.8 < value < 0.8 for value in values)
    near_zero = sum(abs(value) < 0.25 for value in values)
    assert near_zero >= len(values) // 2
