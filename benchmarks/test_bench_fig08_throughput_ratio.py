"""Figure 8: ratio of TFRC and TCP throughputs versus the number of connections.

The paper plots x_bar(TFRC)/x_bar'(TCP) for equal numbers of TFRC and TCP
Sack flows over a RED bottleneck, for L in {2, 4, 8, 16}: the ratio varies
roughly between 0.6 and 1.4, demonstrating that TFRC can be non-TCP-friendly
in some configurations even though it is conservative.
"""

from repro.analysis import throughput_ratio
from repro.api import Ns2Scenario
from repro.simulator import run_dumbbell

from conftest import print_table

CONNECTIONS = (1, 2, 4, 8)
HISTORY_LENGTHS = (2, 8)
DURATION = 120.0


def generate_figure8():
    rows = []
    for history_length in HISTORY_LENGTHS:
        for count in CONNECTIONS:
            config = Ns2Scenario(
                num_connections=count,
                history_length=history_length,
                duration=DURATION,
            ).build(seed=700 + 10 * count + history_length)
            result = run_dumbbell(config)
            rows.append([history_length, count, throughput_ratio(result)])
    return rows


def test_fig08_throughput_ratio(run_once):
    rows = run_once(generate_figure8)
    print_table(
        "Figure 8: x_bar(TFRC) / x_bar'(TCP) vs number of connections",
        ["L", "connections", "throughput ratio"],
        rows,
    )
    ratios = [row[2] for row in rows]
    # Both flavours share the link meaningfully: the ratio stays within a
    # broad band around one (the paper observes roughly 0.6 -- 1.4).
    assert all(0.2 < ratio < 2.5 for ratio in ratios)
    # At least some configurations deviate visibly from perfect fairness,
    # which is the point of the figure.
    assert any(abs(ratio - 1.0) > 0.1 for ratio in ratios)
