"""Figure 11: is TFRC TCP-friendly on the Internet-analogue paths?

The paper plots the ratio of TFRC and TCP throughputs against the loss-event
rate for the four Internet paths (INRIA, KTH, UMASS, UMELB).  Observation:
for small loss-event rates (few competing senders) TFRC can be significantly
non-TCP-friendly (ratio well above one).
"""

from repro.analysis import pair_breakdowns
from repro.api import InternetScenario
from repro.simulator import INTERNET_PATHS, run_dumbbell

from conftest import print_table

CONNECTIONS = (1, 2, 4)
DURATION = 150.0


def generate_figure11():
    rows = []
    for path_index, path in enumerate(sorted(INTERNET_PATHS)):
        for count in CONNECTIONS:
            config = InternetScenario(path, count, duration=DURATION).build(
                seed=1100 + 10 * path_index + count
            )
            result = run_dumbbell(config)
            for pair in pair_breakdowns(result):
                rows.append(
                    [path, count, pair.tfrc.loss_event_rate,
                     pair.breakdown.throughput_ratio]
                )
    return rows


def test_fig11_internet_friendliness(run_once):
    rows = run_once(generate_figure11)
    print_table(
        "Figure 11: x_bar(TFRC)/x_bar'(TCP) vs p, per Internet-analogue path",
        ["path", "connections", "p (TFRC)", "throughput ratio"],
        rows,
    )
    assert len(rows) >= 8
    ratios = [row[3] for row in rows]
    assert all(ratio > 0.05 for ratio in ratios)
    # The paper's headline: some configurations are clearly non-TCP-friendly,
    # and the effect is strongest at small loss-event rates (few senders).
    assert any(ratio > 1.1 for ratio in ratios)
    small_p_rows = [row for row in rows if row[1] == min(CONNECTIONS)]
    assert any(row[3] > 1.0 for row in small_p_rows)
