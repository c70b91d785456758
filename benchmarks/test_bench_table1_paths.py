"""Table I: the Internet receiver/path parameters used by the experiments.

Table I of the paper records, per receiver (INRIA, UMASS, KTH, UMELB), the
access rate, hop count and round-trip time of the path from EPFL.  Those
parameters seed the Internet-analogue scenario family; this benchmark
prints the table and verifies the scenarios built from it are consistent
(RTT of the simulated path matches the table entry).
"""

from repro.api import InternetScenario
from repro.simulator import INTERNET_PATHS, run_dumbbell

from conftest import print_table

DURATION = 60.0


def generate_table1():
    rows = []
    for name in sorted(INTERNET_PATHS):
        profile = INTERNET_PATHS[name]
        config = InternetScenario(name, 1, duration=DURATION).build(seed=2100)
        result = run_dumbbell(config)
        measured_rtts = [flow.mean_rtt() for flow in result.all_flows()
                         if flow.mean_rtt() > 0.0]
        mean_rtt = sum(measured_rtts) / len(measured_rtts) if measured_rtts else 0.0
        rows.append(
            [name, profile.access_rate_mbps, profile.hops,
             profile.rtt_seconds * 1e3, mean_rtt * 1e3]
        )
    return rows


def test_table1_path_parameters(run_once):
    rows = run_once(generate_table1)
    print_table(
        "Table I: path parameters and measured RTT of the analogue scenario",
        ["receiver", "access Mb/s", "hops", "table RTT (ms)", "measured RTT (ms)"],
        rows,
    )
    assert {row[0] for row in rows} == {"INRIA", "UMASS", "KTH", "UMELB"}
    for row in rows:
        table_rtt, measured_rtt = row[3], row[4]
        # The measured RTT is at least the propagation delay of the table
        # and not absurdly larger (queueing adds a bounded amount).
        assert measured_rtt >= table_rtt * 0.9
        assert measured_rtt <= table_rtt + 400.0
    # UMELB is the long-RTT outlier, as in the paper.
    rtts = {row[0]: row[3] for row in rows}
    assert rtts["UMELB"] == max(rtts.values())
