#!/usr/bin/env python3
"""TCP-friendliness breakdown of a packet-level dumbbell scenario.

Runs the ns-2-analogue scenario (equal numbers of TFRC and TCP flows over a
RED bottleneck) in the built-in discrete-event simulator and breaks the
TCP-friendliness question into the paper's four sub-conditions for each
TFRC/TCP pair:

1. conservativeness     x_bar / f(p, r)      (<= 1 supports friendliness)
2. loss-rate ordering   p' / p               (<= 1 supports friendliness)
3. RTT ordering         r' / r               (<= 1 supports friendliness)
4. TCP obedience        x_bar' / f(p', r')   (>= 1 supports friendliness)

and prints the direct throughput ratio alongside, illustrating the paper's
point that the ratio alone hides *why* a deviation occurs.

Run with::

    python examples/tcp_friendliness_breakdown.py [--connections 2] [--duration 120]
"""

import argparse

from repro.analysis import pair_breakdowns, throughput_ratio
from repro.api import Ns2Scenario
from repro.simulator import run_dumbbell


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--connections", type=int, default=2,
                        help="number of TFRC flows (and of TCP flows)")
    parser.add_argument("--duration", type=float, default=120.0,
                        help="simulated seconds")
    parser.add_argument("--seed", type=int, default=7)
    arguments = parser.parse_args()

    config = Ns2Scenario(
        num_connections=arguments.connections,
        duration=arguments.duration,
    ).build(seed=arguments.seed)
    print(f"Running dumbbell: {config.num_tfrc} TFRC + {config.num_tcp} TCP flows, "
          f"{config.capacity_mbps} Mb/s RED bottleneck, RTT {config.rtt_seconds*1e3:.0f} ms, "
          f"{config.duration:.0f} s simulated ...")
    result = run_dumbbell(config)

    print()
    print(f"Scenario throughput ratio x_bar(TFRC)/x_bar'(TCP): "
          f"{throughput_ratio(result):.3f}")
    print()
    header = ("pair", "x/f(p,r)", "p'/p", "r'/r", "x'/f(p',r')", "x/x'", "friendly?")
    print("".join(str(h).rjust(12) for h in header))
    for index, pair in enumerate(pair_breakdowns(result)):
        b = pair.breakdown
        print("".join([
            f"#{index}".rjust(12),
            f"{b.conservativeness_ratio:12.3f}",
            f"{b.loss_rate_ratio:12.3f}",
            f"{b.rtt_ratio:12.3f}",
            f"{b.tcp_obedience_ratio:12.3f}",
            f"{b.throughput_ratio:12.3f}",
            ("yes" if b.tcp_friendly else "no").rjust(12),
        ]))

    print()
    print("Reading the table: when the throughput ratio exceeds one, look at "
          "which sub-condition failed.  With few competing flows the usual "
          "culprits are p'/p > 1 (TCP sees more loss events than TFRC -- the "
          "Claim 4 effect) and x'/f(p',r') < 1 (TCP under-performs its own "
          "formula), not a lack of conservativeness of TFRC.")


if __name__ == "__main__":
    main()
