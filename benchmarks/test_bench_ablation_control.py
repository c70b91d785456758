"""Ablation: basic versus comprehensive control.

The paper analyses the basic control exactly and poses the comprehensive
control's behaviour as claims validated by experiment, noting that the
comprehensive control is slightly less conservative (it adds a send-rate
increase during long loss-event intervals; Proposition 2 bounds it from
below by the basic control).  This ablation quantifies the gap across
loss-event rates and window lengths.
"""

from repro import api
from repro.core import PftkSimplifiedFormula, SqrtFormula
from repro.lossprocess import ShiftedExponentialIntervals

from conftest import print_table

LOSS_RATES = (0.05, 0.2, 0.4)
WINDOWS = (2, 8)
NUM_EVENTS = 30_000


def generate_ablation():
    rows = []
    for name, formula in (("SQRT", SqrtFormula(rtt=1.0)),
                          ("PFTK-simplified", PftkSimplifiedFormula(rtt=1.0))):
        for window in WINDOWS:
            for loss_rate in LOSS_RATES:
                process = ShiftedExponentialIntervals.from_loss_rate_and_cv(
                    loss_rate, 0.999
                )
                basic, comprehensive = (
                    api.simulate(api.SimConfig(
                        formula=formula, loss_process=process, control=control,
                        num_events=NUM_EVENTS, history_length=window,
                        seed=2400 + window,
                    ))
                    for control in ("basic", "comprehensive")
                )
                rows.append(
                    [name, window, loss_rate,
                     basic.normalized_throughput,
                     comprehensive.normalized_throughput,
                     comprehensive.normalized_throughput
                     - basic.normalized_throughput]
                )
    return rows


def test_ablation_basic_vs_comprehensive(run_once):
    rows = run_once(generate_ablation)
    print_table(
        "Ablation: basic vs comprehensive control (normalized throughput)",
        ["formula", "L", "p", "basic", "comprehensive", "gap"],
        rows,
    )
    # Proposition 2: the comprehensive control is never below the basic one
    # (up to Monte-Carlo noise on identical seeds it is exactly >=).
    assert all(row[5] >= -1e-6 for row in rows)
    # The qualitative picture of Figure 3 vs its comprehensive counterpart:
    # the comprehensive control is visibly less conservative for PFTK.
    pftk_rows = [row for row in rows if row[0] == "PFTK-simplified"]
    assert max(row[5] for row in pftk_rows) > 0.02
    # For PFTK under heavy loss the comprehensive control still does not
    # recover the full formula rate (the drop survives, as in the paper).
    heavy_pftk = [row for row in pftk_rows if row[2] >= 0.4 and row[1] <= 2]
    assert all(row[4] < 0.9 for row in heavy_pftk)
