"""Figure 3: normalized throughput of the basic control versus the loss-event rate.

The paper fixes cv[theta_0] = 1 - 1/1000, sweeps p, and plots x_bar/f(p)
for estimator window lengths L in {1, 2, 4, 8, 16}; once for SQRT (left)
and once for PFTK-simplified with q = 4r (right).  Expected shape: for
PFTK-simplified the normalized throughput drops sharply as p grows and the
drop is worse for small L; for SQRT it is essentially flat in p.
"""

from repro import api
from repro.core import PftkSimplifiedFormula, SqrtFormula
from repro.experiments import ExperimentRunner, ExperimentSpec
from repro.experiments.registry import FIGURE3_CV

from conftest import print_table

LOSS_RATES = (0.01, 0.05, 0.1, 0.2, 0.3, 0.4)
HISTORY_LENGTHS = (1, 2, 4, 8, 16)
NUM_EVENTS = 20_000


def generate_figure3():
    results = {}
    for name, formula in (
        ("SQRT", SqrtFormula(rtt=1.0)),
        ("PFTK-simplified", PftkSimplifiedFormula(rtt=1.0)),
    ):
        campaign = ExperimentRunner().run(
            ExperimentSpec(
                name=f"fig3-{name}",
                runner="montecarlo-basic",
                base={
                    "formula": api.FORMULAS.to_config(formula),
                    "coefficient_of_variation": FIGURE3_CV,
                    "num_events": NUM_EVENTS,
                },
                grid={
                    "history_length": list(HISTORY_LENGTHS),
                    "loss_event_rate": list(LOSS_RATES),
                },
                seed=17,
            )
        )
        campaign.raise_errors()
        table = {}
        for result in campaign.results:
            point = result.value
            table.setdefault(point["history_length"], {})[
                point["loss_event_rate"]
            ] = point["normalized_throughput"]
        results[name] = table
    return results


def test_fig03_normalized_throughput_vs_p(run_once):
    results = run_once(generate_figure3)
    for name, table in results.items():
        rows = []
        for length in HISTORY_LENGTHS:
            rows.append([f"L={length}"] + [table[length][p] for p in LOSS_RATES])
        print_table(
            f"Figure 3 ({name}): x_bar/f(p) vs p, cv = 1 - 1/1000",
            ["window"] + [f"p={p}" for p in LOSS_RATES],
            rows,
        )

    pftk = results["PFTK-simplified"]
    sqrt = results["SQRT"]
    # PFTK: throughput drop with loss (strong for small L).
    assert pftk[1][0.4] < 0.3 * pftk[1][0.01]
    assert pftk[2][0.4] < pftk[2][0.01]
    # Larger window => less conservative at heavy loss.
    assert pftk[16][0.4] > pftk[4][0.4] > pftk[1][0.4]
    # All points conservative (Theorem 1 hypotheses hold).
    assert all(value < 1.05 for table in (pftk, sqrt) for row in table.values()
               for value in row.values())
    # SQRT: essentially invariant in p for a given L.
    for length in HISTORY_LENGTHS:
        values = [sqrt[length][p] for p in LOSS_RATES]
        assert max(values) - min(values) < 0.1
    # SQRT far less conservative than PFTK at heavy loss.
    assert sqrt[8][0.4] > pftk[8][0.4]
