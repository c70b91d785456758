"""Figure 4: normalized throughput versus the coefficient of variation of theta.

PFTK-simplified with q = 4r; p fixed to 1/100 (left) and 1/10 (right);
cv[theta_0] swept from near 0 to near 1; window lengths L in {1,...,16}.
Expected shape: the larger the variability of the loss-event intervals
(hence of the estimator), the more conservative the control; larger L
mitigates the effect.
"""

from repro import api
from repro.core import PftkSimplifiedFormula
from repro.experiments import ExperimentRunner, ExperimentSpec

from conftest import print_table

CVS = (0.1, 0.3, 0.5, 0.7, 0.9, 0.999)
HISTORY_LENGTHS = (1, 2, 4, 8, 16)
NUM_EVENTS = 20_000


def generate_figure4():
    formula = PftkSimplifiedFormula(rtt=1.0)
    results = {}
    for loss_rate in (0.01, 0.1):
        campaign = ExperimentRunner().run(
            ExperimentSpec(
                name=f"fig4-{loss_rate}",
                runner="montecarlo-basic",
                base={
                    "formula": api.FORMULAS.to_config(formula),
                    "loss_event_rate": loss_rate,
                    "num_events": NUM_EVENTS,
                },
                grid={
                    "history_length": list(HISTORY_LENGTHS),
                    "coefficient_of_variation": list(CVS),
                },
                seed=19,
            )
        )
        campaign.raise_errors()
        table = {}
        for result in campaign.results:
            point = result.value
            table.setdefault(point["history_length"], {})[
                point["coefficient_of_variation"]
            ] = point["normalized_throughput"]
        results[loss_rate] = table
    return results


def test_fig04_normalized_throughput_vs_cv(run_once):
    results = run_once(generate_figure4)
    for loss_rate, table in results.items():
        rows = [
            [f"L={length}"] + [table[length][cv] for cv in CVS]
            for length in HISTORY_LENGTHS
        ]
        print_table(
            f"Figure 4 (PFTK-simplified, p={loss_rate}): x_bar/f(p) vs cv[theta]",
            ["window"] + [f"cv={cv}" for cv in CVS],
            rows,
        )

    for loss_rate, table in results.items():
        for length in HISTORY_LENGTHS:
            # More variability => more conservative.
            assert table[length][0.999] < table[length][0.1]
            # At negligible variability the control is essentially exact.
            assert table[length][0.1] > 0.9
        # Larger L mitigates the conservativeness at high variability.
        assert table[16][0.999] > table[1][0.999]
    # The effect is much stronger at p = 1/10 than at p = 1/100.
    assert results[0.1][1][0.999] < results[0.01][1][0.999]
