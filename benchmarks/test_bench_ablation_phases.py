"""Ablation: phased loss processes and the limits of Theorem 1.

Section III-B.2 warns that when the loss process moves through slow phases
the moving-average estimator becomes a good predictor of the next interval,
the covariance condition (C1) fails, and conservativeness is no longer
guaranteed.  This ablation sweeps the phase-switching probability from fast
(near-i.i.d.) to slow and reports the normalised covariance and normalized
throughput, showing the drift from the Theorem 1 regime.
"""

from repro import api
from repro.core import PftkSimplifiedFormula, SqrtFormula

from conftest import print_table

SWITCH_PROBABILITIES = (0.5, 0.2, 0.1, 0.05, 0.02, 0.01)
NUM_EVENTS = 30_000
SEED = 31


def generate_phase_ablation():
    """Per formula, one row per switch probability: (q, normalised
    covariance, x_bar/f(p), empirical p), the point of index i seeded
    SEED + i."""
    results = {}
    for name, formula in (("SQRT", SqrtFormula(rtt=1.0)),
                          ("PFTK-simplified", PftkSimplifiedFormula(rtt=1.0))):
        rows = []
        for index, probability in enumerate(SWITCH_PROBABILITIES):
            result = api.simulate(api.SimConfig(
                formula=formula,
                loss_process={"kind": "two-phase", "good_mean": 60.0,
                              "bad_mean": 4.0,
                              "switch_probability": probability},
                history_length=8, num_events=NUM_EVENTS, seed=SEED + index,
            ))
            rate = result.empirical_loss_event_rate
            rows.append([probability,
                         result.interval_estimate_covariance * rate**2,
                         result.normalized_throughput, rate])
        results[name] = rows
    return results


def test_ablation_phased_loss(run_once):
    results = run_once(generate_phase_ablation)
    for name, rows in results.items():
        print_table(
            f"Ablation ({name}): phased loss process, slow phases break (C1)",
            ["switch prob", "norm. cov", "x_bar/f(p)", "p"],
            rows,
        )
    for name, rows in results.items():
        covariances = [row[1] for row in rows]
        throughputs = [row[2] for row in rows]
        # Slower switching => more predictable intervals => larger covariance.
        assert covariances[-1] > covariances[0]
        assert covariances[-1] > 0.05
        # The fast-switching end behaves like the i.i.d. experiments:
        # conservative.
        assert throughputs[0] < 1.05
    # Once (C1) fails the outcome depends on the formula, as Theorem 2
    # predicts: for SQRT (mild convexity of g) the positive covariance pushes
    # the throughput up towards f(p); for PFTK the extreme convexity of g in
    # the congested phase dominates and the control remains (even more)
    # conservative -- the two effects pull in opposite directions.
    sqrt_rows = results["SQRT"]
    pftk_rows = results["PFTK-simplified"]
    assert sqrt_rows[-1][2] > sqrt_rows[0][2]
    assert pftk_rows[-1][2] < 1.05
