#!/usr/bin/env python3
"""Quickstart: is equation-based rate control conservative?

This example walks through the unified component API in a few lines:

1. describe the components as config dicts -- a TCP throughput formula
   (PFTK-simplified, the one TFRC recommends) and a loss process (i.i.d.
   shifted-exponential loss-event intervals, the model of the paper's
   numerical experiments);
2. evaluate the basic and comprehensive controls through the
   ``repro.api.simulate`` facade;
3. compare the achieved throughput with f(p) -- the conservativeness
   question at the heart of the paper -- and check which of Theorem 1's /
   Theorem 2's sufficient conditions explain the outcome.

Every component here is pure data: swap the ``loss_process`` config for
``{"kind": "two-phase", ...}`` or ``{"kind": "gilbert", ...}`` to rerun
the same question under a correlated loss model, no other changes needed.

Run with::

    python examples/quickstart.py
"""

from repro import api
from repro.core import evaluate_conditions, tfrc_weights
from repro.lossprocess import make_rng
from repro.montecarlo import vectorized_control_trace

FORMULA = {"kind": "pftk-simplified", "rtt": 1.0}
LOSS_PROCESS = {
    "kind": "shifted-exponential",
    "loss_event_rate": 0.1,
    "coefficient_of_variation": 0.999,
}
NUM_EVENTS = 50_000
HISTORY_LENGTH = 8
SEED = 2002


def main() -> None:
    process = api.LOSS_PROCESSES.from_config(LOSS_PROCESS)
    formula = api.FORMULAS.from_config(FORMULA)

    # The facade runs each control over a sampled interval sequence;
    # L = 8 with the TFRC weight profile.
    results = {
        control: api.simulate(
            api.SimConfig(
                formula=FORMULA,
                loss_process=LOSS_PROCESS,
                history_length=HISTORY_LENGTH,
                control=control,
                num_events=NUM_EVENTS,
                seed=SEED,
            )
        )
        for control in ("basic", "comprehensive")
    }

    print("Loss process: shifted exponential, p = {:.3f}, cv = {:.3f}".format(
        process.loss_event_rate, process.coefficient_of_variation()))
    print("Formula: PFTK-simplified, f(p) = {:.3f} packets/s".format(
        formula.rate(process.loss_event_rate)))
    print()
    for control, result in results.items():
        print("{:21s} x_bar = {:.3f}  x_bar/f(p) = {:.3f}".format(
            control.capitalize() + " control", result.throughput,
            result.normalized_throughput))

    # Cross-check against the closed-form predictions: Propositions 1 and
    # 3 give the same long-run throughputs without simulating the control
    # (valid here because the loss process declares i.i.d. intervals).
    # Whole (formula x p x cv x L) grids of these integrals go through
    # api.simulate_batch(BatchConfig(method="analytic")).
    for control in ("basic", "comprehensive"):
        prediction = api.simulate(api.SimConfig(
            formula=FORMULA, loss_process=LOSS_PROCESS,
            history_length=HISTORY_LENGTH, control=control,
            method="analytic", num_events=200_000, seed=SEED))
        print("{:21s} Proposition {} prediction: x_bar/f(p) = {:.3f}".format(
            control.capitalize() + " control",
            "1" if control == "basic" else "3",
            prediction.normalized_throughput))
    print()

    # The conditions report needs the per-event trajectory of the basic
    # control run printed above: the kernel over the draw simulate()
    # evaluated, NUM_EVENTS + L intervals from the run's seed (the first
    # L warm up the estimator).
    basic_trace = vectorized_control_trace(
        formula,
        process.sample_intervals(NUM_EVENTS + HISTORY_LENGTH, make_rng(SEED)),
        tfrc_weights(HISTORY_LENGTH),
    )
    report = evaluate_conditions(formula, basic_trace)
    print("Theorem 1 verdict:", report.theorem1.value)
    print("  g = 1/f(1/x) convex:", report.g_is_convex)
    print("  cov[theta, theta_hat] <= 0:", report.condition_c1_holds)
    if report.throughput_bound is not None:
        print("  bound (10) on the throughput: {:.3f} (measured {:.3f})".format(
            report.throughput_bound, basic_trace.throughput))
    print("Theorem 2 verdict:", report.theorem2.value)
    print()
    print("Interpretation: with i.i.d. loss-event intervals the covariance "
          "condition (C1) holds, 1/f(1/x) is convex for PFTK-simplified, and "
          "Theorem 1 predicts -- and the run confirms -- that the control is "
          "conservative; heavier loss or a shorter estimator window would "
          "make it more so (see examples/conservativeness_study.py).")


if __name__ == "__main__":
    main()
