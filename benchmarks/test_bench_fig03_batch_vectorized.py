"""Batch simulate() reproduces the Figure 3 preset in vectorised passes.

The fig3 campaign preset evaluates a 45-point grid (L in {1, 2, 4, 8, 16}
x nine loss-event rates) point by point: each point is one
``api.simulate`` call, a one-row pass through the vectorised kernel.  The
``repro.api.simulate_batch`` facade evaluates the same grid in shared
numpy passes, reusing each sampled interval block across the whole grid
and all formula variants.  The per-event loop
(``repro.core.control.BasicControl.run``, one Python iteration per loss
event) is kept as the reference semantics.  This benchmark checks:

* with ``share_noise=False`` the batch derives the preset's own per-point
  seeds and reproduces every normalized throughput to numerical
  precision (tolerance 1e-9 -- same draws, vectorised arithmetic), and
  so does the loop run over the same 45 sampled sequences;
* with ``share_noise=True`` (one unit-exponential block rescaled per
  point, common random numbers) the qualitative Figure 3 shape holds;
* both vectorised batch paths are far faster than the per-event loop
  over those 45 sequences.
"""

import time

import numpy as np

from repro import api
from repro.core.control import BasicControl
from repro.experiments import ExperimentRunner, preset
from repro.experiments.registry import FIGURE3_CV
from repro.lossprocess import make_rng

from conftest import print_table


def run_preset_and_batches():
    spec = preset("fig3-pftk")
    loss_rates = [float(p) for p in spec.grid["loss_event_rate"]]
    lengths = [int(length) for length in spec.grid["history_length"]]
    common = dict(
        formulas=[spec.base["formula"]],
        loss_event_rates=loss_rates,
        coefficients_of_variation=[FIGURE3_CV],
        history_lengths=lengths,
        num_events=int(spec.base["num_events"]),
        seed=spec.seed,
    )

    started = time.perf_counter()
    campaign = ExperimentRunner().run(spec)
    campaign.raise_errors()
    campaign_seconds = time.perf_counter() - started

    started = time.perf_counter()
    exact = api.simulate_batch(api.BatchConfig(share_noise=False, **common))
    exact_seconds = time.perf_counter() - started

    # The per-event loop over the same 45 sampled sequences (each point's
    # derived seed, one draw of num_events + L intervals); only the
    # control runs are timed.
    formula = api.FORMULAS.from_config(spec.base["formula"])
    runs = []
    for result in exact.results:
        weights = api.WEIGHT_PROFILES.from_config(
            {"kind": "tfrc", "history_length": result.history_length}
        ).weights()
        intervals = api.LOSS_PROCESSES.from_config(
            result.loss_process
        ).sample_intervals(
            result.num_events + result.history_length, make_rng(result.seed)
        )
        runs.append((result, BasicControl(formula, weights=weights), intervals))
    started = time.perf_counter()
    traces = [control.run(intervals) for _, control, intervals in runs]
    loop_seconds = time.perf_counter() - started
    loop = {
        (result.history_length, result.loss_event_rate):
            trace.normalized_throughput(formula)
        for (result, _, _), trace in zip(runs, traces)
    }

    started = time.perf_counter()
    shared = api.simulate_batch(api.BatchConfig(share_noise=True, **common))
    shared_seconds = time.perf_counter() - started

    def as_table(results):
        return {
            (result.history_length, result.loss_event_rate):
                result.normalized_throughput
            for result in results
        }

    return {
        "loss_rates": loss_rates,
        "lengths": lengths,
        "scalar": {
            (row["history_length"], row["loss_event_rate"]):
                row["normalized_throughput"]
            for row in campaign.values()
        },
        "exact": as_table(exact.results),
        "shared": as_table(shared.results),
        "loop": loop,
        "campaign_seconds": campaign_seconds,
        "loop_seconds": loop_seconds,
        "exact_seconds": exact_seconds,
        "shared_seconds": shared_seconds,
    }


def test_fig03_batch_matches_preset(run_once):
    data = run_once(run_preset_and_batches)
    loss_rates, lengths = data["loss_rates"], data["lengths"]
    scalar, exact, shared = data["scalar"], data["exact"], data["shared"]
    loop = data["loop"]

    rows = []
    for length in lengths:
        rows.append([f"L={length} (preset)"]
                    + [scalar[(length, p)] for p in loss_rates])
        rows.append([f"L={length} (batch)"]
                    + [shared[(length, p)] for p in loss_rates])
    print_table(
        "Figure 3 (PFTK-simplified): x_bar/f(p), per-point preset vs "
        "shared-noise vectorised batch",
        ["window"] + [f"p={p}" for p in loss_rates],
        rows,
    )
    loop_seconds = data["loop_seconds"]
    print(f"per-event loop: {loop_seconds:.2f} s | per-point campaign: "
          f"{data['campaign_seconds']:.2f} s | vectorised batch: "
          f"{data['exact_seconds']:.3f} s (matched seeds, "
          f"x{loop_seconds / data['exact_seconds']:.0f}), "
          f"{data['shared_seconds']:.3f} s (shared noise, "
          f"x{loop_seconds / data['shared_seconds']:.0f})")

    # Matched-seed batch and the loop oracle reproduce the preset to
    # numerical precision.
    assert set(scalar) == set(exact) == set(shared) == set(loop)
    for key, value in scalar.items():
        assert np.isclose(exact[key], value, rtol=1e-9, atol=1e-12), (
            key, value, exact[key])
        assert np.isclose(loop[key], value, rtol=1e-9, atol=1e-12), (
            key, value, loop[key])

    # The shared-noise fast path preserves the Figure 3 shape.
    assert shared[(1, 0.4)] < 0.3 * shared[(1, 0.01)]
    assert shared[(16, 0.4)] > shared[(4, 0.4)] > shared[(1, 0.4)]
    assert all(value < 1.05 for value in shared.values())
    for length in lengths:
        assert shared[(length, 0.4)] < shared[(length, 0.01)]

    # The vectorised grid must beat the per-event loop decisively.
    assert data["exact_seconds"] < loop_seconds / 5.0
    assert data["shared_seconds"] < loop_seconds / 5.0
