"""Benchmark harness: the repo's versioned performance trajectory.

A *suite* is a named list of benchmarks; each benchmark is a callable
exercising one hot path (the vectorised Monte-Carlo and analytic batch
kernels, their scalar reference points, a small campaign through the
experiments runner).  :func:`run_suite` times each benchmark over
several repeats (telemetry disabled, so the numbers reflect production
mode), summarises them as median / inter-quartile range, then takes one
extra *instrumented* pass with telemetry enabled to attach the
``repro.telemetry`` counters the run produced.

Results are recorded to ``BENCH_<n>.json`` files at the repository root
(or any ``--dir``): the harness finds the highest existing ``n``, writes
``n + 1``, and prints a comparison table against the previous file.  A
benchmark whose median grew by more than the threshold (default 30%)
is flagged as a regression, and ``--check`` turns that into a non-zero
exit -- the CI gate.  Because every PR appends a new file against the
committed baseline, the sequence ``BENCH_1.json, BENCH_2.json, ...`` is
the cross-PR performance trajectory ROADMAP's kernel-performance
program asks for.

Entry points: ``python -m repro.cli bench`` (see ``--help``) or the
``benchmarks/harness.py`` wrapper script.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from . import telemetry

__all__ = [
    "Benchmark",
    "BENCHMARKS",
    "SUITES",
    "add_arguments",
    "bench_files",
    "compare",
    "execute",
    "format_comparison",
    "main",
    "next_bench_path",
    "register_benchmark",
    "run_suite",
    "suite_benchmarks",
]

SCHEMA_VERSION = 1
DEFAULT_THRESHOLD = 0.30
DEFAULT_REPEATS = 5
_BENCH_PATTERN = re.compile(r"^BENCH_(\d+)\.json$")

#: The clock behind :func:`_time_once`.  Module-level so tests can
#: install a deterministic fake and exercise the recording/comparison
#: pipeline at ``repeats=1`` without wall-clock jitter widening their
#: thresholds.
_TIMER: Callable[[], float] = time.perf_counter


@dataclass(frozen=True)
class Benchmark:
    """One named benchmark: a callable returning JSON-safe metadata.

    The callable must be self-contained (build its own configs, fixed
    seeds) so repeated calls measure the same work; the metadata it
    returns (grid points, rows, events) is recorded alongside the
    timings and used to derive a rows/sec figure where it names
    ``rows``.
    """

    name: str
    description: str
    fn: Callable[[], Dict[str, Any]]


BENCHMARKS: Dict[str, Benchmark] = {}


def register_benchmark(
    name: str, description: str
) -> Callable[[Callable[[], Dict[str, Any]]], Callable[[], Dict[str, Any]]]:
    """Decorator: register a function as a named benchmark."""

    def wrap(fn: Callable[[], Dict[str, Any]]) -> Callable[[], Dict[str, Any]]:
        BENCHMARKS[name] = Benchmark(name=name, description=description, fn=fn)
        return fn

    return wrap


# ----------------------------------------------------------------------
# The benchmarks.  Sizes are chosen so the default suite completes in
# well under a minute per repeat: large enough that numpy pass structure
# dominates, small enough for a CI gate.
# ----------------------------------------------------------------------
_FIG3_RATES = [0.02, 0.05, 0.1, 0.2]
_FIG3_CV = [0.999]
_FIG3_LENGTHS = [2, 8]


def _batch_config(method: str, share_noise: bool, num_events: int):
    from .api import BatchConfig

    return BatchConfig(
        formulas=[
            {"kind": "pftk-simplified", "rtt": 1.0},
            {"kind": "sqrt", "rtt": 1.0},
        ],
        history_lengths=list(_FIG3_LENGTHS),
        loss_event_rates=list(_FIG3_RATES),
        coefficients_of_variation=list(_FIG3_CV),
        method=method,
        num_events=num_events,
        seed=7,
        share_noise=share_noise,
    )


@register_benchmark(
    "kernel-montecarlo-batch",
    "vectorised Monte-Carlo control over a fig3-style grid "
    "(2 formulas x 2 L x 4 p, shared noise, 20k events/point)",
)
def _bench_kernel_montecarlo_batch() -> Dict[str, Any]:
    from .api import simulate_batch

    batch = simulate_batch(_batch_config("montecarlo", True, 20_000))
    return {"rows": len(batch.results), "num_events": 20_000}


@register_benchmark(
    "kernel-analytic-batch",
    "vectorised Proposition 1 analytic kernel over the same grid "
    "(stratified shared-noise fast path, 20k samples/point)",
)
def _bench_kernel_analytic_batch() -> Dict[str, Any]:
    from .api import simulate_batch

    batch = simulate_batch(_batch_config("analytic", True, 20_000))
    return {"rows": len(batch.results), "num_events": 20_000}


@register_benchmark(
    "kernel-montecarlo-batch-matched",
    "vectorised Monte-Carlo control with per-point derived seeds "
    "(share_noise=False -- the campaign-equivalent mode, 20k events/point)",
)
def _bench_kernel_montecarlo_matched() -> Dict[str, Any]:
    from .api import simulate_batch

    batch = simulate_batch(_batch_config("montecarlo", False, 20_000))
    return {"rows": len(batch.results), "num_events": 20_000}


@register_benchmark(
    "scalar-montecarlo",
    "scalar reference: one simulate() point, a one-row call into the "
    "vectorised Monte-Carlo control kernel (20k events)",
)
def _bench_scalar_montecarlo() -> Dict[str, Any]:
    from .api import SimConfig, simulate

    simulate(
        SimConfig(
            formula={"kind": "pftk-simplified", "rtt": 1.0},
            loss_event_rate=0.1,
            coefficient_of_variation=0.999,
            history_length=8,
            num_events=20_000,
            seed=7,
        )
    )
    return {"rows": 1, "num_events": 20_000}


@register_benchmark(
    "scalar-analytic",
    "scalar reference: one simulate(method='analytic') Proposition 1 "
    "point (20k samples)",
)
def _bench_scalar_analytic() -> Dict[str, Any]:
    from .api import SimConfig, simulate

    simulate(
        SimConfig(
            formula={"kind": "pftk-simplified", "rtt": 1.0},
            loss_event_rate=0.1,
            coefficient_of_variation=0.999,
            history_length=8,
            method="analytic",
            num_events=20_000,
            seed=7,
        )
    )
    return {"rows": 1, "num_events": 20_000}


@register_benchmark(
    "campaign-smoke",
    "the 4-point 'smoke' campaign preset through the experiments "
    "runner (serial, no store)",
)
def _bench_campaign_smoke() -> Dict[str, Any]:
    from .experiments import ExperimentRunner, preset

    campaign = ExperimentRunner().run(preset("smoke"))
    campaign.raise_errors()
    return {"rows": campaign.num_points}


@register_benchmark(
    "flowsim-campaign",
    "flow-level simulation: 2000 concurrent flows for 50 simulated "
    "seconds at 0.5 s sampling intervals (estimator draws, L=8)",
)
def _bench_flowsim_campaign() -> Dict[str, Any]:
    from .flowsim import FlowSimConfig, run_flowsim

    result = run_flowsim(
        FlowSimConfig(
            formula={"kind": "sqrt", "rtt": 0.1},
            generator={"kind": "fixed-population", "num_flows": 2000},
            loss_event_rate=0.1,
            coefficient_of_variation=0.6,
            history_length=8,
            duration=50.0,
            interval=0.5,
            seed=7,
        )
    )
    return {"rows": result.flowlets_emitted}


@register_benchmark(
    "prediction-service",
    "cold vs warm /predict p50 latency through the memoising prediction "
    "service (6 distinct 20k-event points, then 5 warm passes each)",
)
def _bench_prediction_service() -> Dict[str, Any]:
    import asyncio

    from .service import PredictionService, ServiceConfig

    payloads = [
        {
            "formula": {"kind": "pftk-simplified", "rtt": 1.0},
            "loss_event_rate": rate,
            "coefficient_of_variation": 0.999,
            "history_length": 8,
            "num_events": 20_000,
            "seed": 7,
        }
        for rate in (0.02, 0.05, 0.08, 0.1, 0.15, 0.2)
    ]

    async def run(service: "PredictionService"):
        cold: List[float] = []
        for payload in payloads:
            started = time.perf_counter()
            response = await service.predict(payload)
            cold.append(time.perf_counter() - started)
            assert response["cache"] == "miss"
        warm: List[float] = []
        for _ in range(5):
            for payload in payloads:
                started = time.perf_counter()
                response = await service.predict(payload)
                warm.append(time.perf_counter() - started)
                assert response["cache"] == "hit"
        return cold, warm

    service = PredictionService(ServiceConfig(cache_capacity=64, workers=2))
    try:
        cold, warm = asyncio.run(run(service))
    finally:
        service.close()
    cold_p50 = statistics.median(cold)
    warm_p50 = statistics.median(warm)
    return {
        "rows": len(cold) + len(warm),
        "num_events": 20_000,
        "cold_p50_s": cold_p50,
        "warm_p50_s": warm_p50,
        "warm_speedup": cold_p50 / warm_p50 if warm_p50 > 0 else None,
    }


@register_benchmark(
    "shortflow-batch",
    "CSA00 short-flow latency surface through the experiments runner, "
    "one in-process closed-form point each (40 sizes x 30 loss rates x "
    "2 RTTs)",
)
def _bench_shortflow_batch() -> Dict[str, Any]:
    from .experiments import ExperimentRunner, ExperimentSpec

    spec = ExperimentSpec(
        name="bench-shortflow",
        runner="shortflow",
        base={
            "latency_model": {"kind": "csa00", "initial_window": 2},
            "formula": {"kind": "pftk-standard"},
        },
        grid={
            "transfer_size": [float(2 * (i + 1)) for i in range(40)],
            "loss_event_rate": [0.004 + 0.004 * i for i in range(30)],
            "rtt": [0.05, 0.2],
        },
        seed=2000,
        description="shortflow campaign benchmark grid",
    )
    campaign = ExperimentRunner().run(spec)
    campaign.raise_errors()
    return {"rows": campaign.num_points}


SUITES: Dict[str, List[str]] = {
    "default": [
        "kernel-montecarlo-batch",
        "kernel-montecarlo-batch-matched",
        "kernel-analytic-batch",
        "scalar-montecarlo",
        "scalar-analytic",
        "campaign-smoke",
        "flowsim-campaign",
        "shortflow-batch",
        "prediction-service",
    ],
    "kernels": [
        "kernel-montecarlo-batch",
        "kernel-montecarlo-batch-matched",
        "kernel-analytic-batch",
    ],
    # The quick suite is the CI regression gate run at --repeats 3: only
    # benchmarks with low single-run variance belong here.  The heavier
    # prediction-service benchmark (thread pool + 36 HTTP-sized
    # predictions) perturbs the fork-based campaign-smoke timing when
    # both run in one process, so it tracks in 'default' only.
    # The service suite isolates the prediction-service benchmark: its
    # thread pool perturbs fork-based campaign timings when mixed into
    # one process (see the 'quick' note), and the repeats=1 CLI
    # regression test drives exactly this suite.
    "service": [
        "prediction-service",
    ],
    "quick": [
        "kernel-montecarlo-batch",
        "kernel-analytic-batch",
        "campaign-smoke",
        "flowsim-campaign",
    ],
}


def suite_benchmarks(suite: str) -> List[Benchmark]:
    """Resolve a suite name to its benchmarks, in declared order."""
    try:
        names = SUITES[suite]
    except KeyError:
        raise KeyError(
            f"unknown suite {suite!r}; available suites are {sorted(SUITES)}"
        ) from None
    return [BENCHMARKS[name] for name in names]


# ----------------------------------------------------------------------
# Running and summarising
# ----------------------------------------------------------------------
def _time_once(fn: Callable[[], Dict[str, Any]]) -> Tuple[float, Dict[str, Any]]:
    started = _TIMER()
    meta = fn() or {}
    return _TIMER() - started, meta


def _summarise(samples: Sequence[float]) -> Dict[str, Any]:
    ordered = sorted(samples)
    quartiles = (
        statistics.quantiles(ordered, n=4, method="inclusive")
        if len(ordered) >= 2
        else [ordered[0]] * 3
    )
    return {
        "median_s": statistics.median(ordered),
        "iqr_s": quartiles[2] - quartiles[0],
        "min_s": ordered[0],
        "max_s": ordered[-1],
        "samples_s": list(samples),
    }


def _instrumented_pass(fn: Callable[[], Dict[str, Any]]) -> Dict[str, Any]:
    """One extra run with telemetry on; returns the counters it produced.

    The timed repeats run with telemetry *disabled* so the recorded
    medians reflect the production (default) mode; this pass trades one
    more execution for the counter/histogram view of what the benchmark
    actually did (kernel calls, cache hits, simulator events).
    """
    was_enabled = telemetry.enabled()
    telemetry.enable(fresh=True)
    try:
        fn()
        snapshot = telemetry.snapshot()
    finally:
        if not was_enabled:
            telemetry.disable()
        telemetry.reset()
    return {
        "counters": snapshot["counters"],
        "span_wall_s": {
            name[len("span:"):]: summary
            for name, summary in snapshot["histograms"].items()
            if name.startswith("span:")
        },
    }


def run_suite(
    suite: str = "default",
    repeats: int = DEFAULT_REPEATS,
    warmup: int = 1,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Run one suite; returns the JSON-safe result payload."""
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    benchmarks = suite_benchmarks(suite)
    results: Dict[str, Any] = {}
    was_enabled = telemetry.enabled()
    telemetry.disable()
    try:
        for benchmark in benchmarks:
            if progress is not None:
                progress(f"[bench] {benchmark.name}: warmup ...")
            meta: Dict[str, Any] = {}
            for _ in range(warmup):
                _, meta = _time_once(benchmark.fn)
            samples: List[float] = []
            for repeat in range(repeats):
                duration, meta = _time_once(benchmark.fn)
                samples.append(duration)
                if progress is not None:
                    progress(
                        f"[bench] {benchmark.name}: repeat "
                        f"{repeat + 1}/{repeats} {duration:.4f}s"
                    )
            entry = {"description": benchmark.description}
            entry.update(_summarise(samples))
            entry["meta"] = meta
            rows = meta.get("rows")
            if isinstance(rows, (int, float)) and entry["median_s"] > 0:
                entry["rows_per_s"] = rows / entry["median_s"]
            entry["telemetry"] = _instrumented_pass(benchmark.fn)
            results[benchmark.name] = entry
    finally:
        if was_enabled:
            telemetry.enable()
    try:
        import numpy

        numpy_version = numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dependency
        numpy_version = None
    return {
        "schema_version": SCHEMA_VERSION,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "suite": suite,
        "repeats": repeats,
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy_version,
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "benchmarks": results,
    }


# ----------------------------------------------------------------------
# BENCH_<n>.json management and comparison
# ----------------------------------------------------------------------
def bench_files(directory: str) -> List[Tuple[int, str]]:
    """The ``(version, path)`` pairs of BENCH files, sorted by version."""
    found = []
    for entry in os.listdir(directory):
        match = _BENCH_PATTERN.match(entry)
        if match:
            found.append((int(match.group(1)), os.path.join(directory, entry)))
    return sorted(found)


def next_bench_path(directory: str) -> str:
    """The path the next recording should use (highest version + 1)."""
    existing = bench_files(directory)
    version = existing[-1][0] + 1 if existing else 1
    return os.path.join(directory, f"BENCH_{version}.json")


def compare(
    baseline: Dict[str, Any],
    current: Dict[str, Any],
    threshold: float = DEFAULT_THRESHOLD,
) -> List[Dict[str, Any]]:
    """Per-benchmark comparison rows between two result payloads.

    ``ratio`` is current median over baseline median; a benchmark only
    present on one side is reported as ``new`` / ``removed`` and never
    flags a regression.
    """
    rows: List[Dict[str, Any]] = []
    baseline_benchmarks = baseline.get("benchmarks", {})
    current_benchmarks = current.get("benchmarks", {})
    for name in sorted(set(baseline_benchmarks) | set(current_benchmarks)):
        old = baseline_benchmarks.get(name)
        new = current_benchmarks.get(name)
        if old is None:
            rows.append(
                {"name": name, "baseline_s": None,
                 "current_s": new["median_s"], "ratio": None, "status": "new"}
            )
            continue
        if new is None:
            rows.append(
                {"name": name, "baseline_s": old["median_s"],
                 "current_s": None, "ratio": None, "status": "removed"}
            )
            continue
        ratio = (
            new["median_s"] / old["median_s"] if old["median_s"] > 0 else None
        )
        if ratio is None:
            status = "ok"
        elif ratio > 1.0 + threshold:
            status = "REGRESSION"
        elif ratio < 1.0 - threshold:
            status = "improved"
        else:
            status = "ok"
        rows.append(
            {"name": name, "baseline_s": old["median_s"],
             "current_s": new["median_s"], "ratio": ratio, "status": status}
        )
    return rows


def format_comparison(
    rows: Sequence[Dict[str, Any]], baseline_path: str
) -> str:
    """Render comparison rows as the table the CLI prints."""
    lines = [f"Comparison vs {baseline_path}"]
    header = f"{'benchmark':<34} {'baseline':>10} {'current':>10} {'ratio':>7}  status"
    lines.append(header)
    for row in rows:
        baseline_cell = (
            f"{row['baseline_s']:.4f}s" if row["baseline_s"] is not None else "-"
        )
        current_cell = (
            f"{row['current_s']:.4f}s" if row["current_s"] is not None else "-"
        )
        ratio_cell = f"{row['ratio']:.2f}x" if row["ratio"] is not None else "-"
        lines.append(
            f"{row['name']:<34} {baseline_cell:>10} {current_cell:>10} "
            f"{ratio_cell:>7}  {row['status']}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# CLI plumbing (shared by repro.cli bench and benchmarks/harness.py)
# ----------------------------------------------------------------------
def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the bench options to an argparse parser."""
    parser.add_argument("--suite", default="default", choices=sorted(SUITES),
                        help="benchmark suite to run (default: default)")
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS,
                        help=f"timed repeats per benchmark "
                             f"(default: {DEFAULT_REPEATS})")
    parser.add_argument("--warmup", type=int, default=1,
                        help="untimed warmup runs per benchmark (default: 1)")
    parser.add_argument("--dir", default=".", dest="directory",
                        help="directory holding the BENCH_<n>.json "
                             "trajectory (default: current directory)")
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                        help="relative median growth flagged as regression "
                             f"(default: {DEFAULT_THRESHOLD})")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero when any benchmark regresses "
                             "beyond the threshold")
    parser.add_argument("--no-write", action="store_true",
                        help="run and compare without recording a new "
                             "BENCH file")
    parser.add_argument("--dry-run", action="store_true",
                        help="list the suite's benchmarks and exit without "
                             "running anything")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-repeat progress lines")


def execute(arguments: argparse.Namespace) -> int:
    """Run the bench command for parsed arguments; returns an exit code."""
    if arguments.dry_run:
        print(f"Suite {arguments.suite!r} "
              f"({len(SUITES[arguments.suite])} benchmarks), dry run:")
        for benchmark in suite_benchmarks(arguments.suite):
            print(f"  {benchmark.name:<34} {benchmark.description}")
        print("(dry run: nothing executed, no BENCH file written)")
        return 0

    progress = None if arguments.quiet else print
    payload = run_suite(
        suite=arguments.suite,
        repeats=arguments.repeats,
        warmup=arguments.warmup,
        progress=progress,
    )

    print(f"Suite {arguments.suite!r}: {len(payload['benchmarks'])} "
          f"benchmarks, {arguments.repeats} repeats")
    for name, entry in payload["benchmarks"].items():
        rate = (
            f", {entry['rows_per_s']:.1f} rows/s"
            if "rows_per_s" in entry
            else ""
        )
        print(f"  {name:<34} median {entry['median_s']:.4f}s "
              f"(iqr {entry['iqr_s']:.4f}s{rate})")

    existing = bench_files(arguments.directory)
    exit_code = 0
    if existing:
        baseline_version, baseline_path = existing[-1]
        with open(baseline_path, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        rows = compare(baseline, payload, threshold=arguments.threshold)
        print(format_comparison(rows, baseline_path))
        regressions = [row for row in rows if row["status"] == "REGRESSION"]
        if regressions:
            names = ", ".join(row["name"] for row in regressions)
            print(f"REGRESSION: {len(regressions)} benchmark(s) slower than "
                  f"{1.0 + arguments.threshold:.2f}x baseline: {names}")
            if arguments.check:
                exit_code = 1
    else:
        print("No previous BENCH_*.json found; this run starts the "
              "trajectory.")

    if not arguments.no_write:
        path = next_bench_path(arguments.directory)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, allow_nan=False)
            handle.write("\n")
        print(f"Recorded {path}")
    return exit_code


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone entry point (used by ``benchmarks/harness.py``)."""
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Run the kernel/campaign benchmark suite and extend "
                    "the BENCH_<n>.json performance trajectory.",
    )
    add_arguments(parser)
    return execute(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover - exercised via harness.py
    raise SystemExit(main())
