"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload predict-http --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end set of ``BENCHMARK.json``;
with ``--trace 1`` they are its per-layer set, from a second, traced
pass.  The lines before it are a human-readable report: the workload's
own named metrics, the per-call layer timings, per-phase self time and
the environment.  ``--workload all`` runs every workload and ends with
the workloads' own named metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.common import (  # noqa: E402
    ROOT,
    BenchmarkError,
    Check,
    environment,
    ensure_repro_importable,
    format_table,
    result_line,
)

WORKLOADS = ("predict-http", "figure-campaign", "flowsim")


def load_definition() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Run one workload; returns its :class:`~perfbench.common.Report`."""
    if name == "predict-http":
        from perfbench import predict_http as module
    elif name == "figure-campaign":
        from perfbench import figure_campaign as module
    elif name == "flowsim":
        from perfbench import flowsim_runs as module
    else:
        raise ValueError(f"unknown workload {name!r}")
    report = module.run(seed, seconds, trace, tiny=tiny)
    check = report.check
    report.put("headline", "setup_s", report.metrics["setup_s"]["value"], "s")
    report.put("headline", "error_ratio", check.failed / max(1, check.attempted), "ratio")
    report.put("headline", "peak_rss_mb", report.metrics["peak_rss_mb"]["value"], "MB")
    return report


def result_metrics(report, definition: dict, trace: bool) -> dict:
    """The metrics object of the result line, in BENCHMARK.json order.

    End-to-end metrics must all be measured.  A per-layer metric of a
    layer this workload never reaches reads 0.
    """
    if not trace:
        return {
            entry["name"]: {
                "value": report.metrics[entry["name"]]["value"],
                "unit": entry["unit"],
            }
            for entry in definition["end_to_end"]
        }
    return {
        entry["name"]: {
            "value": report.layers.get(entry["name"], {}).get("value", 0.0),
            "unit": entry["unit"],
        }
        for entry in definition["per_layer"]
    }


def print_report(report, seed: int, seconds: float, trace: bool) -> None:
    print(f"== workload {report.workload} (seed {seed}, {seconds:g} s, trace {int(trace)})")
    for line in format_table("named end-to-end metrics:", report.headline):
        print(line)
    if report.layer_times:
        for line in format_table("per-call layer timings (traced pass, unscaled):", report.layer_times):
            print(line)
    for line in report.lines:
        print(line)
    check = report.check
    print(f"checks: {check.attempted} attempted, {check.failed} failed")
    for problem in check.problems:
        print(f"  FAILED: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)

    try:
        ensure_repro_importable()
        definition = load_definition()
    except (BenchmarkError, OSError, ValueError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    print(f"environment: {json.dumps(environment(), sort_keys=True)}")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = [run_workload(name, args.seed, args.seconds, trace) for name in names]
    for report in reports:
        print_report(report, args.seed, args.seconds, trace)
    print(f"total wall {time.perf_counter() - started:.1f} s")

    if args.workload == "all":
        check = Check()
        metrics = {}
        for report in reports:
            check.absorb(report.check)
            for name, entry in report.headline.items():
                metrics[f"{report.workload}.{name}"] = entry
        print(result_line(check, metrics))
    else:
        report = reports[0]
        print(result_line(report.check, result_metrics(report, definition, trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
