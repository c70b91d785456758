#!/usr/bin/env python3
"""Compare a base tree with a head tree on perfbench, and gate the head.

Usage, from either tree's root::

    python3 benchmarks/perfbench_gate.py BASE HEAD --pairs 3 --record gate.json

BASE and HEAD are checkouts of this repository.  The head's
``perfbench/`` and ``BENCHMARK.json`` are copied over the base first,
so both sides run the same benchmark code and only ``src`` differs;
both trees' bytecode caches are then rebuilt the same way.  For every
workload in ``BENCHMARK.json`` and every pair (seeds 101, 102, ...) it
runs ``perfbench/run.py --trace 0`` once on each tree, alternating which
tree goes first, and reads the result line each run prints last.

The exit status is 1 when a head run fails or reports ``correct:
false``, when a workload's share of failed checks is larger on the head
than on the base, or when an end-to-end metric's head median is worse
than its base median by more than the metric's bound *and* every head
run reads worse than every base run.  A median past its bound whose
runs overlap prints as ``unresolved`` and does not fail.  The record
holds, per ``workload/metric``, the ``parent`` (base) and ``change``
(head) medians and the unit, with both commits, the seeds, the pair
count, ``run_seconds``, perfbench's environment line and the checks
attempted and failed on each side.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Sequence, Tuple

FIRST_SEED = 101
SIDES = ("base", "head")


def parse_result(stdout: str) -> Tuple[Optional[dict], Optional[dict]]:
    """The result line (the last line) and the environment line of a run."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    environment = None
    for line in lines:
        if line.startswith("environment: "):
            environment = json.loads(line[len("environment: "):])
            break
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return (result if isinstance(result, dict) else None), environment


def _values(runs: Sequence[Optional[dict]], metric: str) -> List[float]:
    return [
        run["metrics"][metric]["value"]
        for run in runs
        if run is not None and metric in run.get("metrics", {})
    ]


def _failed_share(runs: Sequence[Optional[dict]]) -> float:
    attempted = sum(run["attempted"] for run in runs if run is not None)
    failed = sum(run["failed"] for run in runs if run is not None)
    return failed / attempted if attempted else 0.0


def judge(
    workload: str,
    end_to_end: Sequence[dict],
    base_runs: Sequence[Optional[dict]],
    head_runs: Sequence[Optional[dict]],
) -> Tuple[List[dict], List[str]]:
    """One workload's rows and failures.

    A run is its parsed result line, or None when it exited non-zero or
    printed no result line.
    """
    failures = []
    for number, run in enumerate(head_runs, 1):
        if run is None:
            failures.append(f"{workload}: head run {number} printed no result")
        elif not run.get("correct"):
            failures.append(f"{workload}: head run {number} reports correct: false")
    if _failed_share(head_runs) > _failed_share(base_runs):
        failures.append(
            f"{workload}: failed share {_failed_share(head_runs):.3g} on the head, "
            f"{_failed_share(base_runs):.3g} on the base"
        )
    rows = []
    for entry in end_to_end:
        metric, bound, lower = entry["name"], entry["bound"], entry["better"] == "lower"
        name = f"{workload}/{metric}"
        base, head = _values(base_runs, metric), _values(head_runs, metric)
        if len(head) < sum(run is not None for run in head_runs):
            failures.append(f"{name}: missing from a head run")
        row = {"name": name, "unit": entry["unit"], "bound": bound,
               "base": None, "head": None, "change": None, "verdict": "no data"}
        rows.append(row)
        if not base or not head:
            continue
        row["base"], row["head"] = statistics.median(base), statistics.median(head)
        change = (row["head"] - row["base"]) / row["base"] if row["base"] else 0.0
        worse = change > bound if lower else change < -bound
        separated = min(head) > max(base) if lower else max(head) < min(base)
        row["change"] = change
        row["verdict"] = ("FAIL" if separated else "unresolved") if worse else "ok"
        if row["verdict"] == "FAIL":
            failures.append(
                f"{name}: {change:+.1%} past its bound {bound:g}, every head run worse"
            )
    return rows, failures


def format_row(row: dict) -> str:
    def number(value):
        return f"{value:>12.6g}" if value is not None else f"{'-':>12}"

    change = f"{row['change']:+8.1%}" if row["change"] is not None else f"{'-':>8}"
    return (f"{row['name']:<32} {number(row['base'])} {number(row['head'])} "
            f"{change} {row['bound']:>6g}  {row['verdict']}")


def _commit(tree: str) -> Optional[str]:
    def git(*args):
        return subprocess.run(["git", "-C", tree, *args], capture_output=True,
                              text=True, check=True).stdout.strip()

    try:
        if not os.path.samefile(git("rev-parse", "--show-toplevel"), tree):
            return None  # an exported tree inside some other repository
        commit = git("rev-parse", "HEAD")
        return commit + ("+dirty" if git("status", "--porcelain", "--untracked-files=no") else "")
    except (OSError, subprocess.CalledProcessError):
        return None


def prepare(base: str, head: str, python: str) -> None:
    """Give the base the head's benchmark, and both trees fresh bytecode."""
    if os.path.samefile(base, head):
        raise SystemExit("perfbench_gate: BASE and HEAD are the same directory")
    shutil.rmtree(os.path.join(base, "perfbench"), ignore_errors=True)
    shutil.copytree(os.path.join(head, "perfbench"), os.path.join(base, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copyfile(os.path.join(head, "BENCHMARK.json"), os.path.join(base, "BENCHMARK.json"))
    for tree in (base, head):
        for top in ("src", "perfbench"):
            for directory, subdirs, _files in os.walk(os.path.join(tree, top)):
                if "__pycache__" in subdirs:
                    subdirs.remove("__pycache__")
                    shutil.rmtree(os.path.join(directory, "__pycache__"))
        subprocess.run([python, "-m", "compileall", "-q", "src", "perfbench"],
                       cwd=tree, check=True)


def run_once(tree: str, command: List[str], workload: str, seed: int,
             seconds: float) -> Tuple[Optional[dict], Optional[dict]]:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)  # each tree imports its own src
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", f"{seconds:g}", "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-2000:])
        return None, None
    return parse_result(done.stdout)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="base tree (the commit the head is judged against)")
    parser.add_argument("head", help="head tree (the change under test)")
    parser.add_argument("--pairs", type=int, default=3,
                        help="alternating base/head pairs per workload (default: 3)")
    parser.add_argument("--record", required=True, help="path of the JSON record to write")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    trees = {"base": os.path.abspath(args.base), "head": os.path.abspath(args.head)}
    commits = {side: _commit(tree) for side, tree in trees.items()}
    with open(os.path.join(trees["head"], "BENCHMARK.json"), encoding="utf-8") as handle:
        definition = json.load(handle)
    prepare(trees["base"], trees["head"], definition["command"][0])

    seeds = [FIRST_SEED + pair for pair in range(args.pairs)]
    seconds = definition["run_seconds"]
    runs: Dict[str, Dict[str, List[Optional[dict]]]] = {}
    environment = None
    for workload in (entry["name"] for entry in definition["workloads"]):
        runs[workload] = {side: [] for side in SIDES}
        for pair, seed in enumerate(seeds):
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                result, env_line = run_once(trees[side], definition["command"],
                                            workload, seed, seconds)
                runs[workload][side].append(result)
                environment = environment or env_line
                values = " ".join(f"{name}={entry['value']:.6g}" for name, entry
                                  in (result or {}).get("metrics", {}).items())
                print(f"{workload} seed {seed} {side}: {values or 'no result'}", flush=True)

    rows, failures = [], []
    for workload, sides in runs.items():
        workload_rows, workload_failures = judge(
            workload, definition["end_to_end"], sides["base"], sides["head"])
        rows += workload_rows
        failures += workload_failures

    print(f"{'workload/metric':<32} {'base':>12} {'head':>12} {'change':>8} {'bound':>6}  verdict")
    for row in rows:
        print(format_row(row))
    checks = {}
    for label, side in (("parent", "base"), ("change", "head")):
        done = [run for sides in runs.values() for run in sides[side] if run is not None]
        checks[label] = {"attempted": sum(run["attempted"] for run in done),
                         "failed": sum(run["failed"] for run in done)}
    record = {
        "parent_commit": commits["base"],
        "change_commit": commits["head"],
        "seeds": seeds,
        "pairs": args.pairs,
        "run_seconds": seconds,
        "environment": environment,
        "checks": checks,
        "metrics": {
            row["name"]: {"parent": row["base"], "change": row["head"], "unit": row["unit"]}
            for row in rows
        },
    }
    with open(args.record, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(f"recorded {args.record}")
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
