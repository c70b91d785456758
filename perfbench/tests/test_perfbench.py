"""Tests of the benchmark itself: seeded inputs, wrappers, and output shape.

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

from perfbench import run as bench
from perfbench.common import ROOT, ensure_repro_importable

ensure_repro_importable()

from perfbench import flowsim_runs, predict_http  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402


def _schedule(seed):
    warm = predict_http.warm_set(seed)
    return predict_http.make_schedule(seed, 6.0, warm), warm


def test_same_seed_gives_same_schedule():
    first, _ = _schedule(5)
    second, _ = _schedule(5)
    assert first == second
    assert first.offsets == sorted(first.offsets)


def test_different_seeds_give_disjoint_misses_with_same_shares():
    from repro import api
    from repro.service.core import prediction_key

    keys = []
    shares = []
    for seed in (5, 6):
        schedule, warm = _schedule(seed)
        shares.append({kind: schedule.classes.count(kind) for kind, _ in predict_http.MIX})
        misses = {prediction_key(api.SimConfig.from_dict(payload))
                  for payload, kind in zip(schedule.payloads, schedule.classes) if kind == "miss"}
        warmed = {prediction_key(api.SimConfig.from_dict(p)) for p in warm}
        assert misses and not misses & warmed
        keys.append(misses)
    assert shares[0] == shares[1]
    assert not keys[0] & keys[1]


def _all_targets(tracer):
    from repro.core.formulas import SqrtFormula

    from perfbench.layers import kernel_targets

    return (
        kernel_targets(tracer)
        + predict_http._server_targets(tracer)
        + flowsim_runs._targets(tracer, SqrtFormula)
    )


def test_wrappers_restore_every_original():
    tracer = Tracer()
    targets = _all_targets(tracer)
    before = [(t.owner, t.attr, t.attr in vars(t.owner), getattr(t.owner, t.attr)) for t in targets]
    with tracer.installed(targets):
        assert any(getattr(t.owner, t.attr) is not original for t, (_, _, _, original)
                   in zip(targets, before))
    for owner, attr, owned, original in before:
        assert (attr in vars(owner)) == owned
        assert getattr(owner, attr) is original


def test_untraced_runs_install_no_wrapper(monkeypatch):
    def refuse(self, targets):
        raise AssertionError("an untraced run installed wrappers")

    monkeypatch.setattr(Tracer, "install", refuse)
    report = bench.run_workload("flowsim", seed=2, seconds=0.5, trace=False, tiny=True)
    assert report.check.failed == 0
    assert not report.layers and not report.layer_times


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_tiny_run_prints_every_named_metric(workload):
    definition = bench.load_definition()
    report = bench.run_workload(workload, seed=3, seconds=1.0, trace=True, tiny=True)
    assert report.check.attempted > 0
    assert report.check.failed == 0, report.check.problems
    for trace in (False, True):
        output = io.StringIO()
        with redirect_stdout(output):
            bench.print_report(report, 3, 1.0, trace)
            print(bench.result_line(report.check, bench.result_metrics(report, definition, trace)))
        text = output.getvalue()
        line = json.loads(text.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True
        table = definition["per_layer" if trace else "end_to_end"]
        assert list(line["metrics"]) == [entry["name"] for entry in table]
        for entry in table:
            assert line["metrics"][entry["name"]]["unit"] == entry["unit"]
        for entry in definition["end_to_end"]:
            assert report.metrics[entry["name"]]["value"] > 0
        for name, entry in report.headline.items():
            assert f"{name}" in text and entry["unit"] in text
    assert {"setup_s", "error_ratio", "peak_rss_mb"} <= set(report.headline)
    assert report.layers["unattributed_share"]["unit"] == "ratio"
    assert "trace_overhead" in report.layers


def _session_members(session: int):
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == session:
            members.append(int(entry))
    return members


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_predict_http_leaves_no_process():
    code = ("from perfbench import run; run.ensure_repro_importable(); "
            "run.run_workload('predict-http', seed=1, seconds=0.5, trace=False, tiny=True)")
    child = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, start_new_session=True,
                             stdout=subprocess.DEVNULL)
    assert child.wait(timeout=120) == 0
    assert _session_members(child.pid) == []


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flowsim", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
