"""The decision rule of ``benchmarks/perfbench_gate.py``, on synthetic runs.

Each case builds perfbench result lines by hand and feeds them through
the driver's parser and judge; no perfbench run is started.
"""

import json

from perfbench_gate import format_row, judge, parse_result

END_TO_END = [
    {"name": "light_op_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "bulk_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]
BASE = {"light_op_ms": 10.0, "bulk_per_s": 1000.0, "peak_rss_mb": 100.0}


def _run(scale=None, correct=True, attempted=100, failed=0, drop=None):
    """One run's stdout: the environment line, a report line, the result."""
    metrics = {}
    for entry in END_TO_END:
        if entry["name"] != drop:
            value = BASE[entry["name"]] * (scale or {}).get(entry["name"], 1.0)
            metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    line = json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})
    stdout = f'environment: {{"nproc": 2}}\ntotal wall 30.0 s\n{line}\n'
    result, environment = parse_result(stdout)
    assert environment == {"nproc": 2}
    return result


def _spread(metric, factors):
    return [_run({metric: factor}) for factor in factors]


def _verdict(rows, metric):
    (row,) = [row for row in rows if row["name"] == f"w/{metric}"]
    return row


def test_lower_is_better_regression_with_separated_runs_fails():
    rows, failures = judge("w", END_TO_END, _spread("light_op_ms", [0.98, 1.0, 1.02]),
                           _spread("light_op_ms", [1.28, 1.3, 1.32]))
    assert _verdict(rows, "light_op_ms")["verdict"] == "FAIL"
    assert len(failures) == 1 and "w/light_op_ms" in failures[0]


def test_regression_with_overlapping_runs_is_unresolved_and_passes():
    rows, failures = judge("w", END_TO_END, _spread("light_op_ms", [0.9, 1.0, 1.5]),
                           _spread("light_op_ms", [1.2, 1.3, 1.4]))
    row = _verdict(rows, "light_op_ms")
    assert row["change"] > row["bound"]
    assert row["verdict"] == "unresolved"
    assert "unresolved" in format_row(row)
    assert failures == []


def test_move_inside_the_bound_passes():
    rows, failures = judge("w", END_TO_END, _spread("light_op_ms", [0.98, 1.0, 1.02]),
                           _spread("light_op_ms", [1.18, 1.2, 1.22]))
    assert _verdict(rows, "light_op_ms")["verdict"] == "ok"
    assert failures == []


def test_higher_is_better_drop_with_separated_runs_fails():
    rows, failures = judge("w", END_TO_END, _spread("bulk_per_s", [0.98, 1.0, 1.02]),
                           _spread("bulk_per_s", [0.68, 0.7, 0.72]))
    assert _verdict(rows, "bulk_per_s")["verdict"] == "FAIL"
    assert len(failures) == 1 and "w/bulk_per_s" in failures[0]
    # A rise of the same size is not a regression.
    rows, failures = judge("w", END_TO_END, _spread("bulk_per_s", [0.98, 1.0, 1.02]),
                           _spread("bulk_per_s", [1.28, 1.3, 1.32]))
    assert _verdict(rows, "bulk_per_s")["verdict"] == "ok" and failures == []


def test_peak_rss_has_the_tighter_bound():
    rows, failures = judge("w", END_TO_END, _spread("peak_rss_mb", [0.995, 1.0, 1.005]),
                           _spread("peak_rss_mb", [1.105, 1.11, 1.115]))
    assert _verdict(rows, "peak_rss_mb")["verdict"] == "FAIL"
    assert len(failures) == 1 and "w/peak_rss_mb" in failures[0]


def test_incorrect_or_missing_head_run_fails():
    base = [_run() for _ in range(3)]
    _, failures = judge("w", END_TO_END, base, [_run(), _run(correct=False), _run()])
    assert any("correct: false" in failure for failure in failures)
    _, failures = judge("w", END_TO_END, base, [_run(), None, _run()])
    assert any("printed no result" in failure for failure in failures)


def test_larger_failed_share_on_the_head_fails():
    base = [_run(attempted=100, failed=1) for _ in range(3)]
    _, failures = judge("w", END_TO_END, base, [_run(attempted=100, failed=1)] * 3)
    assert failures == []
    _, failures = judge("w", END_TO_END, base,
                        [_run(attempted=100, failed=1)] * 2 + [_run(attempted=100, failed=2)])
    assert any("failed share" in failure for failure in failures)


def test_metric_missing_from_a_head_run_fails():
    base = [_run() for _ in range(3)]
    _, failures = judge("w", END_TO_END, base, [_run(), _run(drop="bulk_per_s"), _run()])
    assert failures == ["w/bulk_per_s: missing from a head run"]
