"""Tests for the command-line interface."""

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_unknown_command_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["frobnicate"])

    def test_sweep_defaults(self):
        arguments = build_parser().parse_args(["sweep"])
        assert arguments.formula == "pftk-simplified"
        assert arguments.windows == [2, 8]


class TestCommands:
    def test_sweep_prints_table(self, capsys):
        exit_code = main([
            "sweep", "--loss-rates", "0.1", "--windows", "4",
            "--events", "2000", "--seed", "3",
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "x_bar/f(p)" in captured.out
        assert "0.1" in captured.out

    def test_claim3_ordering_in_output(self, capsys):
        exit_code = main(["claim3", "--windows", "2", "8"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Poisson" in captured.out

    def test_claim4_ratio(self, capsys):
        exit_code = main(["claim4", "--beta", "0.5"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "1.7778" in captured.out

    def test_audio_command(self, capsys):
        exit_code = main([
            "audio", "--loss-probability", "0.2", "--duration", "60",
            "--formula", "sqrt", "--seed", "2",
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Bernoulli" in captured.out

    def test_dumbbell_command(self, capsys):
        exit_code = main([
            "dumbbell", "--connections", "1", "--duration", "40", "--seed", "5",
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "p'/p" in captured.out

    def test_sweep_rejects_unknown_formula(self):
        with pytest.raises(KeyError):
            main(["sweep", "--formula", "cubic", "--events", "2000"])


#: An 8-row, 1M-event batch: its compute (~0.4 s on one worker) is
#: still running when SIGTERM arrives.
SLOW_BATCH = {
    "formulas": ["sqrt", "pftk-simplified"],
    "history_lengths": [2, 8],
    "loss_event_rates": [0.05, 0.2],
    "coefficients_of_variation": [0.999],
    "num_events": 1_000_000,
    "seed": 9,
    "share_noise": False,
}


def _get_json(host, port, path):
    client = http.client.HTTPConnection(host, port, timeout=10)
    try:
        client.request("GET", path, headers={"Connection": "close"})
        return json.loads(client.getresponse().read())
    finally:
        client.close()


def _serve_until_sigterm(hold_connection=False, batch=None):
    """Start `repro.cli serve`, send it SIGTERM, and return its exit code,
    its output and the batch response (or None).

    With ``hold_connection`` a keep-alive client has had one ``GET
    /healthz`` answered and keeps its connection open meanwhile.  With
    ``batch`` that body is posted to ``/predict/batch`` from another
    thread, and SIGTERM is sent once its compute has started; the
    response is ``(status, Connection header, JSON body)``.
    """
    source_root = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [source_root, os.environ.get("PYTHONPATH")])
    ))
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--workers", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env,
    )
    client = None
    poster = None
    responses = []
    try:
        banner = process.stdout.readline()
        assert "listening on http://" in banner
        host, port = banner.split("http://")[1].strip().rsplit(":", 1)
        port = int(port)
        if hold_connection:
            client = http.client.HTTPConnection(host, port, timeout=10)
            client.request("GET", "/healthz")
            response = client.getresponse()
            assert response.status == 200
            response.read()
        if batch is not None:
            def post():
                connection = http.client.HTTPConnection(host, port, timeout=30)
                try:
                    connection.request(
                        "POST", "/predict/batch", body=json.dumps(batch)
                    )
                    response = connection.getresponse()
                    responses.append((
                        response.status,
                        response.getheader("Connection"),
                        json.loads(response.read()),
                    ))
                finally:
                    connection.close()

            poster = threading.Thread(target=post)
            poster.start()
            deadline = time.monotonic() + 10
            while _get_json(host, port, "/stats")["computes"]["batch"] < 1:
                assert time.monotonic() < deadline, "the batch never started"
                time.sleep(0.01)
        process.send_signal(signal.SIGTERM)
        output, _ = process.communicate(timeout=30)
    finally:
        if client is not None:
            client.close()
        if process.poll() is None:
            process.kill()
            process.communicate()
        if poster is not None:
            poster.join(timeout=30)
            assert not poster.is_alive()
    response = responses[0] if responses else None
    return process.returncode, banner + output, response


class TestServeCommand:
    def test_sigterm_takes_the_ctrl_c_shutdown_path(self):
        # Process managers stop a service with SIGTERM: it must print
        # "shutting down", close the worker pool and exit 0, as Ctrl-C does.
        returncode, output, _ = _serve_until_sigterm()
        assert returncode == 0, output
        assert "shutting down" in output

    def test_sigterm_with_an_idle_keep_alive_connection_is_quiet(self):
        # The server closes the idle connection itself; a handler task
        # cancelled by asyncio.run's cleanup would log a traceback.
        returncode, output, _ = _serve_until_sigterm(hold_connection=True)
        assert returncode == 0, output
        assert "shutting down" in output
        assert "Traceback" not in output, output

    def test_sigterm_during_a_compute_answers_the_request(self):
        # The in-flight request gets its whole response, as the last on
        # its connection, before the server exits.
        returncode, output, response = _serve_until_sigterm(
            hold_connection=True, batch=SLOW_BATCH
        )
        assert returncode == 0, output
        assert "shutting down" in output
        assert "Traceback" not in output, output
        assert response is not None, output
        status, connection, body = response
        assert status == 200, body
        assert connection == "close"
        assert body["num_results"] == len(body["results"]) == 8


class TestExperimentsParser:
    def test_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiments"])

    def test_run_arguments(self):
        arguments = build_parser().parse_args([
            "experiments", "run", "smoke",
            "--workers", "4", "--store", "out.jsonl", "--force",
        ])
        assert arguments.preset == "smoke"
        assert arguments.workers == 4
        assert arguments.store == "out.jsonl"
        assert arguments.force is True
        assert arguments.spec is None

    def test_show_accepts_spec_file(self):
        arguments = build_parser().parse_args([
            "experiments", "show", "--spec", "campaign.json",
        ])
        assert arguments.spec == "campaign.json"
        assert arguments.preset is None


class TestExperimentsCommands:
    def test_list_includes_figure_presets(self, capsys):
        exit_code = main(["experiments", "list"])
        captured = capsys.readouterr()
        assert exit_code == 0
        for name in ("fig3-pftk", "fig5-ns2", "fig16-lab", "smoke"):
            assert name in captured.out

    def test_show_prints_spec_json(self, capsys):
        exit_code = main(["experiments", "show", "fig3-sqrt"])
        captured = capsys.readouterr()
        assert exit_code == 0
        payload = json.loads(captured.out)
        assert payload["runner"] == "montecarlo-basic"
        assert payload["grid"]["history_length"] == [1, 2, 4, 8, 16]

    def test_run_writes_to_the_store_path(self, capsys, tmp_path):
        store_path = tmp_path / "campaign" / "results.jsonl"
        exit_code = main([
            "experiments", "run", "smoke",
            "--store", str(store_path), "--quiet",
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "4 run, 0 cached, 0 failed" in captured.out
        assert store_path.exists()
        records = [json.loads(line) for line in store_path.read_text().splitlines()]
        assert len(records) == 4
        assert all(record["status"] == "ok" for record in records)

        with open(store_path, "a", encoding="utf-8") as handle:
            handle.write("not json\n")
        exit_code = main([
            "experiments", "run", "smoke",
            "--store", str(store_path), "--quiet",
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "0 run, 4 cached, 0 failed" in captured.out
        assert "store: 4 hits, 0 misses, 0 retries, 0 puts, 1 skipped" in captured.out

    def test_run_spec_file(self, capsys, tmp_path):
        from repro.experiments import preset

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(preset("smoke").to_json())
        exit_code = main(["experiments", "run", "--spec", str(spec_path), "--quiet"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Campaign 'smoke'" in captured.out

    def test_run_without_preset_or_spec_exits(self):
        with pytest.raises(SystemExit):
            main(["experiments", "run"])

    def test_run_reports_failures_and_exits_nonzero(self, capsys, tmp_path):
        from repro.experiments import ExperimentSpec

        spec = ExperimentSpec(
            name="half-broken",
            runner="montecarlo-basic",
            base={
                "formula": {"kind": "sqrt", "rtt": 1.0},
                "coefficient_of_variation": 0.9,
                "num_events": 200,
            },
            # The negative loss rate fails validation inside the runner;
            # the positive one succeeds.
            grid={"loss_event_rate": [0.1, -0.5]},
            seed=1,
        )
        spec_path = tmp_path / "broken.json"
        spec_path.write_text(spec.to_json())
        exit_code = main(["experiments", "run", "--spec", str(spec_path),
                          "--quiet"])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "summary: 1/2 points succeeded, 1 failed" in captured.out
        assert "FAILED points (1):" in captured.out
        assert "loss_event_rate=-0.5" in captured.out

    def test_run_success_prints_summary_line(self, capsys):
        exit_code = main(["experiments", "run", "smoke", "--quiet"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "summary: 4/4 points succeeded, 0 failed" in captured.out

    def test_dumbbell_batch_spec_file_ships(self):
        from pathlib import Path

        from repro.experiments import ExperimentSpec

        spec_path = (
            Path(__file__).resolve().parent.parent
            / "examples" / "specs" / "dumbbell_batch.json"
        )
        spec = ExperimentSpec.from_json(spec_path.read_text(encoding="utf-8"))
        assert spec.runner == "dumbbell-batch"
        assert spec.num_points() == 3


class TestSimulateCommand:
    def test_single_point(self, capsys):
        exit_code = main([
            "simulate", "--loss-rate", "0.1", "--cv", "0.9",
            "--window", "4", "--events", "500", "--seed", "3",
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "x_bar/f(p)" in captured.out
        assert "pftk-simplified" in captured.out

    def test_batch_grid(self, capsys):
        exit_code = main([
            "simulate", "--batch",
            "--formulas", "sqrt", "pftk-simplified",
            "--loss-rates", "0.05", "0.2", "--cvs", "0.9",
            "--windows", "2", "8", "--events", "500",
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Batch: 8 points" in captured.out
        assert "shared noise" in captured.out

    def test_loss_process_json(self, capsys):
        exit_code = main([
            "simulate", "--events", "300",
            "--loss-process",
            '{"kind": "gilbert", "good_to_bad": 0.05, "bad_to_good": 0.4}',
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "x_bar/f(p)" in captured.out

    def test_multiple_values_require_batch(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--loss-rates", "0.05", "0.2", "--events", "200"])

    def test_batch_analytic_method(self, capsys):
        exit_code = main([
            "simulate", "--batch", "--method", "analytic",
            "--loss-rates", "0.05", "0.2", "--cvs", "0.9",
            "--windows", "2", "8", "--events", "2000", "--seed", "3",
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Batch: 4 points" in captured.out
        assert "shared noise" in captured.out

    def test_batch_analytic_config_file(self, capsys, tmp_path):
        from pathlib import Path

        spec_path = (
            Path(__file__).resolve().parent.parent
            / "examples" / "specs" / "fig3_analytic_batch.json"
        )
        payload = json.loads(spec_path.read_text(encoding="utf-8"))
        assert payload["method"] == "analytic"
        payload["num_events"] = 2000  # keep the unit test fast
        config_path = tmp_path / "analytic_batch.json"
        config_path.write_text(json.dumps(payload))
        exit_code = main(["simulate", "--config", str(config_path)])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Batch: 45 points" in captured.out

    def test_config_file(self, capsys, tmp_path):
        config_path = tmp_path / "sim.json"
        config_path.write_text(json.dumps({
            "formula": {"kind": "sqrt", "rtt": 1.0},
            "loss_event_rate": 0.1,
            "coefficient_of_variation": 0.9,
            "history_length": 4,
            "num_events": 300,
            "seed": 2,
        }))
        exit_code = main(["simulate", "--config", str(config_path)])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "sqrt" in captured.out
