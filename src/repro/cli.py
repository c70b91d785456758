"""Command-line interface for the reproduction experiments.

Exposes the main experiments as sub-commands so that the figures can be
regenerated without writing Python::

    python -m repro.cli sweep --formula pftk-simplified --loss-rates 0.05 0.2 0.4
    python -m repro.cli dumbbell --connections 2 --duration 120
    python -m repro.cli claim3
    python -m repro.cli claim4 --beta 0.5
    python -m repro.cli audio --loss-probability 0.2
    python -m repro.cli shortflow --loss-rate 0.02 --sizes 10 100 1000

Single evaluation points -- and vectorised grids -- go through the
``repro.api`` facade::

    python -m repro.cli simulate --formula pftk-simplified --loss-rate 0.1 --cv 0.9
    python -m repro.cli simulate --loss-process '{"kind": "gilbert",
        "good_to_bad": 0.05, "bad_to_good": 0.4}'
    python -m repro.cli simulate --batch --loss-rates 0.01 0.1 0.4 \
        --windows 1 4 16 --formulas sqrt pftk-simplified
    python -m repro.cli simulate --batch --method analytic \
        --loss-rates 0.01 0.1 0.4 --windows 1 4 16

Whole campaigns (grids of scenarios run in parallel with a persistent
result store) go through the ``experiments`` sub-command::

    python -m repro.cli experiments list
    python -m repro.cli experiments show fig3-pftk
    python -m repro.cli experiments run fig3-pftk --workers 4 --store results.jsonl
    python -m repro.cli experiments run --spec my_campaign.json
    python -m repro.cli experiments run flowsim-scale   # 10k-flow flow-level run

``experiments run`` prints the campaign's store counts from the
always-on :mod:`repro.telemetry` counters; ``--telemetry`` also records
spans and prints the whole counter snapshot after the summary.

The long-running throughput-prediction service (``repro.service``: JSON
over HTTP, memoising cache tier, single-flight coalescing) is started
with the ``serve`` sub-command::

    python -m repro.cli serve --port 8753 --store predictions.jsonl

Each sub-command prints a small table to standard output; the benchmark
harness under ``benchmarks/`` remains the canonical way to regenerate every
figure with its shape checks.  Speed is measured from outside the package
by perfbench (``python3 perfbench/run.py``), and
``benchmarks/perfbench_gate.py`` compares two trees with it.
"""

from __future__ import annotations

import argparse
import json
from typing import List, Optional, Sequence

from . import api, telemetry
from .analysis import CongestionModel, claim3_loss_event_rates, claim4_prediction
from .core import SqrtFormula
from .experiments import (
    ExperimentRunner,
    ExperimentSpec,
    preset,
    preset_names,
)
from .experiments.registry import (
    FIGURE3_CV,
    run_audio_scenario,
    run_dumbbell_scenario,
)

__all__ = ["build_parser", "main"]


def _print_rows(header: Sequence[str], rows: Sequence[Sequence]) -> None:
    widths = [max(len(str(h)), 12) for h in header]
    print("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        cells = []
        for value, width in zip(row, widths):
            if isinstance(value, float):
                cells.append(f"{value:.4f}".ljust(width))
            else:
                cells.append(str(value).ljust(width))
        print("  ".join(cells))


def _command_sweep(arguments: argparse.Namespace) -> int:
    formula = api.FORMULAS.from_config(
        {"kind": arguments.formula, "rtt": arguments.rtt}
    )
    spec = ExperimentSpec(
        name="sweep",
        runner="montecarlo-basic",
        base={
            "formula": api.FORMULAS.to_config(formula),
            "coefficient_of_variation": FIGURE3_CV,
            "num_events": arguments.events,
        },
        grid={
            "history_length": arguments.windows,
            "loss_event_rate": arguments.loss_rates,
        },
        seed=arguments.seed,
    )
    campaign = ExperimentRunner().run(spec)
    campaign.raise_errors()
    columns = ("history_length", "loss_event_rate", "normalized_throughput")
    rows = [[result.value[name] for name in columns] for result in campaign.results]
    print(f"Basic control, formula={arguments.formula}: normalized throughput")
    _print_rows(["L", "p", "x_bar/f(p)"], rows)
    return 0


def _command_dumbbell(arguments: argparse.Namespace) -> int:
    scenario = api.Ns2Scenario(
        num_connections=arguments.connections,
        duration=arguments.duration,
        history_length=arguments.window,
    )
    value = run_dumbbell_scenario(
        {"scenario": api.SCENARIOS.to_config(scenario)}, arguments.seed
    )
    columns = ("tfrc_loss_event_rate", "conservativeness_ratio", "loss_rate_ratio",
               "rtt_ratio", "tcp_obedience_ratio", "throughput_ratio")
    rows = [[pair[name] for name in columns] for pair in value["pairs"]]
    connections = scenario.num_connections
    print(
        f"Dumbbell: {connections} TFRC + {connections} TCP over RED, "
        f"{scenario.capacity_mbps} Mb/s, duration {scenario.duration:.0f} s"
    )
    _print_rows(
        ["p (TFRC)", "x/f(p,r)", "p'/p", "r'/r", "x'/f(p',r')", "x/x'"], rows
    )
    print(f"scenario p'(TCP)/p(TFRC) = {value['loss_rate_ratio']:.3f}, "
          f"x(TFRC)/x'(TCP) = {value['throughput_ratio']:.3f}")
    return 0


def _command_claim3(arguments: argparse.Namespace) -> int:
    model = CongestionModel.two_state(
        good_loss_rate=arguments.good_loss,
        bad_loss_rate=arguments.bad_loss,
        bad_probability=arguments.bad_probability,
    )
    formula = SqrtFormula(rtt=1.0)
    rows = []
    for window in arguments.windows:
        result = claim3_loss_event_rates(model, formula, history_length=window)
        rows.append(
            [window, result.tcp_loss_rate, result.equation_based_loss_rate,
             result.poisson_loss_rate]
        )
    print("Claim 3 (many-sources limit): loss-event rates by responsiveness")
    _print_rows(["L", "p' (TCP)", "p (EBRC)", "p'' (Poisson)"], rows)
    return 0


def _command_claim4(arguments: argparse.Namespace) -> int:
    prediction = claim4_prediction(
        alpha=arguments.alpha, beta=arguments.beta, capacity=arguments.capacity
    )
    print("Claim 4 (few flows, fixed-capacity link)")
    _print_rows(
        ["p' (AIMD)", "p (EBRC)", "p'/p"],
        [[prediction.aimd_loss_rate, prediction.equation_based_loss_rate,
          prediction.ratio]],
    )
    return 0


def _command_audio(arguments: argparse.Namespace) -> int:
    value = run_audio_scenario(
        {
            "formula": {"kind": arguments.formula, "rtt": 1.0},
            "loss_probability": arguments.loss_probability,
            "history_length": arguments.window,
            "packet_period": arguments.packet_period,
            "duration": arguments.duration,
        },
        arguments.seed,
    )
    print("Audio source through a Bernoulli dropper (Claim 2 / Figure 6)")
    _print_rows(
        ["formula", "p", "x_bar/f(p)"],
        [[arguments.formula, arguments.loss_probability,
          value["normalized_throughput"]]],
    )
    return 0


def _command_simulate(arguments: argparse.Namespace) -> int:
    if arguments.config:
        with open(arguments.config, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        if arguments.batch or "formulas" in payload:
            batch = api.simulate_batch(api.BatchConfig.from_dict(payload))
            _print_batch(batch)
            return 0
        result = api.simulate(api.SimConfig.from_dict(payload))
        _print_sim_results([result])
        return 0

    loss_process = (
        json.loads(arguments.loss_process) if arguments.loss_process else None
    )
    if arguments.batch:
        batch = api.simulate_batch(
            api.BatchConfig(
                formulas=[
                    {"kind": kind, "rtt": arguments.rtt}
                    for kind in arguments.formulas
                ],
                loss_event_rates=(
                    None if loss_process else [float(p) for p in arguments.loss_rates]
                ),
                coefficients_of_variation=(
                    None if loss_process else [float(cv) for cv in arguments.cvs]
                ),
                loss_processes=[loss_process] if loss_process else None,
                history_lengths=arguments.windows,
                control=arguments.control,
                method=arguments.method,
                num_events=arguments.events,
                seed=arguments.seed,
                share_noise=not arguments.independent_noise,
            )
        )
        _print_batch(batch)
        return 0

    for option, values in (("--formulas", arguments.formulas),
                           ("--loss-rates", arguments.loss_rates),
                           ("--cvs", arguments.cvs),
                           ("--windows", arguments.windows)):
        if len(values) > 1:
            raise SystemExit(
                f"simulate: {option} got {len(values)} values; pass --batch "
                "to evaluate a grid"
            )
    result = api.simulate(
        api.SimConfig(
            formula={"kind": arguments.formulas[0], "rtt": arguments.rtt},
            loss_process=loss_process,
            loss_event_rate=None if loss_process else arguments.loss_rates[0],
            coefficient_of_variation=None if loss_process else arguments.cvs[0],
            history_length=arguments.windows[0],
            control=arguments.control,
            method=arguments.method,
            num_events=arguments.events,
            seed=arguments.seed,
        )
    )
    _print_sim_results([result])
    return 0


def _print_batch(batch: api.BatchResult) -> None:
    print(
        f"Batch: {len(batch)} points, control={batch.config.control}, "
        f"{batch.config.num_events} events/point, "
        f"{'shared' if batch.config.uses_shared_noise else 'independent'} noise"
    )
    _print_sim_results(batch.results)


def _print_sim_results(results: Sequence[api.SimResult]) -> None:
    rows = []
    for result in results:
        formula_kind = (
            result.formula.get("kind")
            if isinstance(result.formula, dict)
            else type(result.formula).__name__
        )
        rows.append(
            [
                formula_kind,
                result.loss_event_rate,
                result.coefficient_of_variation
                if result.coefficient_of_variation is not None
                else "-",
                result.history_length,
                result.normalized_throughput,
                result.throughput,
            ]
        )
    _print_rows(["formula", "p", "cv", "L", "x_bar/f(p)", "x_bar"], rows)


def _command_shortflow(arguments: argparse.Namespace) -> int:
    if not 0.0 < arguments.crossover <= 1.0:
        raise SystemExit(
            f"shortflow: --crossover must be in (0, 1], got {arguments.crossover}"
        )
    spec = ExperimentSpec(
        name="shortflow",
        runner="shortflow",
        base={
            "latency_model": {
                "kind": arguments.model,
                "initial_window": arguments.initial_window,
            },
            "formula": {"kind": arguments.formula},
            "loss_event_rate": arguments.loss_rate,
            "rtt": arguments.rtt,
        },
        grid={"transfer_size": arguments.sizes},
    )
    campaign = ExperimentRunner().run(spec)
    campaign.raise_errors()
    columns = ("transfer_size", "latency", "transfer_rate",
               "steady_state_rate", "rate_ratio")
    rows = [[result.value[name] for name in columns] for result in campaign.results]
    print(
        f"Short-flow latency ({arguments.model} vs {arguments.formula}): "
        f"p={arguments.loss_rate}, rtt={arguments.rtt}s"
    )
    _print_rows(
        ["size (pkt)", "E[latency] s", "size/E[lat]", "f(p)", "ratio"], rows
    )
    crossover = next(
        (row[0] for row in rows if row[-1] >= arguments.crossover), None
    )
    if crossover is None:
        print(
            f"no swept size reaches {arguments.crossover:.0%} of steady state"
        )
    else:
        print(
            f"first size at >= {arguments.crossover:.0%} of steady state: "
            f"{crossover:g} packets"
        )
    return 0


def _command_serve(arguments: argparse.Namespace) -> int:
    import asyncio
    import signal

    from .service import PredictionService, ServiceConfig, serve_forever

    if arguments.telemetry:
        telemetry.enable(fresh=True)
    service = PredictionService(
        ServiceConfig(
            cache_capacity=arguments.cache_capacity,
            store_path=arguments.store,
            workers=arguments.workers,
        )
    )

    def ready(address) -> None:
        host, port = address
        print(f"repro prediction service listening on http://{host}:{port}", flush=True)
        print(
            f"  endpoints: POST /predict, POST /predict/batch, "
            f"GET /stats, GET /healthz", flush=True,
        )
        store_note = arguments.store or "(memory only)"
        print(
            f"  cache: {arguments.cache_capacity} entries LRU, "
            f"store {store_note}, {arguments.workers} workers", flush=True,
        )

    async def serve() -> None:
        # SIGTERM cancels the serve task, as asyncio.run does on Ctrl-C.
        asyncio.get_running_loop().add_signal_handler(
            signal.SIGTERM, asyncio.current_task().cancel
        )
        await serve_forever(
            service, host=arguments.host, port=arguments.port, ready=ready
        )

    try:
        asyncio.run(serve())
    except (KeyboardInterrupt, asyncio.CancelledError):
        print("shutting down")
    finally:
        service.close()
    return 0


def _load_spec(arguments: argparse.Namespace) -> ExperimentSpec:
    if getattr(arguments, "spec", None):
        with open(arguments.spec, "r", encoding="utf-8") as handle:
            return ExperimentSpec.from_json(handle.read())
    if getattr(arguments, "preset", None):
        return preset(arguments.preset)
    raise SystemExit("experiments: name a preset or pass --spec FILE")


def _command_experiments_list(arguments: argparse.Namespace) -> int:
    rows = []
    for name in preset_names():
        spec = preset(name)
        rows.append([name, spec.runner, spec.num_points(), spec.description])
    print("Available experiment presets")
    _print_rows(["preset", "runner", "points", "description"], rows)
    return 0


def _command_experiments_show(arguments: argparse.Namespace) -> int:
    spec = _load_spec(arguments)
    print(spec.to_json(indent=2))
    return 0


def _command_experiments_run(arguments: argparse.Namespace) -> int:
    spec = _load_spec(arguments)
    telemetry.reset()
    if arguments.telemetry:
        telemetry.enable()

    def progress(completed: int, total: int, result) -> None:
        if not arguments.quiet:
            print(
                f"[{completed}/{total}] point {result.point.index} "
                f"{result.point.axes} -> {result.status}"
            )

    runner = ExperimentRunner(
        workers=arguments.workers, store=arguments.store, progress=progress
    )
    campaign = runner.run(spec, force=arguments.force)

    rows = []
    for result in campaign.results:
        summary = ""
        if result.value:
            scalars = [
                f"{name}={value:.4f}"
                for name, value in result.value.items()
                if isinstance(value, float)
            ]
            summary = " ".join(scalars[:3])
        elif result.error:
            summary = result.error
        axes = " ".join(f"{axis}={value}" for axis, value in result.point.axes.items())
        rows.append([result.point.index, axes, result.status, summary])
    print(
        f"Campaign {spec.name!r} ({spec.runner}): {campaign.num_executed} run, "
        f"{campaign.num_cached} cached, {campaign.num_failed} failed"
        + (f"; store: {arguments.store}" if arguments.store else "")
    )
    _print_rows(["point", "axes", "status", "result"], rows)
    succeeded = campaign.num_executed + campaign.num_cached
    print(
        f"summary: {succeeded}/{campaign.num_points} points succeeded, "
        f"{campaign.num_failed} failed "
        f"({campaign.num_executed} fresh, {campaign.num_cached} cached)"
    )
    if runner.store is not None:
        counter = telemetry.get_registry().counter
        print(
            f"store: {int(counter('store.hit'))} hits, "
            f"{int(counter('store.miss'))} misses, "
            f"{int(counter('store.retry'))} retries, "
            f"{int(counter('store.put'))} puts, "
            f"{runner.store.skipped} skipped"
        )
    if arguments.telemetry:
        counters = telemetry.snapshot().get("counters", {})
        if counters:
            print("telemetry counters:")
            for name in sorted(counters):
                print(f"  {name} = {counters[name]:g}")
    if campaign.num_failed:
        print(f"FAILED points ({campaign.num_failed}):")
        for failure in campaign.failures():
            axes = " ".join(
                f"{axis}={value}" for axis, value in failure.point.axes.items()
            )
            print(f"  point {failure.point.index} [{axes}]: {failure.error}")
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser with all sub-commands."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Equation-based rate control reproduction"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    sweep = subparsers.add_parser("sweep", help="Figure 3-style sweep over p")
    sweep.add_argument("--formula", default="pftk-simplified")
    sweep.add_argument("--rtt", type=float, default=1.0)
    sweep.add_argument("--loss-rates", type=float, nargs="+",
                       default=[0.05, 0.2, 0.4])
    sweep.add_argument("--windows", type=int, nargs="+", default=[2, 8])
    sweep.add_argument("--events", type=int, default=20_000)
    sweep.add_argument("--seed", type=int, default=1)
    sweep.set_defaults(handler=_command_sweep)

    dumbbell = subparsers.add_parser("dumbbell",
                                     help="packet-level dumbbell breakdown")
    dumbbell.add_argument("--connections", type=int, default=2)
    dumbbell.add_argument("--duration", type=float, default=120.0)
    dumbbell.add_argument("--window", type=int, default=8)
    dumbbell.add_argument("--seed", type=int, default=1)
    dumbbell.set_defaults(handler=_command_dumbbell)

    claim3 = subparsers.add_parser("claim3", help="many-sources loss-rate ordering")
    claim3.add_argument("--good-loss", type=float, default=0.002)
    claim3.add_argument("--bad-loss", type=float, default=0.08)
    claim3.add_argument("--bad-probability", type=float, default=0.4)
    claim3.add_argument("--windows", type=int, nargs="+", default=[2, 4, 8, 16])
    claim3.set_defaults(handler=_command_claim3)

    claim4 = subparsers.add_parser("claim4", help="few-flows loss-rate ratio")
    claim4.add_argument("--alpha", type=float, default=1.0)
    claim4.add_argument("--beta", type=float, default=0.5)
    claim4.add_argument("--capacity", type=float, default=100.0)
    claim4.set_defaults(handler=_command_claim4)

    audio = subparsers.add_parser("audio", help="Claim 2 audio source experiment")
    audio.add_argument("--formula", default="pftk-simplified")
    audio.add_argument("--loss-probability", type=float, default=0.2)
    audio.add_argument("--window", type=int, default=4)
    audio.add_argument("--packet-period", type=float, default=0.002)
    audio.add_argument("--duration", type=float, default=200.0)
    audio.add_argument("--seed", type=int, default=1)
    audio.set_defaults(handler=_command_audio)

    simulate = subparsers.add_parser(
        "simulate", help="evaluate one point or a vectorised grid (repro.api)"
    )
    simulate.add_argument("--config", default=None,
                          help="SimConfig/BatchConfig JSON file")
    simulate.add_argument("--batch", action="store_true",
                          help="evaluate the full grid in vectorised passes")
    simulate.add_argument("--formulas", "--formula", nargs="+",
                          default=["pftk-simplified"], dest="formulas")
    simulate.add_argument("--loss-rates", "--loss-rate", type=float, nargs="+",
                          default=[0.1], dest="loss_rates")
    simulate.add_argument("--cvs", "--cv", type=float, nargs="+",
                          default=[0.9], dest="cvs")
    simulate.add_argument("--windows", "--window", type=int, nargs="+",
                          default=[8], dest="windows")
    simulate.add_argument("--loss-process", default=None,
                          help="loss-process config as inline JSON")
    simulate.add_argument("--control", choices=["basic", "comprehensive"],
                          default="basic")
    simulate.add_argument("--method", choices=["montecarlo", "analytic"],
                          default="montecarlo")
    simulate.add_argument("--rtt", type=float, default=1.0)
    simulate.add_argument("--events", type=int, default=20_000)
    simulate.add_argument("--seed", type=int, default=1)
    simulate.add_argument("--independent-noise", action="store_true",
                          help="per-point seeds instead of shared noise")
    simulate.set_defaults(handler=_command_simulate)

    experiments = subparsers.add_parser(
        "experiments", help="declarative experiment campaigns"
    )
    experiments_sub = experiments.add_subparsers(dest="experiments_command",
                                                 required=True)

    experiments_list = experiments_sub.add_parser(
        "list", help="list the named figure presets"
    )
    experiments_list.set_defaults(handler=_command_experiments_list)

    experiments_show = experiments_sub.add_parser(
        "show", help="print a campaign spec as JSON"
    )
    experiments_show.add_argument("preset", nargs="?", default=None,
                                  help="preset name (see 'experiments list')")
    experiments_show.add_argument("--spec", default=None,
                                  help="path to a spec JSON file")
    experiments_show.set_defaults(handler=_command_experiments_show)

    experiments_run = experiments_sub.add_parser(
        "run", help="expand a campaign and run its points"
    )
    experiments_run.add_argument("preset", nargs="?", default=None,
                                 help="preset name (see 'experiments list')")
    experiments_run.add_argument("--spec", default=None,
                                 help="path to a spec JSON file")
    experiments_run.add_argument("--workers", type=int, default=None,
                                 help="process count (default: serial); "
                                      "montecarlo and shortflow campaigns "
                                      "always run in-process")
    experiments_run.add_argument("--store", default=None,
                                 help="JSONL result store path (enables caching)")
    experiments_run.add_argument("--force", action="store_true",
                                 help="re-run points even when cached")
    experiments_run.add_argument("--quiet", action="store_true",
                                 help="suppress per-point progress lines")
    experiments_run.add_argument("--telemetry", action="store_true",
                                 help="record repro.telemetry spans for the "
                                      "campaign and print the counter "
                                      "snapshot (also: REPRO_TELEMETRY=1)")
    experiments_run.set_defaults(handler=_command_experiments_run)

    shortflow = subparsers.add_parser(
        "shortflow",
        help="short-flow expected transfer latency vs steady state "
             "(repro.api.LATENCY_MODELS)",
    )
    shortflow.add_argument("--model", default="csa00",
                           help="latency-model kind (default: csa00)")
    shortflow.add_argument("--formula", default="pftk-standard",
                           help="steady-state comparison formula")
    shortflow.add_argument("--sizes", type=float, nargs="+",
                           default=[4.0, 16.0, 64.0, 256.0, 1024.0],
                           help="transfer sizes in packets")
    shortflow.add_argument("--loss-rate", type=float, default=0.02)
    shortflow.add_argument("--rtt", type=float, default=0.1)
    shortflow.add_argument("--initial-window", type=int, default=2)
    shortflow.add_argument("--crossover", type=float, default=0.5,
                           help="steady-state fraction for the crossover "
                                "size (default: 0.5)")
    shortflow.set_defaults(handler=_command_shortflow)

    serve = subparsers.add_parser(
        "serve",
        help="run the throughput-prediction service (repro.service)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8753)
    serve.add_argument("--store", default=None,
                       help="JSONL path for persistent prediction memoisation")
    serve.add_argument("--cache-capacity", type=int, default=4096,
                       help="in-memory LRU entries (default: 4096)")
    serve.add_argument("--workers", type=int, default=2,
                       help="kernel worker threads / max batch shards "
                            "(default: 2)")
    serve.add_argument("--telemetry", action="store_true",
                       help="record repro.telemetry spans; counters are "
                            "always on (also: REPRO_TELEMETRY=1)")
    serve.set_defaults(handler=_command_serve)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point: parse arguments and dispatch to the sub-command."""
    parser = build_parser()
    arguments = parser.parse_args(argv)
    return arguments.handler(arguments)


if __name__ == "__main__":  # pragma: no cover - exercised via the console
    raise SystemExit(main())
