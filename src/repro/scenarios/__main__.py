"""Command-line entry point: run scenarios without writing code.

Usage::

    python -m repro.scenarios list
    python -m repro.scenarios run steady-state [--seed 7] [--txns 40] [--json]
    python -m repro.scenarios run steady-state bank-transfers
    python -m repro.scenarios sweep steady-state --protocols message-passing,rdma
    python -m repro.scenarios sweep steady-state --latency default
    python -m repro.scenarios sweep steady-state \
        --latency unit --latency lognormal:mean=2,sigma=0.8
    python -m repro.scenarios sweep steady-state --batch default
    python -m repro.scenarios sweep steady-state \
        --batch off --batch 8 --batch 32 --batch 16:linger=2
    python -m repro.scenarios sweep read-heavy-steady-state \
        --read-ratio 0 --read-ratio 0.5 --read-ratio 0.9
    python -m repro.scenarios sweep detector-leader-crash --detector default
    python -m repro.scenarios sweep bandwidth-knee --bandwidth default
    python -m repro.scenarios steady-state          # shorthand for `run`

``sweep`` without a grid flag compares protocols under the scenario's own
latency and batching models (the classic protocol sweep); with
``--latency`` it runs each listed protocol across the latency grid and
prints one latency-vs-throughput curve per protocol (``--latency default``
expands to the stock four-point grid); with ``--batch`` it sweeps the
protocol-level batching policy instead and prints one
batch-size-vs-throughput/latency curve per protocol (``--batch default``
expands to off/4/8/16/32); with ``--read-ratio`` it sweeps the workload's
read mix and prints throughput plus snapshot-read fast-path hit counts per
point (``--read-ratio default`` expands to 0/0.25/0.5/0.75/0.9); with
``--detector`` it sweeps the failure-detector policy (heartbeat interval x
suspicion threshold) and prints suspicion/false-positive counts plus the
mean time-to-recovery per point (``--detector default`` expands to the
stock off/1x3/2x3/2x6/4x3 grid); with ``--bandwidth`` it sweeps the link
model (bytes per delay, optional per-message overhead and commit-path
toggles) and prints throughput, latency, bytes on the wire and FIFO queue
stats per point (``--bandwidth default`` expands to off/8000/2000/500).
The grid flags are mutually exclusive and generated, one per axis, from
:data:`repro.scenarios.sweep.AXES`.

Every run executes serially, in one process, in the order given: the
scenarios listed on ``run``, then the protocols and grid points of a
``sweep``.  To spread independent runs over cores, start one process per
run from the shell (README, "One run, one heap").
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import List, Optional

from repro.scenarios.library import SCENARIOS, get_scenario, scenario_names
from repro.scenarios.runner import ScenarioRunner
from repro.scenarios.spec import CHECK_MODES, ScenarioError, ScenarioSpec
from repro.scenarios.sweep import AXES, parse_batch, parse_latency, run_axis_sweep, run_sweep


def _apply_overrides(spec: ScenarioSpec, args: argparse.Namespace) -> ScenarioSpec:
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if getattr(args, "protocol", None):
        overrides["protocol"] = args.protocol
    if args.shards is not None:
        overrides["num_shards"] = args.shards
    if args.check_mode is not None:
        overrides["check_mode"] = args.check_mode
    if getattr(args, "latency_override", None):
        overrides["latency"] = parse_latency(args.latency_override)
    if getattr(args, "batch_override", None):
        overrides["batch"] = parse_batch(args.batch_override)
    workload_overrides = {}
    if args.txns is not None:
        workload_overrides["txns"] = args.txns
    if args.think_time is not None:
        workload_overrides["think_time"] = args.think_time
        if args.think_time == 0:
            workload_overrides["sessions"] = 0  # batch-driven: no session driver to size
    if workload_overrides:
        overrides["workload"] = replace(spec.workload, **workload_overrides)
    return spec.with_overrides(**overrides) if overrides else spec


def _cmd_list() -> int:
    width = max(len(name) for name in scenario_names())
    for name, spec in SCENARIOS.items():
        safety = "" if spec.expect_safe else "  [expected-unsafe]"
        print(f"{name.ljust(width)}  {spec.protocol:16s}  {spec.description}{safety}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    specs = [_apply_overrides(get_scenario(name), args) for name in args.names]
    results = [ScenarioRunner(spec).run() for spec in specs]
    if args.json:
        if len(results) == 1:
            print(json.dumps(results[0].as_dict(), indent=2))
        else:
            print(
                json.dumps(
                    {spec.name: result.as_dict() for spec, result in zip(specs, results)},
                    indent=2,
                )
            )
    else:
        for index, result in enumerate(results):
            if index:
                print()
            print(result.render())
    return 0 if all(result.passed for result in results) else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = _apply_overrides(get_scenario(args.name), args)
    protocols = tuple(p.strip() for p in args.protocols.split(",") if p.strip())
    if not protocols:
        raise ScenarioError("--protocols needs at least one protocol")
    requested = [
        (axis, points)
        for axis in AXES
        if (points := getattr(args, axis.name.replace("-", "_")))
    ]
    if len(requested) > 1:
        flags = [f"--{axis.name}" for axis in AXES]
        raise ScenarioError(
            f"{', '.join(flags[:-1])} and {flags[-1]} sweeps are mutually exclusive"
        )
    if requested:
        axis, points = requested[0]
        grid = axis.parse(points)
        outcomes = {
            protocol: run_axis_sweep(spec, axis, grid, protocol=protocol)
            for protocol in protocols
        }
    else:
        outcomes = run_sweep(spec, protocols)
    # A SweepResult per protocol, or (no grid flag) a ScenarioResult per
    # protocol: both offer as_dict / render / passed.
    if args.json:
        print(json.dumps({p: o.as_dict() for p, o in outcomes.items()}, indent=2))
    else:
        for outcome in outcomes.values():
            print(outcome.render())
            print()
    return 0 if all(outcome.passed for outcome in outcomes.values()) else 1


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="override the spec seed")
    parser.add_argument("--shards", type=int, default=None, help="override the shard count")
    parser.add_argument("--txns", type=int, default=None, help="override the transaction count")
    parser.add_argument(
        "--check-mode",
        choices=CHECK_MODES,
        default=None,
        help="override how the history is validated (off / online)",
    )
    parser.add_argument(
        "--think-time",
        type=float,
        default=None,
        help="closed-loop client think time in delays (0 = batch-driven)",
    )
    parser.add_argument("--json", action="store_true", help="emit the result as JSON")


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Shorthand: `python -m repro.scenarios <scenario>` means `run <scenario>`.
    if argv and argv[0] not in ("list", "run", "sweep", "-h", "--help"):
        argv.insert(0, "run")

    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios",
        description="Run named simulation scenarios of the TCS reproduction.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list the scenario library")

    run_parser = commands.add_parser("run", help="run one or more scenarios")
    run_parser.add_argument("names", nargs="+", choices=scenario_names(), metavar="name")
    run_parser.add_argument("--protocol", default=None, help="override the protocol")
    run_parser.add_argument(
        "--latency",
        dest="latency_override",
        default=None,
        metavar="MODEL[:k=v,...]",
        help="override the latency model (e.g. lognormal:mean=2,sigma=0.8)",
    )
    run_parser.add_argument(
        "--batch",
        dest="batch_override",
        default=None,
        metavar="SIZE[:k=v,...]",
        help="override the batching policy (e.g. 32, 16:linger=2, off)",
    )
    _add_common(run_parser)

    sweep_parser = commands.add_parser(
        "sweep", help="run one scenario under several protocols and/or latency models"
    )
    sweep_parser.add_argument("name", choices=scenario_names())
    sweep_parser.add_argument(
        "--protocols",
        default="message-passing,rdma",
        help="comma-separated protocol list (default: message-passing,rdma)",
    )
    for axis in AXES:
        sweep_parser.add_argument(
            f"--{axis.name}",
            action="append",
            default=[],
            metavar=axis.metavar,
            help=axis.help,
        )
    _add_common(sweep_parser)

    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_sweep(args)
    except ScenarioError as error:
        parser.exit(2, f"error: {error}\n")


if __name__ == "__main__":
    try:
        # Die quietly when the output is piped into `head` and the pipe
        # closes early, instead of dumping a BrokenPipeError traceback.
        import signal

        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    except (ImportError, AttributeError, ValueError):  # pragma: no cover
        pass  # no SIGPIPE on this platform
    raise SystemExit(main())
