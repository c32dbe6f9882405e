"""Micro-benchmark guard for the simulation core.

Regenerates a 10k-transaction steady-state scenario and asserts the engine
beats a recorded pre-refactor floor, so hot-path regressions (the scheduler,
the network delivery path, leader-side vote computation, decision watchers)
fail loudly instead of silently rotting.

Floor provenance: this exact workload measures ~3,000-4,200 txns/sec and
~32,000-45,000 events/sec on the development container (2026-08 baseline;
see ``_helpers.py`` for the measured constants and the re-baselining rule).
The guard asserts half the worst measured baseline, which leaves headroom
for slower CI machines while still catching any return of a quadratic hot
path — the pre-refactor engine, at ~235 txns/sec, missed the current floor
by ~6x.  The floors are asserted by the ``wallclock`` tests (left out of
the default run; ``python -m pytest -m wallclock benchmarks/`` runs them);
the default run keeps each workload's correctness checks and its
measurement in the artifact.
"""

import time

import pytest

from repro.scenarios import ScenarioRunner, ScenarioSpec, WorkloadSpec

from _helpers import (
    BASELINE_STACK_TXNS_FLOOR,
    ENGINE_EVENTS_FLOOR,
    ENGINE_TXNS_FLOOR,
    write_bench_artifact,
)


TXNS = 10_000
BASELINE_STACK_TXNS = 5_000


def _spec(protocol: str = "message-passing", txns: int = TXNS, replicas: int = 2) -> ScenarioSpec:
    return ScenarioSpec(
        name="scheduler-guard-steady-state",
        protocol=protocol,
        num_shards=4,
        replicas_per_shard=replicas,
        seed=0,
        workload=WorkloadSpec(kind="uniform", txns=txns, batch=50, num_keys=2000),
        # This guard times the engine, not the checker (the online checker
        # has its own floor in test_bench_checker.py).  Contradiction
        # detection stays on.
        check_mode="off",
    )


def _engine_run():
    """The 10k-transaction steady state, checked; returns its rates."""
    runner = ScenarioRunner(_spec())
    start = time.perf_counter()
    result = runner.run()
    wall = time.perf_counter() - start
    assert result.passed
    assert result.txns_submitted == TXNS
    txns_per_sec = TXNS / wall
    events_per_sec = result.events_fired / wall
    print(
        f"\nscheduler guard: {TXNS} txns in {wall:.2f}s -> "
        f"{txns_per_sec:,.0f} txns/sec, {events_per_sec:,.0f} events/sec "
        f"(floor: {ENGINE_TXNS_FLOOR:,.0f} / {ENGINE_EVENTS_FLOOR:,.0f})"
    )
    write_bench_artifact(
        "scheduler",
        {
            "txns": TXNS,
            "wall_seconds": wall,
            "txns_per_sec": txns_per_sec,
            "events_per_sec": events_per_sec,
            "floor_txns_per_sec": ENGINE_TXNS_FLOOR,
            "floor_events_per_sec": ENGINE_EVENTS_FLOOR,
        },
    )
    return txns_per_sec, events_per_sec


def _baseline_stack_run():
    """The same steady state on 2PC over Paxos (2f+1 replicas), checked;
    returns its rate."""
    runner = ScenarioRunner(_spec("2pc-paxos", BASELINE_STACK_TXNS, replicas=3))
    start = time.perf_counter()
    result = runner.run()
    wall = time.perf_counter() - start
    assert result.passed
    assert result.txns_submitted == BASELINE_STACK_TXNS
    txns_per_sec = BASELINE_STACK_TXNS / wall
    print(
        f"\nbaseline-stack guard: {BASELINE_STACK_TXNS} txns in {wall:.2f}s -> "
        f"{txns_per_sec:,.0f} txns/sec (floor: {BASELINE_STACK_TXNS_FLOOR:,.0f})"
    )
    write_bench_artifact(
        "baseline_stack",
        {
            "txns": BASELINE_STACK_TXNS,
            "wall_seconds": wall,
            "txns_per_sec": txns_per_sec,
            "floor_txns_per_sec": BASELINE_STACK_TXNS_FLOOR,
        },
    )
    return txns_per_sec


def test_scheduler_throughput_guard(benchmark):
    benchmark.pedantic(_engine_run, rounds=1, iterations=1)


@pytest.mark.wallclock
def test_scheduler_throughput_wallclock_guard(benchmark):
    txns_per_sec, events_per_sec = benchmark.pedantic(_engine_run, rounds=1, iterations=1)
    assert txns_per_sec >= ENGINE_TXNS_FLOOR
    assert events_per_sec >= ENGINE_EVENTS_FLOOR


def test_baseline_stack_throughput_guard(benchmark):
    """The stack with the most messages per commit, and the one whose
    certification was quadratic in the run length until the state machine
    got a vote index."""
    benchmark.pedantic(_baseline_stack_run, rounds=1, iterations=1)


@pytest.mark.wallclock
def test_baseline_stack_throughput_wallclock_guard(benchmark):
    txns_per_sec = benchmark.pedantic(_baseline_stack_run, rounds=1, iterations=1)
    assert txns_per_sec >= BASELINE_STACK_TXNS_FLOOR
