"""Perf guards for the resilient client-session layer.

Two costs must stay bounded for sessions to be on by default in fault
scenarios:

* **Steady-state overhead** — arming and cancelling one retry timer per
  transaction is the only work sessions add on the failure-free path.  One
  test pins the strong property deterministically (identical event and
  message counts: cancelled timers never fire and the router reproduces the
  legacy coordinator rotation); a second, marked ``wallclock`` and so left
  out of the default run (``python -m pytest -m wallclock benchmarks/``
  runs it), bounds the wall-clock overhead.  Design target ≤ 10%; measured
  8-17% on the development container depending on machine load; the
  assertion allows ``SESSION_OVERHEAD_CEILING`` (2x the worst observed
  noise band, see ``_helpers.py``) so a noisy CI neighbour cannot flake a
  ratio of two ~1-second runs.

* **Time-to-first-decision after a coordinator crash** — a transaction
  whose request died with its coordinator must be re-decided within one
  session timeout plus the protocol's commit path, in virtual time.  This
  is exact (the simulation is deterministic), so the guard is tight.
"""

import time

import pytest

from repro.scenarios import (
    FaultStep,
    RetrySpec,
    ScenarioRunner,
    ScenarioSpec,
    WorkloadSpec,
)

from _helpers import SESSION_OVERHEAD_CEILING, write_bench_artifact


TXNS = 5_000


def _steady_spec(retry: RetrySpec) -> ScenarioSpec:
    return ScenarioSpec(
        name="failover-guard-steady-state",
        protocol="message-passing",
        num_shards=4,
        seed=0,
        workload=WorkloadSpec(kind="uniform", txns=TXNS, batch=50, num_keys=2000),
        check_mode="off",
        retry=retry,
    )


# The timeout is far above the commit path, so no retry ever fires: the
# session layer's cost is its pure bookkeeping.
ARMED = RetrySpec(timeout=500.0, backoff=2.0, max_attempts=2)


def test_retry_path_steady_state_overhead(benchmark):
    def run_pair():
        return [ScenarioRunner(_steady_spec(retry)).run() for retry in (RetrySpec(), ARMED)]

    off_result, on_result = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    # Sessions in steady state change *nothing* about the schedule: every
    # timer is cancelled before firing, and the router reproduces the
    # legacy coordinator rotation.
    assert on_result.retries == 0 and on_result.orphaned == 0
    assert on_result.events_fired == off_result.events_fired
    assert on_result.messages_sent == off_result.messages_sent
    assert on_result.committed == off_result.committed


@pytest.mark.wallclock
def test_retry_path_steady_state_wallclock_overhead(benchmark):
    def run_pair():
        walls = {}
        for label, retry in (("off", RetrySpec()), ("on", ARMED)):
            best = None
            for _ in range(3):
                start = time.perf_counter()
                ScenarioRunner(_steady_spec(retry)).run()
                wall = time.perf_counter() - start
                best = wall if best is None else min(best, wall)
            walls[label] = best
        return walls

    walls = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    off_wall, on_wall = walls["off"], walls["on"]
    overhead = on_wall / off_wall - 1.0
    print(
        f"\nfailover guard: steady state {TXNS} txns, sessions off {off_wall:.2f}s / "
        f"on {on_wall:.2f}s -> overhead {overhead * 100:.1f}% (target <= 10%)"
    )
    write_bench_artifact(
        "failover",
        {
            "txns": TXNS,
            "sessions_off_wall_seconds": off_wall,
            "sessions_on_wall_seconds": on_wall,
            "overhead_fraction": overhead,
            "ceiling_fraction": SESSION_OVERHEAD_CEILING,
        },
    )
    assert overhead <= SESSION_OVERHEAD_CEILING


def test_time_to_first_decision_after_coordinator_crash(benchmark):
    timeout = 30.0
    crash_at = 20.5
    spec = ScenarioSpec(
        name="failover-guard-crash",
        protocol="message-passing",
        num_shards=2,
        replicas_per_shard=3,
        seed=1,
        workload=WorkloadSpec(kind="uniform", txns=200, batch=8, num_keys=256),
        retry=RetrySpec(timeout=timeout, backoff=2.0, max_attempts=4),
        faults=(
            # A follower (coordinator for the other shard's transactions)
            # dies mid-run; its shard reconfigures past it.
            FaultStep(at=crash_at, action="crash-follower", shard="shard-0"),
            FaultStep(at=crash_at + 2.0, action="reconfigure", shard="shard-0"),
            FaultStep(at=crash_at + 80.0, action="retry-stalled"),
        ),
    )

    def run():
        runner = ScenarioRunner(spec)
        return runner, runner.run()

    runner, result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.passed
    assert result.undecided == 0 and result.orphaned == 0
    assert result.retries > 0  # the crash really orphaned in-flight requests

    # Every transaction interrupted by the crash is re-decided within one
    # session timeout plus the 5-delay commit path (plus the submit hop).
    # The client's submission and first-decision times are the certify and
    # decide events' times.
    client = runner.cluster.client
    worst_gap = 0.0
    for txn, decided_at in client.decide_times.items():
        if decided_at <= crash_at:
            continue
        if client.submit_times[txn] > crash_at:
            continue  # submitted after the crash: not an interrupted request
        worst_gap = max(worst_gap, decided_at - crash_at)
    print(
        f"\nfailover guard: worst decision gap after crash {worst_gap:.1f} delays "
        f"(session timeout {timeout:g})"
    )
    assert worst_gap <= timeout + 8.0
