"""Perf guard for the online TCS checker (``check_mode="online"``).

Before the incremental checker, full history validation was O(txns^2)
(all-pairs conflict edges plus an all-pairs real-time sweep) — on this
10k-transaction steady state the batch construction alone takes minutes,
which is why large scenarios used to opt out of validation entirely; it now
survives only as the test oracle in ``tests/helpers.py``, and every shipped
verdict (``online``, ``final``, ``Cluster.check()``) comes from the online
checker.  It maintains the same linearization graph incrementally
(per-object conflict indexes, a decided-frontier chain for real-time edges,
Pearce–Kelly cycle detection), so the fully *validated* run must stay within
a modest factor of the unvalidated engine floor guarded by
``test_bench_scheduler.py``.

Floor provenance: on the development container this workload measures
~2,600-3,200 txns/sec with ``check_mode="online"`` (validation overhead
~20% over the unvalidated engine; 2026-08 baseline, see ``_helpers.py``
for the measured constants and the re-baselining rule).  The guard asserts
half the worst measured baseline, which keeps headroom for slow CI
machines while failing loudly if checker updates ever reintroduce a
quadratic path.  The floor is asserted by the ``wallclock`` test (left out
of the default run); the default run keeps the checker's correctness
checks and the measurement in the artifact.
"""

import time

import pytest

from repro.scenarios import ScenarioRunner, ScenarioSpec, WorkloadSpec

from _helpers import CHECKED_TXNS_FLOOR, write_bench_artifact


TXNS = 10_000


def _spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="checker-guard-steady-state",
        protocol="message-passing",
        num_shards=4,
        seed=0,
        workload=WorkloadSpec(kind="uniform", txns=TXNS, batch=50, num_keys=2000),
        check_mode="online",
    )


def _checked_run():
    """The validated 10k-transaction steady state; returns its rate."""
    runner = ScenarioRunner(_spec())
    start = time.perf_counter()
    result = runner.run()
    wall = time.perf_counter() - start
    assert result.passed
    assert result.check_mode == "online"
    assert result.txns_submitted == TXNS
    # The checker actually ran: it processed every certify and decide, and
    # every commit was either retired or is in the witness of the suffix it
    # still holds — the in-flight tail, not the run.
    stats = runner.checker.stats
    assert stats["events_processed"] == 2 * TXNS
    assert stats["txns_pruned"] + len(runner.checker.linearization()) == result.committed
    assert stats["nodes"] <= 1000
    txns_per_sec = TXNS / wall
    print(
        f"\nonline checker guard: {TXNS} txns validated in {wall:.2f}s -> "
        f"{txns_per_sec:,.0f} txns/sec "
        f"({stats['nodes']:,} graph nodes, {stats['edges']:,} edges; "
        f"floor: {CHECKED_TXNS_FLOOR:,.0f})"
    )
    write_bench_artifact(
        "checker",
        {
            "txns": TXNS,
            "wall_seconds": wall,
            "txns_per_sec": txns_per_sec,
            "graph_nodes": stats["nodes"],
            "graph_edges": stats["edges"],
            "floor_txns_per_sec": CHECKED_TXNS_FLOOR,
        },
    )
    return txns_per_sec


def test_online_checker_throughput_guard(benchmark):
    benchmark.pedantic(_checked_run, rounds=1, iterations=1)


@pytest.mark.wallclock
def test_online_checker_throughput_wallclock_guard(benchmark):
    txns_per_sec = benchmark.pedantic(_checked_run, rounds=1, iterations=1)
    assert txns_per_sec >= CHECKED_TXNS_FLOOR
