"""Perf guard for the non-unit latency models.

Random delay distributions defeat the ``send_many`` delivery batching that
the unit model enjoys (every fan-out destination draws its own delay, so
almost no deliveries share a scheduler event) and add one RNG draw per
message.  That overhead must stay bounded: the fully *validated*
(``check_mode="online"``) 10k-transaction steady state under the heaviest
stock model (lognormal) must clear the same validated-run floor the
checker guard uses (half the worst measured baseline; see ``_helpers.py``
for the constants and the re-baselining rule).

Floor provenance: on the development container this workload measures
~2,800-3,600 txns/sec under ``lognormal(mean=1,sigma=0.8)`` and a similar
rate for the 3-region WAN topology model — within ~15% of the unit-latency
validated run (see test_bench_checker.py), i.e. the models themselves are
cheap.  The guard also runs the WAN pack's flagship scenario at 10k
transactions with online validation, which is the acceptance bar for the
geo-distributed pack.  The floor is asserted by the ``wallclock`` tests
(left out of the default run); the default run keeps both runs'
correctness checks.
"""

import time
from dataclasses import replace

import pytest

from repro.scenarios import (
    LatencySpec,
    ScenarioRunner,
    ScenarioSpec,
    WorkloadSpec,
    get_scenario,
)

from _helpers import CHECKED_TXNS_FLOOR

TXNS = 10_000


def _lognormal_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="latency-guard-lognormal",
        protocol="message-passing",
        num_shards=4,
        seed=0,
        latency=LatencySpec(model="lognormal", mean=1.0, sigma=0.8),
        workload=WorkloadSpec(kind="uniform", txns=TXNS, batch=50, num_keys=2000),
        check_mode="online",
    )


def _lognormal_run():
    """The validated steady state under the lognormal model; returns its rate."""
    start = time.perf_counter()
    result = ScenarioRunner(_lognormal_spec()).run()
    wall = time.perf_counter() - start
    assert result.passed
    assert result.txns_submitted == TXNS
    assert result.undecided == 0
    assert result.latency_model == "lognormal(mean=1,sigma=0.8)"
    txns_per_sec = TXNS / wall
    print(
        f"\nlognormal latency guard: {TXNS} txns validated in {wall:.2f}s -> "
        f"{txns_per_sec:,.0f} txns/sec "
        f"(floor: {CHECKED_TXNS_FLOOR:,.0f})"
    )
    return txns_per_sec


def _wan_pack_run():
    """The 3-region WAN steady state at 10k transactions with the online
    checker attached; returns its rate."""
    spec = get_scenario("wan-steady-state")
    spec = spec.with_overrides(
        workload=replace(spec.workload, txns=TXNS, batch=50, num_keys=2000)
    )
    start = time.perf_counter()
    result = ScenarioRunner(spec).run()
    wall = time.perf_counter() - start
    assert result.passed
    assert result.check_mode == "online"
    assert result.txns_submitted == TXNS
    assert result.undecided == 0
    txns_per_sec = TXNS / wall
    print(
        f"\nWAN pack 10k-txn validated run: {wall:.2f}s -> "
        f"{txns_per_sec:,.0f} txns/sec, mean latency "
        f"{result.latency.mean:.1f} delays (3-region topology)"
    )
    return txns_per_sec


def test_lognormal_model_throughput_guard(benchmark):
    benchmark.pedantic(_lognormal_run, rounds=1, iterations=1)


@pytest.mark.wallclock
def test_lognormal_model_throughput_wallclock_guard(benchmark):
    txns_per_sec = benchmark.pedantic(_lognormal_run, rounds=1, iterations=1)
    assert txns_per_sec >= CHECKED_TXNS_FLOOR


def test_wan_pack_validated_at_10k_txns(benchmark):
    """The geo-distributed pack's acceptance bar: the 3-region WAN
    steady-state runs 10k transactions with the online checker attached,
    decides everything and stays safe."""
    benchmark.pedantic(_wan_pack_run, rounds=1, iterations=1)


@pytest.mark.wallclock
def test_wan_pack_validated_at_10k_txns_wallclock_guard(benchmark):
    txns_per_sec = benchmark.pedantic(_wan_pack_run, rounds=1, iterations=1)
    assert txns_per_sec >= CHECKED_TXNS_FLOOR
