"""Perf guard for process fan-out (``repro.runtime.parallel``).

A default-grid latency sweep run with ``jobs=4`` must (a) return results
byte-identical to the ``jobs=1`` run (asserted unconditionally, on every
machine) and (b) finish at least 2.5x faster on a machine with >= 4 cores.
The speedup assertion is skipped on smaller runners — a 1-core container
cannot exhibit it, and pool overhead would make the guard meaningless there
— but the measurement is always taken and written to ``BENCH_parallel.json``.
"""

import json
import os
import time

from repro.analysis.metrics import SpeedupReport
from repro.scenarios import LATENCY, ScenarioSpec, WorkloadSpec, run_axis_sweep

from _helpers import write_bench_artifact


JOBS = 4
MIN_SPEEDUP = 2.5
TXNS = 1_500


def _spec() -> ScenarioSpec:
    # Heavy enough per grid point that pool startup amortizes; the online
    # checker stays on so workers exercise the full validated pipeline.
    return ScenarioSpec(
        name="parallel-guard-sweep",
        protocol="message-passing",
        num_shards=4,
        seed=0,
        workload=WorkloadSpec(kind="uniform", txns=TXNS, batch=50, num_keys=2000),
        check_mode="online",
    )


def test_sweep_jobs_speedup_guard(benchmark):
    def run_pair():
        start = time.perf_counter()
        serial = run_axis_sweep(_spec(), LATENCY, jobs=1)
        serial_wall = time.perf_counter() - start
        start = time.perf_counter()
        parallel = run_axis_sweep(_spec(), LATENCY, jobs=JOBS)
        parallel_wall = time.perf_counter() - start
        return serial, serial_wall, parallel, parallel_wall

    serial, serial_wall, parallel, parallel_wall = benchmark.pedantic(
        run_pair, rounds=1, iterations=1
    )

    # Byte-identity holds on any machine, whatever the worker count.
    assert json.dumps(serial.as_dict(), sort_keys=True) == json.dumps(
        parallel.as_dict(), sort_keys=True
    )

    report = SpeedupReport(
        tasks=len(serial.points),
        jobs=JOBS,
        serial_wall_seconds=serial_wall,
        parallel_wall_seconds=parallel_wall,
    )
    cores = os.cpu_count() or 1
    print(f"\nparallel sweep guard ({cores} cores): {report.render()}")
    write_bench_artifact(
        "parallel",
        {
            "sweep": {
                **report.as_dict(),
                "txns_per_point": TXNS,
                "cores": cores,
                "min_speedup": MIN_SPEEDUP,
                "speedup_asserted": cores >= JOBS,
            }
        },
    )
    # The speedup claim needs the cores to back it; the artifact records
    # the measurement either way so CI history still tracks small runners.
    if cores >= JOBS:
        assert report.speedup >= MIN_SPEEDUP
