"""Perf guards for the multi-core execution tiers.

Two claims, matching the two tiers of ``repro.runtime.parallel``:

* **Tier A (process fan-out)** — a default-grid latency sweep run with
  ``jobs=4`` must (a) return results byte-identical to the ``jobs=1`` run
  (asserted unconditionally, on every machine) and (b) finish at least
  2.5x faster on a machine with >= 4 cores.  The speedup assertion is
  skipped on smaller runners — a 1-core container cannot exhibit it, and
  pool overhead would make the guard meaningless there — but the
  measurement is always taken and written to ``BENCH_parallel.json``.

* **Tier B (parallel-DES shard groups)** — the grouped engine must replay
  the serial engine's history byte for byte (this file pins a quick case;
  the exhaustive equivalence battery lives in tests/test_parallel.py) and
  its per-run overhead on a steady-state workload must stay bounded: the
  windowed controller adds heap bookkeeping per event, not algorithmic
  cost.  The bound is asserted on a deterministic count — every Python and
  builtin call of one grouped run over one serial run, identical run to
  run — because wall-clock on a shared box read 26-166% overhead on
  identical code; both walls are still measured, printed and written to
  ``BENCH_parallel.json``.
"""

import cProfile
import json
import os
import pstats
import time

import pytest

from repro.analysis.metrics import SpeedupReport
from repro.scenarios import LATENCY, ScenarioSpec, WorkloadSpec, run_axis_sweep
from repro.scenarios.runner import ScenarioRunner
from repro.scenarios.spec import ExecSpec

from _helpers import write_bench_artifact


JOBS = 4
MIN_SPEEDUP = 2.5
TXNS = 1_500
MAX_CALL_RATIO = 1.3


@pytest.fixture(scope="module")
def artifact() -> dict:
    """Both guards write BENCH_parallel.json; each adds its section to what
    the other already recorded in this session."""
    return {}


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


def test_sweep_jobs_speedup_guard(benchmark, artifact):
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
    artifact["sweep"] = {
        **report.as_dict(),
        "txns_per_point": TXNS,
        "cores": cores,
        "min_speedup": MIN_SPEEDUP,
        "speedup_asserted": cores >= JOBS,
    }
    write_bench_artifact("parallel", artifact)
    # The speedup claim needs the cores to back it; the artifact records
    # the measurement either way so CI history still tracks small runners.
    if cores >= JOBS:
        assert report.speedup >= MIN_SPEEDUP


def test_parallel_shards_overhead_guard(benchmark, artifact):
    spec = ScenarioSpec(
        name="parallel-guard-shards",
        protocol="message-passing",
        num_shards=4,
        seed=0,
        workload=WorkloadSpec(kind="uniform", txns=TXNS, batch=50, num_keys=2000),
        check_mode="online",
    )
    grouped = spec.with_overrides(execution=ExecSpec(mode="parallel-shards", groups=2))

    def run_pair():
        measured = {}
        for label, s in (("serial", spec), ("grouped", grouped)):
            start = time.perf_counter()
            result = ScenarioRunner(s).run()
            wall = time.perf_counter() - start
            profiler = cProfile.Profile()
            profiler.enable()
            ScenarioRunner(s).run()
            profiler.disable()
            measured[label] = (wall, pstats.Stats(profiler).total_calls, result)
        return measured

    measured = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    serial_wall, serial_calls, serial_result = measured["serial"]
    grouped_wall, grouped_calls, grouped_result = measured["grouped"]

    # The strong property first: identical histories, event counts, output.
    assert grouped_result.history_digest == serial_result.history_digest
    assert json.dumps(serial_result.as_dict(), sort_keys=True) == json.dumps(
        grouped_result.as_dict(), sort_keys=True
    )

    call_ratio = grouped_calls / serial_calls
    print(
        f"\nparallel-DES guard: serial {serial_wall:.2f}s / {serial_calls} calls, 2-group "
        f"{grouped_wall:.2f}s / {grouped_calls} calls -> wall overhead "
        f"{(grouped_wall / serial_wall - 1.0) * 100:.1f}%, call ratio {call_ratio:.3f}"
    )
    artifact["shards"] = {
        "txns": TXNS,
        "groups": 2,
        "serial_wall_seconds": serial_wall,
        "grouped_wall_seconds": grouped_wall,
        "serial_calls": serial_calls,
        "grouped_calls": grouped_calls,
        "call_ratio": call_ratio,
        "max_call_ratio": MAX_CALL_RATIO,
    }
    write_bench_artifact("parallel", artifact)
    # The windowed controller is per-event constant work (1.14 on this
    # shape); the bound is the "it went algorithmically wrong" tripwire, not
    # a performance target.
    assert call_ratio <= MAX_CALL_RATIO
