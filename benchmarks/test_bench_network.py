"""Perf guard for the bandwidth/queueing network model and pipelined commit.

Everything here is measured in *virtual* time, so the guards are exact —
the simulation is seeded and the scenario engine is deterministic, so any
regression in the link model, the wire-size accounting or the pipelining
path fails these assertions regardless of machine speed.

* **Knee curve**: sweeping batch size over the ``bandwidth-knee`` scenario
  (1000 bytes/delay links, 0.4-delay per-message overhead) must trace a
  *non-monotone* curve: tiny batches drown in per-message overhead, huge
  batches head-of-line-block the FIFO links behind their own serialized
  bytes, and both throughput and mean latency have an interior optimum at
  the knee in between.

* **Pipelining**: at the knee, the pipelined commit path (PREPARE of batch
  N+1 overlapped with ACCEPT persistence of batch N — the default) must
  sustain >= 1.3x the virtual-time committed-txns throughput of the
  stop-and-wait baseline (``network.pipeline=False``).  Measured ~4.8x on
  the library scenario, so the floor has wide headroom.

The measurements are emitted as ``BENCH_network.json`` for the CI artifact
trail: the full knee curve plus the pipelining comparison.
"""

from dataclasses import replace

from repro.scenarios import BatchSpec, ScenarioRunner, get_scenario

from _helpers import write_bench_artifact


# Batch sizes traced across the knee.  0 = batching off; the library
# scenario's knee sits at size 4 under its 1000 bytes/delay + 0.4 overhead
# link, with 50-transaction submission waves.
BATCH_GRID = (0, 2, 4, 8, 16, 50)
KNEE = 4

PIPELINE_SPEEDUP_FLOOR = 1.3

_artifact = {}


def _run(batch_size, pipeline=True):
    base = get_scenario("bandwidth-knee")
    overrides = {
        "batch": BatchSpec(size=batch_size) if batch_size else BatchSpec(),
    }
    if not pipeline:
        overrides["network"] = replace(base.network, pipeline=False)
    return ScenarioRunner(base.with_overrides(**overrides)).run()


def test_bandwidth_knee_curve_is_non_monotone(benchmark):
    def run_grid():
        return {size: _run(size) for size in BATCH_GRID}

    results = benchmark.pedantic(run_grid, rounds=1, iterations=1)
    for size, result in results.items():
        assert result.passed and result.undecided == 0, (size, result.check_reason)
    curve = [
        {
            "batch_size": size,
            "throughput": r.throughput,
            "mean_latency": r.latency.mean,
            "p99_latency": r.latency.p99,
            "messages_sent": r.messages_sent,
            "bytes_sent": r.bytes_sent,
            "link_queue_wait_mean": r.link_queue_wait_mean,
            "link_queue_wait_max": r.link_queue_wait_max,
            "link_busy_time": r.link_busy_time,
        }
        for size, r in results.items()
    ]
    print("\nbandwidth knee curve (bw=1000, ovh=0.4):")
    for row in curve:
        print(
            f"  batch={row['batch_size']:3d} tput={row['throughput']:7.1f} "
            f"lat mean={row['mean_latency']:6.2f} q wait max="
            f"{row['link_queue_wait_max']:5.2f}"
        )

    unbatched, knee, saturated = results[0], results[KNEE], results[BATCH_GRID[-1]]
    # The knee is a real interior optimum, in both directions: the curve is
    # non-monotone, so "batch as much as possible" is NOT the right policy
    # on a constrained link.
    assert knee.throughput > unbatched.throughput
    assert knee.throughput > saturated.throughput
    assert knee.latency.mean < unbatched.latency.mean
    assert knee.latency.mean < saturated.latency.mean
    # The two failure modes bracketing the knee look the way queueing
    # theory says they should: the unbatched side queues on per-message
    # overhead (many messages, deep queue waits), the saturated side ships
    # far fewer messages but each one blocks the link for longer.
    assert unbatched.messages_sent > 3 * saturated.messages_sent
    assert unbatched.link_queue_wait_max > saturated.link_queue_wait_max
    assert all(r.bytes_sent > 0 for r in results.values())

    _artifact["knee_curve"] = {
        "scenario": "bandwidth-knee",
        "knee_batch_size": KNEE,
        "curve": curve,
    }
    write_bench_artifact("network", _artifact)


def test_pipelined_commit_speedup_at_the_knee(benchmark):
    def run_pair():
        pipelined = _run(KNEE, pipeline=True)
        stop_and_wait = _run(KNEE, pipeline=False)
        return pipelined, stop_and_wait

    pipelined, stop_and_wait = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    for label, result in (("pipelined", pipelined), ("stop-and-wait", stop_and_wait)):
        assert result.passed and result.undecided == 0, (label, result.check_reason)
    speedup = pipelined.throughput / stop_and_wait.throughput
    print(
        f"\npipelining guard: stop-and-wait {stop_and_wait.throughput:.1f} "
        f"txns/1k delays, pipelined {pipelined.throughput:.1f} -> "
        f"{speedup:.2f}x (floor {PIPELINE_SPEEDUP_FLOOR}x, virtual time)"
    )
    # Both baselines decide the same transaction population.
    assert (
        pipelined.committed + pipelined.aborted
        == stop_and_wait.committed + stop_and_wait.aborted
    )
    _artifact["pipelining"] = {
        "scenario": "bandwidth-knee",
        "batch_size": KNEE,
        "pipelined_throughput": pipelined.throughput,
        "stop_and_wait_throughput": stop_and_wait.throughput,
        "speedup": speedup,
        "floor": PIPELINE_SPEEDUP_FLOOR,
    }
    write_bench_artifact("network", _artifact)
    assert speedup >= PIPELINE_SPEEDUP_FLOOR
