"""Shared helpers for the benchmark harness.

The module name is deliberately not ``conftest``: pytest inserts both
``tests/`` and ``benchmarks/`` on ``sys.path`` and two modules named
``conftest`` would shadow each other.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from collections import Counter


# ---------------------------------------------------------------------------
# Perf-guard baselines and the re-baselining rule
# ---------------------------------------------------------------------------
# Wall-clock guards assert against floors derived from a *measured baseline*:
#
#   floor = baseline / 2        (throughput guards)
#   ceiling = 2 x worst noise   (overhead-ratio guards)
#
# The 2x headroom absorbs slower CI machines and noisy neighbours while
# still catching algorithmic regressions (a returned quadratic path costs
# 10x, not 2x).  The rule for updating these numbers:
#
# * Re-measure whenever a deliberate change moves a measurement by more
#   than ~1.5x in either direction — a floor pinned far below the current
#   regime guards nothing (the previous floor here, 235 txns/s from before
#   the PR 1 engine refactor, had drifted ~13x below the measured rate and
#   would have let the engine regress by an order of magnitude unnoticed).
# * Measure on an otherwise-idle dev container, several runs, and record
#   the *worst* run — baselines encode the slow day, not the lucky one.
# * Never lower a floor to make a failing guard pass without re-measuring
#   and explaining what legitimately got slower.
#
# Baselines re-checked 2026-08 after the bandwidth/queueing network model
# landed: the default NetworkSpec is inert (messages are never sized and
# the byte counters stay untouched unless a scenario opts into a positive
# bandwidth), so the batching / read / scheduler measurements did not move
# and the floors below stand as measured.  The network model's own guards
# (knee curve, pipelining speedup) are virtual-time assertions in
# test_bench_network.py and need no wall-clock baseline.
#
# Baselines re-measured 2026-08 (10k-txn steady state, worst of repeated
# runs; see test_bench_scheduler.py / test_bench_checker.py for the exact
# workloads):
#
# Re-checked 2026-09 after the per-message hot-path speedup (heap entries
# compared in C, memoised dispatch names, compiled wire sizers, one keyed
# message counter, indexed baseline certification).  On the quiet
# container the same workloads now measure 5,500-5,800 txns/s and
# 60-62k events/s (was 4,200-4,400 / 46-48k at the parent commit: 1.3x,
# under the 1.5x re-baselining threshold) and 4,400 checked txns/s (was
# 3,300-3,500).  Baselines encode the slow day, so the three runs that
# count were taken with both cores of the container kept busy by spinning
# processes: 3,143 txns/s, 33,931 events/s, 2,373 checked txns/s.  The
# first two sit just above the recorded baselines and the third just
# below its own, so all three stand as recorded.
BASELINE_ENGINE_TXNS_PER_SEC = 3_000.0  # check_mode="off"
BASELINE_ENGINE_EVENTS_PER_SEC = 32_000.0
BASELINE_CHECKED_TXNS_PER_SEC = 2_600.0  # online checker on (worst model)
# The 2PC-over-Paxos stack had no floor, and it is the one whose host cost
# was quadratic in the run length (every prepare scanned every committed
# payload on every replica).  5,000 transactions, check_mode="off": 3,700
# txns/s quiet, 1,932 worst of three with both cores busy; the scan-based
# state machine measures 790 on the quiet container and misses the floor.
BASELINE_BASELINE_STACK_TXNS_PER_SEC = 1_900.0

# These four absolute floors are asserted only under the ``wallclock``
# marker (the default run keeps each workload's correctness checks).  The
# margin beside each is the reading over the floor on a 2-core container,
# 2026-10, in two runs of ``python -m pytest -m wallclock`` on these files.
ENGINE_TXNS_FLOOR = BASELINE_ENGINE_TXNS_PER_SEC / 2  # 5,247-5,687 txns/s: 3.5-3.8x
ENGINE_EVENTS_FLOOR = BASELINE_ENGINE_EVENTS_PER_SEC / 2  # 56.7k-61.4k events/s: 3.5-3.8x
# Checker 5,014-5,315 txns/s (3.9-4.1x); lognormal 4,044-4,335 (3.1-3.3x);
# WAN pack 3,405-3,452 (2.6-2.7x).
CHECKED_TXNS_FLOOR = BASELINE_CHECKED_TXNS_PER_SEC / 2
BASELINE_STACK_TXNS_FLOOR = BASELINE_BASELINE_STACK_TXNS_PER_SEC / 2  # 2,775-3,259 txns/s: 2.9-3.4x

# Speedup-ratio guards compare a feature's wall-clock throughput with the
# same workload run without it (interleaved rounds, one process).  A ratio
# of interleaved runs moves far less with machine load than a rate does, so
# these floors do not take the 2x headroom above: each sits about 10% under
# the worst ratio the guard measured on the quiet container, as the 2.0x
# and 3.0x they replace did (6-13% under 2.3x and 3.2x).
#
# Both features win by sending fewer messages, so their host-time ratios
# shrink whenever a message gets cheaper, with nothing having got slower:
# the 2026-09 hot-path speedup took unbatched 4,450 -> 7,700 txns/s against
# batched(32) 10,400 -> 12,400 (2.3x -> 1.53-1.67x over fourteen runs) and
# all-certified 5,650 -> 9,000 against snapshot reads 18,000 -> 25,000
# (best paired round 3.2x -> 2.71-3.01x over nine runs).  The old
# thresholds fail on that change, which is why they were lowered.  With
# both cores of the container kept busy by spinning processes five runs
# measured 1.41-1.61x and 2.77-3.16x.  What batching and the read path save
# in messages and events is asserted exactly, per seed, by the
# deterministic halves of the same two benchmarks.
BATCHING_SPEEDUP_FLOOR = 1.4
SNAPSHOT_READ_SPEEDUP_FLOOR = 2.4

# Overhead-ratio ceiling for the client-session layer: design target 10%,
# measured 8-17% depending on machine load (a ratio of two ~1s runs is
# noise-sensitive even taking the best of three) -> ceiling at 2x the
# worst observed noise band.
SESSION_OVERHEAD_CEILING = 0.25


def by_process_and_type(network, counts: str) -> Counter:
    """``(process, message class name) -> messages``, summed over the
    network's links: ``counts="sent"`` keys by sender, ``"delivered"`` by
    receiver."""
    view: Counter = Counter()
    for (src, dst), link in network.links.items():
        process = src if counts == "sent" else dst
        for kind, count in getattr(link, counts).items():
            view[process, kind.__name__] += count
    return view


def key_on_shard(cluster, shard: str, hint: str = "key") -> str:
    return cluster.scheme.sharding.key_for_shard(shard, hint=hint)


def write_bench_artifact(name: str, payload: dict) -> str:
    """Persist one benchmark's measurements as ``BENCH_<name>.json``.

    Written into ``$BENCH_ARTIFACT_DIR`` (default: the working directory) so
    CI can upload every ``BENCH_*.json`` as a run artifact and performance
    can be tracked across commits instead of living only in pytest stdout.
    A ``meta`` block records when and where the numbers were taken.
    """
    directory = os.environ.get("BENCH_ARTIFACT_DIR", ".")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"BENCH_{name}.json")
    document = {
        "bench": name,
        "meta": {
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "python": sys.version.split()[0],
            "platform": platform.platform(),
        },
        "results": payload,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
