"""The six benchmark workloads and the inputs generated from ``--seed``.

Nothing here imports ``repro``: a workload is plain data, and the open-loop
arrival schedule and transaction bodies are generated here, before the
run, so the program under test receives only generated inputs.

All workloads run 4 shards under serializability with the online TCS
checker and the invariant monitor attached (the default users run).
``txns`` is the size of one repetition at ``--scale 1``: the issue's sizes
(8000, 8000, 5000, 12000, 4000, 3000), all scaled by 0.75 so that the
driver's 136 runs fit its budget when the box runs at half speed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class Workload:
    name: str
    txns: int  # one repetition at --scale 1
    protocol: str = "message-passing"
    replicas: int = 2  # per shard
    keys: str = "uniform"  # key distribution: uniform | zipfian
    theta: float = 0.0  # zipfian skew
    num_keys: int = 2000
    reads: int = 2  # keys read per transaction
    writes: int = 1  # of which written
    read_ratio: float = 0.0  # share of read-only point lookups
    wave: int = 50  # closed loop: transactions certified concurrently
    snapshot_reads: bool = False  # lease-guarded snapshot-read fast path
    batch_size: int = 0  # protocol batching (0 = off)
    bandwidth: float = 0.0  # link bytes per delay (0 = pure-delay network)
    overhead: float = 0.0  # per-message serialization cost, delays
    groups: int = 0  # > 0: the parallel-shards engine with that many groups
    open_rate: float = 0.0  # > 0: open loop, Poisson arrivals per delay
    crash_leader_at: float = 0.0  # crash shard-0's leader this far through the arrivals
    retry: Tuple[float, float, int] = ()  # client sessions: timeout, backoff, max attempts
    detector: Tuple[float, int] = ()  # heartbeat detector: interval, threshold

    def size(self, scale: float) -> int:
        return max(20, round(self.txns * scale))


# Why each workload exists is recorded beside its name in BENCHMARK.json
# and, at length, in README.md.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(name="mp-steady", txns=6000),
        # Same inputs as mp-steady; its history digest must equal mp-steady's.
        Workload(name="mp-steady-grouped", txns=6000, groups=2),
        Workload(
            name="rdma-batched-bw",
            txns=3750,
            protocol="rdma",
            keys="zipfian",
            theta=0.7,
            num_keys=20000,
            reads=3,
            writes=2,
            wave=64,
            batch_size=16,
            bandwidth=1000,
            overhead=0.1,
        ),
        Workload(name="read-mostly-lease", txns=9000, read_ratio=0.9, snapshot_reads=True),
        # 3.0 per delay is about 70% of the knee the load curve finds.
        Workload(
            name="openloop-failover",
            txns=3000,
            replicas=3,
            num_keys=4000,
            bandwidth=120,
            overhead=0.1,
            open_rate=3.0,
            crash_leader_at=0.3,
            retry=(30, 1.5, 6),
            detector=(2, 3),
        ),
        Workload(name="baseline-steady", txns=2250, protocol="2pc-paxos", replicas=3),
    )
}

# The load curve of the open-loop workload: fault-free passes at these
# offered rates, each over this many transactions at --scale 1.
SLO_RATES = (2.0, 3.0, 4.0, 5.0, 6.0)
SLO_TXNS = 1500
SLO_P99_DELAYS = 25.0


def crash_time(workload: Workload, txns: int) -> float:
    """Virtual time of the leader crash: a fixed share of the way through
    the expected arrival schedule, off the arrival grid."""
    return round(workload.crash_leader_at * txns / workload.open_rate) + 0.5


@dataclass(frozen=True)
class OpenLoopInputs:
    """What an open-loop run is fed: when each request is due and what it does."""

    num_keys: int
    due: List[float]
    reads: List[Tuple[str, ...]]
    writes: List[Tuple[Tuple[str, str], ...]]


def open_loop_inputs(workload: Workload, seed: int, txns: int, rate: float) -> OpenLoopInputs:
    """Poisson arrivals at ``rate`` per delay and uniform read/write sets,
    both drawn from ``seed`` alone."""
    rng = random.Random(seed)
    due: List[float] = []
    now = 0.0
    for _ in range(txns):
        now += rng.expovariate(rate)
        due.append(now)
    reads: List[Tuple[str, ...]] = []
    writes: List[Tuple[Tuple[str, str], ...]] = []
    for index in range(txns):
        keys = tuple(f"key-{k}" for k in rng.sample(range(workload.num_keys), workload.reads))
        reads.append(keys)
        writes.append(tuple((key, f"v{index}") for key in keys[: workload.writes]))
    return OpenLoopInputs(num_keys=workload.num_keys, due=due, reads=reads, writes=writes)
