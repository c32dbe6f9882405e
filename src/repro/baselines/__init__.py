"""Baseline protocols the paper compares against.

The "vanilla" way to implement a TCS is to run two-phase commit across
shards and make each shard simulate a reliable 2PC participant with a Paxos
replication layer over ``2f + 1`` replicas (Spanner/Scatter style).  The
paper's protocols improve on this baseline in decision latency (5 or 4
message delays instead of 7), leader load and replica count (``f + 1``
instead of ``2f + 1``).

* :mod:`repro.baselines.paxos` — a leader-based Multi-Paxos replicated
  state machine that compacts its log as it applies it;
* :mod:`repro.baselines.twopc` — 2PC over Paxos-replicated shards, exposing
  the same client interface as the paper protocols so that the benchmark
  harness can compare them directly.
"""

from repro.baselines.paxos import (
    PaxosReplica,
    PaxosGroup,
    StateMachine,
    RsmCommand,
    RsmResponse,
)
from repro.baselines.twopc import (
    CertificationStateMachine,
    TwoPCCoordinator,
)

__all__ = [
    "PaxosReplica",
    "PaxosGroup",
    "StateMachine",
    "RsmCommand",
    "RsmResponse",
    "CertificationStateMachine",
    "TwoPCCoordinator",
]
