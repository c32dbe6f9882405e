"""The stop-and-wait admission gate (``NetworkSpec.pipeline=False``) on every stack.

No library scenario declares ``pipeline=False``, so ``golden_digests.json``
does not pin this path.  ``tests/golden_stop_and_wait.json`` does: it holds
the ``History.digest()``, message count and virtual duration of
``bandwidth-knee`` (200 transactions in waves of 50, so a whole wave queues
behind one transaction) run stop-and-wait, batched and unbatched, on each of
the three protocol stacks.

Regenerate (only for a deliberate behaviour change, and say so in
CHANGES.md)::

    PYTHONPATH=src python tests/test_stop_and_wait.py
"""

from __future__ import annotations

import json
import os
from dataclasses import replace
from typing import Dict, List, Tuple

import pytest

from repro.baselines.cluster import BaselineCluster
from repro.baselines.paxos import RsmCommand
from repro.baselines.twopc import PrepareCommand
from repro.cluster import Cluster
from repro.core.messages import CertifyRequest, Prepare
from repro.core.types import BOTTOM
from repro.scenarios import BatchSpec, NetworkSpec, ScenarioRunner, get_scenario

from helpers import rw_payload, shard_key

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "golden_stop_and_wait.json"
)
STACKS = ("message-passing", "rdma", "2pc-paxos")
BATCHING = {"batched": BatchSpec(size=4), "unbatched": BatchSpec()}


def _observe(key: str) -> Dict[str, object]:
    protocol, batching = key.split("|")
    base = get_scenario("bandwidth-knee")
    overrides = {
        "protocol": protocol,
        "batch": BATCHING[batching],
        "network": replace(base.network, pipeline=False),
    }
    if protocol == "2pc-paxos":
        overrides["replicas_per_shard"] = 3
    result = ScenarioRunner(base.with_overrides(**overrides)).run()
    assert result.safety_ok and result.committed + result.aborted == 200
    return {
        "digest": result.history_digest,
        "messages_sent": result.messages_sent,
        "duration": result.duration,
    }


CASES = [f"{protocol}|{batching}" for protocol in STACKS for batching in BATCHING]


@pytest.mark.parametrize("key", CASES)
def test_stop_and_wait_history_matches_golden(key):
    with open(GOLDEN_PATH) as handle:
        golden = json.load(handle)
    assert sorted(golden) == sorted(CASES)
    assert _observe(key) == golden[key]


def _held_wave(stack: str):
    """Four single-shard transactions submitted at once to one stop-and-wait
    coordinator: the first dispatches, the other three are held.  Returns the
    cluster, the coordinator, the transactions and their payloads, and the
    list the coordinator's PREPAREs are recorded in as they are sent."""
    if stack == "2pc-paxos":
        cluster = BaselineCluster(num_shards=2, network=NetworkSpec(pipeline=False))
        coordinator = cluster.coordinators[0]
    else:
        cluster = Cluster(
            num_shards=2,
            replicas_per_shard=2,
            protocol=stack,
            network=NetworkSpec(pipeline=False),
        )
        coordinator = cluster.replicas[cluster.members_of("shard-1")[0]]
    payloads = [
        rw_payload(shard_key(cluster.scheme, "shard-0", hint=f"k{i}"), tiebreak=f"t{i}")
        for i in range(4)
    ]
    txns = [cluster.submit(p, coordinator=coordinator.pid) for p in payloads]
    prepared: List[Tuple[float, str]] = []
    send = coordinator.send

    def recording_send(dst, message, **kwargs):
        if isinstance(message, Prepare):
            prepared.append((coordinator.now, message.txn))
        elif isinstance(message, RsmCommand) and isinstance(message.command, PrepareCommand):
            prepared.append((coordinator.now, message.command.txn))
        return send(dst, message, **kwargs)

    coordinator.send = recording_send
    return cluster, coordinator, txns, payloads, prepared


@pytest.mark.parametrize("stack", STACKS)
def test_held_transactions_dispatch_in_submission_order(stack):
    cluster, coordinator, txns, _payloads, prepared = _held_wave(stack)
    cluster.run(max_time=1.5)
    assert [entry.txn for entry, _ in coordinator.gate._held_certifies] == txns[1:]
    cluster.run()
    assert [txn for _, txn in prepared] == txns
    times = [at for at, _ in prepared]
    assert times == sorted(set(times)), "each dispatch waits for the previous decision"
    assert all(cluster.history.decision_of(txn) is not None for txn in txns)


@pytest.mark.parametrize("stack", STACKS)
def test_duplicate_certify_for_a_held_transaction(stack):
    """A client-session retry that lands while the transaction is held is
    neither dispatched twice nor dropped."""
    cluster, coordinator, txns, payloads, prepared = _held_wave(stack)
    cluster.run(max_time=1.5)
    assert txns[2] in coordinator.gate._held_txns
    cluster.client.send(
        coordinator.pid, CertifyRequest(txn=txns[2], payload=payloads[2], request_id=99)
    )
    cluster.run()
    assert coordinator.duplicate_certify_requests == 1
    assert sorted(txn for _, txn in prepared) == sorted(txns)
    assert all(cluster.history.decision_of(txn) is not None for txn in txns)
    assert not coordinator.gate._held_certifies and not coordinator.gate._held_txns
    assert cluster.history.contradictions == []


@pytest.mark.parametrize("stack", ["message-passing", "rdma"])
def test_a_re_dispatch_of_a_decided_transaction_leaves_the_gate_open(stack):
    """``retry`` is ``certify(t, BOTTOM)``; at the coordinator that decided
    ``t`` it re-drives the leaders' answers at once and outside the gate,
    which only a decision releases: the next transaction still dispatches,
    and a transaction in flight does not hold the re-dispatch."""
    cluster = Cluster(
        num_shards=2,
        replicas_per_shard=2,
        protocol=stack,
        seed=3,
        network=NetworkSpec(pipeline=False),
    )
    coordinator = cluster.replicas[cluster.members_of("shard-1")[0]]
    first, second, third = (
        rw_payload(shard_key(cluster.scheme, "shard-0", hint=f"k{i}"), tiebreak=f"t{i}")
        for i in range(3)
    )
    decided = cluster.submit(first, coordinator=coordinator.pid)
    cluster.run_until_decided([decided])
    cluster.run()
    coordinator.certify(decided, BOTTOM)
    txn = cluster.submit(second, coordinator=coordinator.pid)
    cluster.run()
    assert cluster.history.decision_of(txn) is not None
    assert not coordinator.gate._in_flight and not coordinator.gate._held_certifies

    txn = cluster.submit(third, coordinator=coordinator.pid)
    cluster.run(max_time=cluster.scheduler.now + 2.5)
    assert coordinator.gate._in_flight == {txn}
    prepares = cluster.message_stats.sent_by_type["Prepare"]
    coordinator.certify(decided, BOTTOM)
    assert cluster.message_stats.sent_by_type["Prepare"] == prepares + 1
    cluster.run()
    assert cluster.history.decision_of(txn) is not None
    assert not coordinator.gate._in_flight and not coordinator.gate._held_certifies


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as handle:
        json.dump({key: _observe(key) for key in CASES}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(CASES)} cases to {GOLDEN_PATH}")
