"""E2 — Messages handled by shard (Paxos) leaders per transaction.

Paper claim (Section 3): the protocol "minimizes the load on Paxos leaders":
per transaction, each involved leader only receives one PREPARE and one
DECISION and sends one PREPARE_ACK (3 messages).  In the 2PC-over-Paxos
baseline the leader additionally carries the whole replication fan-out.

The workload is single-key transactions (each involves exactly one shard),
driven through the scenario engine.
"""

import pytest

from repro.analysis.metrics import ExperimentReport, leader_load
from repro.scenarios import ScenarioRunner, ScenarioSpec, WorkloadSpec

from _helpers import by_process_and_type


TXNS = 20


def _spec(protocol: str) -> ScenarioSpec:
    return ScenarioSpec(
        name=f"e2-leader-load-{protocol}",
        protocol=protocol,
        num_shards=2,
        replicas_per_shard=3 if protocol == "2pc-paxos" else 2,
        seed=2,
        workload=WorkloadSpec(
            kind="uniform", txns=TXNS, batch=10, num_keys=64,
            reads_per_txn=1, writes_per_txn=1,
        ),
    )


def _run(protocol: str) -> ScenarioRunner:
    runner = ScenarioRunner(_spec(protocol))
    runner.run()
    return runner


def _reconfigurable_leader_load(runner) -> float:
    """Messages handled by a shard leader *in its leader role* per transaction.

    Replicas also serve as transaction coordinators, so raw per-process
    counters would mix in coordinator traffic; the paper's claim is about the
    leader role only: one PREPARE in, one PREPARE_ACK out, one DECISION in.
    Every transaction is single-key, so it involves exactly one leader.
    """
    cluster = runner.cluster
    received = by_process_and_type(cluster.network, "delivered")
    sent = by_process_and_type(cluster.network, "sent")
    leader_role_types_in = ("Prepare", "SlotDecision", "RdmaWrite")
    leader_role_types_out = ("PrepareAck", "RdmaAck")
    total = 0
    for leader in (cluster.leader_of(shard) for shard in cluster.shards):
        total += sum(received[(leader, t)] for t in leader_role_types_in)
        total += sum(sent[(leader, t)] for t in leader_role_types_out)
    return total / TXNS


def _baseline_leader_load(runner) -> float:
    cluster = runner.cluster
    leaders = [cluster.leader_of(shard) for shard in cluster.shards]
    # leader_load normalises per leader; each single-key transaction involves
    # one of the two leaders, so feed it the per-leader transaction count.
    return leader_load(cluster.message_stats, leaders, num_transactions=TXNS // 2)


@pytest.mark.parametrize("protocol", ["message-passing", "rdma"])
def test_e2_leader_load_reconfigurable(benchmark, protocol):
    runner = benchmark.pedantic(lambda: _run(protocol), rounds=3, iterations=1)
    load = _reconfigurable_leader_load(runner)
    report = ExperimentReport(
        experiment=f"E2 — leader load ({protocol})",
        claim="leader handles ~3 messages per transaction (PREPARE in, PREPARE_ACK out, DECISION in)",
        headers=["system", "paper", "measured msgs/txn/leader"],
    )
    report.add_row(protocol, "~3", load)
    report.print()
    assert load <= 4.5


def test_e2_leader_load_baseline(benchmark):
    runner = benchmark.pedantic(lambda: _run("2pc-paxos"), rounds=3, iterations=1)
    load = _baseline_leader_load(runner)
    report = ExperimentReport(
        experiment="E2 — leader load (2PC over Paxos baseline)",
        claim="the baseline leader also carries the Paxos replication fan-out",
        headers=["system", "paper", "measured msgs/txn/leader"],
    )
    report.add_row("2PC over Paxos (2f+1)", ">> 3", load)
    report.print()
    assert load > 4.5


def test_e2_leader_load_comparison(benchmark):
    ours, baseline = benchmark.pedantic(
        lambda: (_run("message-passing"), _run("2pc-paxos")), rounds=1, iterations=1
    )
    ours_load, baseline_load = _reconfigurable_leader_load(ours), _baseline_leader_load(baseline)
    report = ExperimentReport(
        experiment="E2 — leader load comparison",
        claim="the reconfigurable protocol shifts replication work from leaders to coordinators",
        headers=["system", "measured msgs/txn/leader"],
    )
    report.add_row("reconfigurable TCS (f+1)", ours_load)
    report.add_row("2PC over Paxos (2f+1)", baseline_load)
    report.print()
    assert ours_load < baseline_load
