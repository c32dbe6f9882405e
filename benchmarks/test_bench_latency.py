"""E1 — Decision latency in message delays (Section 3).

Paper claim: the reconfigurable protocol lets a client learn the decision in
5 message delays (4 if the client is co-located with the coordinator),
versus 7 for the vanilla approach that uses Paxos as a black box.

Both systems are driven through the scenario engine; the latency samples
come from the coordinator-side entries the clusters record.
"""

import pytest

from repro.analysis.metrics import ExperimentReport, summarize
from repro.scenarios import ScenarioRunner, ScenarioSpec, WorkloadSpec


def _spec(protocol: str) -> ScenarioSpec:
    return ScenarioSpec(
        name=f"e1-latency-{protocol}",
        protocol=protocol,
        num_shards=3,
        replicas_per_shard=3 if protocol == "2pc-paxos" else 2,
        seed=1,
        workload=WorkloadSpec(kind="uniform", txns=24, batch=8, num_keys=96),
    )


def _run(protocol: str) -> ScenarioRunner:
    runner = ScenarioRunner(_spec(protocol))
    runner.run()
    return runner


@pytest.mark.parametrize("protocol", ["message-passing", "rdma"])
def test_e1_latency_reconfigurable(benchmark, protocol):
    runner = benchmark.pedantic(lambda: _run(protocol), rounds=3, iterations=1)
    to_client = summarize(runner.cluster.protocol_latencies())
    colocated = summarize(runner.cluster.colocated_latencies())
    report = ExperimentReport(
        experiment=f"E1 — decision latency ({protocol})",
        claim="5 message delays to the client, 4 co-located (paper Section 3)",
        headers=["metric", "paper", "measured mean", "measured p99"],
    )
    report.add_row("client learns decision", 5, to_client.mean, to_client.p99)
    report.add_row("co-located client", 4, colocated.mean, colocated.p99)
    report.print()
    assert to_client.mean == pytest.approx(5.0)
    assert colocated.mean == pytest.approx(4.0)


def test_e1_latency_baseline(benchmark):
    runner = benchmark.pedantic(lambda: _run("2pc-paxos"), rounds=3, iterations=1)
    # Coordinator start of 2PC to the decision durable on every shard.
    durable = summarize(
        [
            entry.durable_at - entry.started_at
            for coordinator in runner.cluster.coordinators
            for entry in coordinator.transactions.values()
            if entry.durable_at is not None
        ]
    )
    votes = summarize(runner.cluster.colocated_latencies())
    report = ExperimentReport(
        experiment="E1 — decision latency (2PC over Paxos baseline)",
        claim="vanilla Paxos-as-black-box needs 7 delays to learn a decision",
        headers=["metric", "paper", "measured mean", "measured p99"],
    )
    report.add_row("votes known at coordinator", "-", votes.mean, votes.p99)
    report.add_row("decision durable everywhere", 7, durable.mean, durable.p99)
    report.print()
    # 7 delays for the decision to be durable on every shard, plus one more
    # for the last shard's acknowledgement to reach the coordinator.
    assert durable.mean >= 7.0
