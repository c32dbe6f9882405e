"""Tests for the metrics helpers and the invariant checker."""

from dataclasses import dataclass

import pytest

from repro.analysis.metrics import (
    ExperimentReport,
    LatencySummary,
    format_table,
    leader_load,
    messages_per_transaction,
    percentile,
    summarize,
)
from repro.cluster import Cluster
from repro.core.types import Decision, Phase
from repro.runtime.events import Scheduler
from repro.runtime.network import Network
from repro.runtime.process import Process
from repro.scenarios import ScenarioRunner, get_scenario
from repro.spec import invariants
from repro.spec.invariants import check_invariants

from helpers import (
    oracle_global_decision_agreement,
    oracle_slot_decision_agreement,
    rw_payload,
    shard_key,
)
from test_figure4a_safety import _drive_figure_4a


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def test_summarize_basic_statistics():
    summary = summarize([1.0, 2.0, 3.0, 4.0])
    assert summary.count == 4
    assert summary.mean == pytest.approx(2.5)
    assert summary.median == pytest.approx(2.5)
    assert summary.minimum == 1.0 and summary.maximum == 4.0
    assert set(summary.as_dict()) == {"count", "mean", "median", "p99", "min", "max"}


def test_summarize_empty_raises():
    with pytest.raises(ValueError):
        summarize([])


def test_percentile_nearest_rank():
    sample = sorted([1.0, 2.0, 3.0, 4.0, 5.0])
    assert percentile(sample, 0.0) == 1.0
    assert percentile(sample, 1.0) == 5.0
    assert percentile(sample, 0.5) == 3.0
    with pytest.raises(ValueError):
        percentile(sample, 1.5)
    with pytest.raises(ValueError):
        percentile([], 0.5)


@dataclass(frozen=True)
class Note:
    pass


class _Sink(Process):
    def on_note(self, msg, sender):
        pass


def test_leader_load_and_messages_per_transaction():
    scheduler = Scheduler()
    network = Network(scheduler)
    leader, peer = _Sink("leader"), _Sink("peer")
    network.register(leader)
    network.register(peer)
    for _ in range(6):
        leader.send("peer", Note())
    for _ in range(4):
        peer.send("leader", Note())
    scheduler.run()
    stats = network.stats
    # The leader handles its 6 sends and the 4 deliveries it receives.
    assert leader_load(stats, ["leader"], num_transactions=2) == pytest.approx(5.0)
    assert leader_load(stats, [], num_transactions=2) == 0.0
    assert messages_per_transaction(stats, 5) == pytest.approx(2.0)
    assert messages_per_transaction(stats, 0) == 0.0


def test_format_table_alignment():
    table = format_table(["name", "value"], [["a", 1.23456], ["long-name", 7]])
    lines = table.splitlines()
    assert len(lines) == 4
    assert "name" in lines[0] and "value" in lines[0]
    assert "1.23" in table


def test_experiment_report_render():
    report = ExperimentReport(
        experiment="E1", claim="latency", headers=["protocol", "delays"]
    )
    report.add_row("ours", 5.0)
    report.add_row("baseline", 7.0)
    text = report.render()
    assert "E1" in text and "ours" in text and "7.00" in text


# ----------------------------------------------------------------------
# invariant checker
# ----------------------------------------------------------------------
def test_invariants_clean_cluster_has_no_violations():
    cluster = Cluster(num_shards=2, replicas_per_shard=2, seed=81)
    cluster.certify_many([rw_payload(f"k{i}", tiebreak=str(i)) for i in range(5)])
    cluster.run()
    assert check_invariants(cluster.member_replicas_by_shard(), cluster.history) == []


def _tamper(cluster):
    shard = "shard-0"
    members = [cluster.replica(p) for p in cluster.members_of(shard)]
    return shard, members


def _filled(array):
    """The slots at which one of a replica's slot lists holds an entry."""
    return [slot for slot, value in enumerate(array) if value is not None]


def test_invariants_detect_vote_divergence():
    cluster = Cluster(num_shards=2, replicas_per_shard=2, seed=82)
    cluster.certify(rw_payload("x", tiebreak="a"))
    cluster.run()
    shard = cluster.scheme.sharding.shard_of("x")
    follower = cluster.replica(cluster.followers_of(shard)[0])
    slot = _filled(follower.vote_arr)[0]
    follower.vote_arr[slot] = Decision.ABORT
    violations = check_invariants(cluster.member_replicas_by_shard(), cluster.history)
    assert any("vote-agreement" in v.invariant for v in violations)


def test_invariants_detect_decision_divergence():
    cluster = Cluster(num_shards=2, replicas_per_shard=2, seed=83)
    cluster.certify(rw_payload("x", tiebreak="a"))
    cluster.run()
    shard = cluster.scheme.sharding.shard_of("x")
    follower = cluster.replica(cluster.followers_of(shard)[0])
    slot = _filled(follower.dec_arr)[0]
    follower.dec_arr[slot] = Decision.ABORT
    violations = check_invariants(cluster.member_replicas_by_shard(), cluster.history)
    assert any("decision-agreement" in v.invariant for v in violations)


def test_invariants_detect_duplicate_transaction_slots():
    cluster = Cluster(num_shards=2, replicas_per_shard=2, seed=84)
    written = rw_payload("x", tiebreak="a")
    cluster.certify(written)
    cluster.run()
    shard = cluster.scheme.sharding.shard_of("x")
    leader = cluster.replica(cluster.leader_of(shard))
    slot = _filled(leader.txn_arr)[-1]
    leader.store_slot(slot + 1, leader.txn_arr[slot], written, leader.vote_arr[slot])
    violations = check_invariants(cluster.member_replicas_by_shard(), cluster.history)
    assert any("unique-slots" in v.invariant for v in violations)


def test_invariants_detect_log_divergence():
    cluster = Cluster(num_shards=2, replicas_per_shard=2, seed=85)
    cluster.certify(rw_payload("x", tiebreak="a"))
    cluster.run()
    shard = cluster.scheme.sharding.shard_of("x")
    follower = cluster.replica(cluster.followers_of(shard)[0])
    slot = _filled(follower.txn_arr)[0]
    follower.txn_arr[slot] = "phantom-transaction"
    violations = check_invariants(cluster.member_replicas_by_shard(), cluster.history)
    assert any("log-agreement" in v.invariant for v in violations)


def test_invariants_detect_commit_with_abort_vote():
    cluster = Cluster(num_shards=2, replicas_per_shard=2, seed=86)
    cluster.certify(rw_payload("x", tiebreak="a"))
    cluster.run()
    shard = cluster.scheme.sharding.shard_of("x")
    leader = cluster.replica(cluster.leader_of(shard))
    slot = _filled(leader.dec_arr)[0]
    leader.vote_arr[slot] = Decision.ABORT
    violations = check_invariants({shard: [leader]}, None)
    assert any("commit-implies-commit-vote" in v.invariant for v in violations)


def _scenario_replicas(name):
    runner = ScenarioRunner(get_scenario(name))
    runner.run()
    return runner.cluster.member_replicas_by_shard(), runner.cluster.history.decided()


def _figure_4a_replicas():
    cluster = Cluster(
        num_shards=3, replicas_per_shard=2, protocol="broken-rdma", spares_per_shard=2, seed=51
    )
    _drive_figure_4a(cluster, global_reconfig=False)
    return cluster.member_replicas_by_shard(), cluster.history.decided()


def _split_decision_replicas():
    """Replicas that disagree on two slots' decisions, a leader that holds
    one transaction in two slots with two decisions (its later slot wins,
    so the first pass flags that transaction and the second clears it
    where everyone else agrees with the later one), and a client history
    contradicting the replicas."""
    cluster = Cluster(num_shards=2, replicas_per_shard=2, seed=88)
    keys = [shard_key(cluster.scheme, "shard-0", hint=f"k{i}") for i in range(4)]
    written = [rw_payload(key, tiebreak=key) for key in keys]
    payload_of = dict(zip(cluster.certify_many(written), written))
    cluster.run()
    leader = cluster.replica(cluster.leader_of("shard-0"))
    follower = cluster.replica(cluster.followers_of("shard-0")[0])
    decided = _filled(leader.dec_arr)
    first, last = decided[0], decided[-1]
    follower.dec_arr[first] = Decision.ABORT
    follower.dec_arr[last] = Decision.ABORT
    twin = _filled(leader.txn_arr)[-1] + 1
    # The decided slot's payload is folded: store the one it was written with.
    txn = leader.txn_arr[last]
    leader.store_slot(twin, txn, payload_of[txn], leader.vote_arr[last])
    leader.decide_slot(twin, Decision.ABORT)
    client = dict(cluster.history.decided())
    client[leader.txn_arr[last]] = Decision.ABORT
    client[leader.txn_arr[first + 1]] = Decision.ABORT
    return cluster.member_replicas_by_shard(), client


@pytest.mark.parametrize(
    "case",
    [
        lambda: _scenario_replicas("ablation-safety-demo"),
        lambda: _scenario_replicas("stale-lease-ablation"),
        _figure_4a_replicas,
        _split_decision_replicas,
    ],
    ids=["ablation-safety-demo", "stale-lease-ablation", "figure-4a-broken-rdma", "split-decisions"],
)
def test_decision_agreement_checks_equal_their_oracle(case):
    """Inv. 4a and 4b build observation dicts only for what disagrees; the
    violations — order and detail text included — must be the oracle's."""
    replicas_by_shard, client = case()
    for include_crashed in (False, True):
        got, want = [], []
        for shard, replicas in replicas_by_shard.items():
            live = [r for r in replicas if include_crashed or not r.crashed]
            got += invariants._check_slot_decision_agreement(shard, live)
            want += oracle_slot_decision_agreement(shard, live)
        got += invariants._check_global_decision_agreement(
            replicas_by_shard, client, include_crashed
        )
        want += oracle_global_decision_agreement(replicas_by_shard, client, include_crashed)
        assert got == want
    if case is _split_decision_replicas:
        assert {v.invariant for v in got} == {
            "slot-decision-agreement (Inv. 4a)", "global-decision-agreement (Inv. 4b)"
        }


def test_violation_string_rendering():
    cluster = Cluster(num_shards=2, replicas_per_shard=2, seed=87)
    cluster.certify(rw_payload("x", tiebreak="a"))
    cluster.run()
    shard = cluster.scheme.sharding.shard_of("x")
    leader = cluster.replica(cluster.leader_of(shard))
    slot = _filled(leader.dec_arr)[0]
    leader.vote_arr[slot] = Decision.ABORT
    violations = check_invariants({shard: [leader]}, None)
    assert all(str(v) for v in violations)
