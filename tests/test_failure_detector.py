"""Tests for the heartbeat failure detector and unsolicited view changes.

Four layers:

* the :class:`FailureDetector` scoring machine in isolation — bounded and
  phi modes, refutation accounting, watch-set updates;
* the weak-event substrate — background (weak) scheduler events and weak
  heartbeat deliveries must never keep run-to-quiescence alive;
* the live clusters — the pump-driven path from a silent leader to a
  service-proposed view change and pushed session failovers, on the
  message-passing and RDMA stacks, plus the baseline's passive wiring;
* the scenario pack and the detector sweep — zero undecided transactions,
  detector-vs-timeout recovery speed and grid parsing.
"""

import json
from dataclasses import replace

import pytest

from repro.baselines.cluster import BaselineCluster
from repro.client import RetryPolicy
from repro.cluster import Cluster
from repro.core.failuredetector import DetectorPolicy, FailureDetector
from repro.core.types import Decision
from repro.runtime.events import Scheduler
from repro.scenarios import ScenarioRunner, get_scenario
from repro.scenarios.spec import DetectorSpec, ExecSpec, ScenarioError
from repro.scenarios.sweep import DETECTOR, parse_detector, run_axis_sweep

from helpers import rw_payload, shard_key


DETECTOR_SCENARIOS = (
    "detector-leader-crash",
    "gray-failure-slow-leader",
    "flapping-detector",
)


# ----------------------------------------------------------------------
# DetectorPolicy
# ----------------------------------------------------------------------

def test_detector_policy_validation():
    with pytest.raises(ValueError, match="mode"):
        DetectorPolicy(mode="psychic", interval=1.0).validate()
    with pytest.raises(ValueError, match="interval"):
        DetectorPolicy(interval=-1.0).validate()
    with pytest.raises(ValueError, match="threshold"):
        DetectorPolicy(interval=1.0, threshold=0).validate()
    with pytest.raises(ValueError, match="phi"):
        DetectorPolicy(mode="phi", interval=1.0, phi_threshold=0.0).validate()
    with pytest.raises(ValueError, match="confirmations"):
        DetectorPolicy(interval=1.0, confirmations=0).validate()
    assert not DetectorPolicy().enabled  # interval 0 = off, valid
    DetectorPolicy().validate()
    assert DetectorPolicy(interval=2.0).enabled
    assert DetectorPolicy().describe() == "off"


# ----------------------------------------------------------------------
# FailureDetector scoring
# ----------------------------------------------------------------------

def test_bounded_detector_suspects_after_threshold_windows():
    detector = FailureDetector(DetectorPolicy(interval=2.0, threshold=3), owner="s/r0")
    detector.watch(("s/r0", "s/r1"), now=0.0)  # the owner never watches itself
    assert detector.tick(4.0) == []  # 2 missed windows < 3
    assert detector.tick(6.0) == ["s/r1"]  # exactly 3: suspect
    assert detector.suspected == frozenset({"s/r1"})
    assert detector.suspicions == 1
    assert detector.tick(8.0) == []  # already suspected: reported once


def test_heartbeat_refutes_suspicion_and_counts_false_positive():
    detector = FailureDetector(DetectorPolicy(interval=2.0, threshold=3), owner="me")
    detector.watch(("slow",), now=0.0)
    assert detector.tick(6.0) == ["slow"]
    detector.record("slow", now=7.0)  # the peer was alive after all
    assert detector.suspected == frozenset()
    assert detector.false_suspicions == 1
    # Fresh silence after the refutation re-suspects (and re-reports).
    assert detector.tick(13.0) == ["slow"]
    assert detector.suspicions == 2


def test_phi_detector_scores_against_smoothed_interarrival_mean():
    policy = DetectorPolicy(mode="phi", interval=2.0, phi_threshold=4.0)
    detector = FailureDetector(policy, owner="me")
    detector.watch(("peer",), now=0.0)
    for at in (2.0, 4.0, 6.0, 8.0):
        detector.record("peer", at)  # steady 2-delay cadence
    assert detector.tick(12.0) == []  # silence 4 / mean ~2 = ~2 < 4
    assert detector.tick(18.0) == ["peer"]  # silence 10 / mean ~2 >= 4


def test_watch_keeps_history_and_gives_new_peers_benefit_of_the_doubt():
    detector = FailureDetector(DetectorPolicy(interval=2.0, threshold=3), owner="me")
    detector.watch(("old",), now=0.0)
    detector.record("old", now=5.0)
    detector.watch(("old", "fresh"), now=100.0)  # view change adds a member
    # The retained peer keeps its history (silent since 5.0: suspect); the
    # fresh peer starts with an implied arrival at the watch time and
    # cannot be suspected instantly.
    assert detector.tick(101.0) == ["old"]
    assert detector.score("fresh", 101.0) < detector.score("old", 101.0)
    detector.watch(("fresh",), now=102.0)  # "old" deposed: suspicion state drops
    assert detector.tick(200.0) == ["fresh"]
    detector.watch((), now=201.0)
    assert detector.suspected == frozenset()
    # Heartbeats from unwatched senders are ignored, not crashes.
    detector.record("stranger", now=202.0)


# ----------------------------------------------------------------------
# weak events: background activity never keeps the run alive
# ----------------------------------------------------------------------

def test_weak_recurring_timer_does_not_keep_run_alive():
    scheduler = Scheduler()
    fired = []

    def tick():
        fired.append(scheduler.now)
        scheduler.schedule_weak(2.0, tick)

    scheduler.schedule_weak(2.0, tick)
    assert scheduler.run() == 0  # only weak work: immediately quiescent
    assert fired == []
    # Strong work resumes the background ticks until it drains.
    scheduler.schedule(5.0, lambda: None)
    scheduler.run()
    assert fired == [2.0, 4.0]
    assert scheduler.pending == 1  # the re-armed weak tick stays queued
    assert scheduler.run() == 0  # ... and is no strong work
    assert fired == [2.0, 4.0]


def test_weak_delivery_does_not_keep_run_alive():
    """An in-flight heartbeat on a slow link must not stall quiescence —
    the gray-failure scenario's termination depends on this."""
    from repro.runtime.network import Network
    from repro.runtime.process import Process

    class Sink(Process):
        def __init__(self, pid):
            super().__init__(pid)
            self.got = []

        def on_heartbeat(self, msg, sender):  # noqa: ANN001
            self.got.append(msg)

    from repro.core.messages import Heartbeat

    scheduler = Scheduler()
    network = Network(scheduler)
    a, b = Sink("a"), Sink("b")
    network.register(a)
    network.register(b)
    network.add_extra_delay("a", "b", 7.0)
    a.send("b", Heartbeat(shard="s", epoch=1), weak=True)
    assert scheduler.run() == 0  # the weak delivery alone is quiescence
    assert b.got == []
    scheduler.schedule(20.0, lambda: None)  # strong work past the delivery
    scheduler.run()
    assert len(b.got) == 1  # ... lets the heartbeat land on the way


# ----------------------------------------------------------------------
# live clusters: silence -> suspicion -> view change -> pushed failover
# ----------------------------------------------------------------------

def _payloads(cluster, count, prefix):
    return [rw_payload(f"{prefix}{i}", tiebreak=f"{prefix}{i}") for i in range(count)]


def test_detector_drives_unsolicited_view_change_after_leader_crash():
    cluster = Cluster(
        num_shards=2,
        replicas_per_shard=3,
        seed=21,
        retry=RetryPolicy(timeout=30.0, backoff=1.5, max_attempts=6),
        detector=DetectorPolicy(interval=2.0, threshold=3),
    )
    decisions = cluster.certify_many(_payloads(cluster, 6, "warm"))
    assert all(d is not None for d in decisions.values())
    cluster.crash_leader("shard-0")  # nobody calls reconfigure()
    key = shard_key(cluster.scheme, "shard-0")
    decisions = cluster.certify_many(
        [rw_payload(f"{key}.{i}", tiebreak=f"post{i}") for i in range(6)]
    )
    assert all(d is not None for d in decisions.values())
    config = cluster.current_configuration("shard-0")
    assert config.epoch == 2  # the detector reconfigured the shard
    stats = cluster.detector_stats()
    assert stats["suspicions"] >= 1
    assert stats["view_changes"] >= 1
    assert stats["unsolicited_reconfigurations"] >= 1
    result, violations = cluster.check()
    assert result.ok and violations == []


def test_confirmation_quorum_holds_back_single_observer():
    cluster = Cluster(
        num_shards=2,
        replicas_per_shard=3,
        seed=21,
        retry=RetryPolicy(timeout=30.0, backoff=1.5, max_attempts=6),
        detector=DetectorPolicy(interval=2.0, threshold=3, confirmations=2),
    )
    leader = cluster.leader_of("shard-0")
    follower = cluster.followers_of("shard-0")[0]
    cluster.network.block(leader, follower)  # one observer goes deaf
    decisions = cluster.certify_many(_payloads(cluster, 12, "quorum"))
    assert all(d is not None for d in decisions.values())
    cluster.run()  # drain the suspicion report still in flight
    # One suspecting observer < confirmations: the service must not act.
    assert cluster.current_configuration("shard-0").epoch == 1
    stats = cluster.detector_stats()
    assert stats["view_changes"] == 0
    assert cluster.config_service.suspicion_reports >= 1


def test_rdma_detector_drives_global_reconfiguration():
    cluster = Cluster(
        num_shards=2,
        replicas_per_shard=3,
        protocol="rdma",
        seed=21,
        retry=RetryPolicy(timeout=30.0, backoff=1.5, max_attempts=6),
        detector=DetectorPolicy(interval=2.0, threshold=3),
    )
    decisions = cluster.certify_many(_payloads(cluster, 6, "rwarm"))
    assert all(d is not None for d in decisions.values())
    cluster.crash_leader("shard-0")
    key = shard_key(cluster.scheme, "shard-0")
    decisions = cluster.certify_many(
        [rw_payload(f"{key}.{i}", tiebreak=f"rpost{i}") for i in range(6)]
    )
    assert all(d is not None for d in decisions.values())
    assert cluster.current_configuration("shard-0").epoch >= 2
    stats = cluster.detector_stats()
    assert stats["suspicions"] >= 1
    assert stats["unsolicited_reconfigurations"] >= 1
    result, violations = cluster.check()
    assert result.ok and violations == []


def test_baseline_detector_is_passive():
    cluster = BaselineCluster(
        num_shards=2,
        failures_tolerated=1,
        seed=7,
        detector=DetectorPolicy(interval=2.0, threshold=3),
    )
    decisions = cluster.certify_many(_payloads(cluster, 8, "base"))
    assert all(d is Decision.COMMIT for d in decisions.values())
    stats = cluster.detector_stats()
    assert stats["heartbeat_ticks"] >= 1
    assert stats["suspicions"] == 0  # steady state: nobody is silent
    assert stats["view_changes"] == 0  # the baseline has no reconfiguration
    result, _ = cluster.check()
    assert result.ok


def test_disabled_detector_leaves_clusters_inert():
    cluster = Cluster(num_shards=2, replicas_per_shard=2, seed=3)
    decisions = cluster.certify_many(_payloads(cluster, 4, "off"))
    assert all(d is not None for d in decisions.values())
    stats = cluster.detector_stats()
    assert stats["heartbeat_ticks"] == 0
    assert stats["suspicions"] == 0
    assert not cluster.pump.started


# ----------------------------------------------------------------------
# the scenario pack
# ----------------------------------------------------------------------

def test_detector_scenarios_end_with_zero_undecided():
    for name in DETECTOR_SCENARIOS:
        result = ScenarioRunner(get_scenario(name)).run()
        assert result.passed, (name, result.check_reason)
        assert result.undecided == 0, name
        assert result.orphaned == 0, name


def test_detector_leader_crash_recovers_before_the_retry_window():
    result = ScenarioRunner(get_scenario("detector-leader-crash")).run()
    assert result.view_changes >= 1
    assert result.unsolicited_reconfigurations >= 1
    assert result.pushed_failovers >= 1
    assert result.recovery_times  # the crash was followed by an install
    # Well inside the 30-delay retry timeout that timeout-driven failover
    # would have burned first.
    assert max(result.recovery_times) < 30.0


def test_detector_failover_beats_timeout_failover_by_2x():
    detector = ScenarioRunner(get_scenario("detector-leader-crash")).run()
    timeout = ScenarioRunner(get_scenario("timeout-failover-leader-crash")).run()
    assert detector.recovery_times and timeout.recovery_times
    ratio = min(timeout.recovery_times) / max(detector.recovery_times)
    assert ratio >= 2.0, (timeout.recovery_times, detector.recovery_times)


def test_gray_failure_deposes_slow_but_alive_leader():
    result = ScenarioRunner(get_scenario("gray-failure-slow-leader")).run()
    assert result.suspicions >= 1
    assert result.view_changes >= 1  # bounded mode cannot tell slow from dead
    assert result.unsolicited_reconfigurations >= 1
    assert result.false_suspicions >= 1  # the late heartbeats did arrive


def test_flapping_detector_counts_false_positive_without_view_change():
    result = ScenarioRunner(get_scenario("flapping-detector")).run()
    assert result.false_suspicions >= 1
    assert result.view_changes == 0  # 1 reporter < confirmations=2
    assert result.unsolicited_reconfigurations == 0


def test_detector_scenarios_parallel_shards_digests_identical():
    """The parallel-shards spelling is a serial run: heartbeats, suspicions
    and pushed failovers replay it byte for byte."""
    for name in DETECTOR_SCENARIOS:
        spec = get_scenario(name)
        serial = ScenarioRunner(replace(spec, execution=ExecSpec())).run()
        spelled = ScenarioRunner(
            replace(spec, execution=ExecSpec(mode="parallel-shards", groups=2))
        ).run()
        assert json.dumps(serial.as_dict(), sort_keys=True) == json.dumps(
            spelled.as_dict(), sort_keys=True
        ), name


# ----------------------------------------------------------------------
# the detector sweep
# ----------------------------------------------------------------------

def test_parse_detector_points():
    assert parse_detector("off") == DetectorSpec()
    point = parse_detector("2:threshold=6")
    assert (point.interval, point.threshold, point.mode) == (2.0, 6, "bounded")
    point = parse_detector("2:mode=phi,phi=6")
    assert (point.mode, point.phi_threshold) == ("phi", 6.0)
    point = parse_detector("1:confirmations=2")
    assert (point.interval, point.confirmations) == (1.0, 2)
    with pytest.raises(ScenarioError):
        parse_detector("fast")
    with pytest.raises(ScenarioError):
        parse_detector("2:bogus=1")
    with pytest.raises(ScenarioError):
        parse_detector("2:mode=psychic")
    assert DETECTOR.parse(["default"]) == DETECTOR.stock


def test_detector_grid_sorts_the_off_point_first():
    ordered = DETECTOR.sort(tuple(reversed(DETECTOR.stock)))
    assert ordered[0] == DetectorSpec()  # interval 0 sorts first
    assert [p.interval for p in ordered] == sorted(p.interval for p in ordered)


def test_detector_sweep_recovers_faster_with_aggressive_policies():
    spec = get_scenario("detector-leader-crash")
    grid = (
        DetectorSpec(),
        DetectorSpec(interval=1.0, threshold=3),
        DetectorSpec(interval=4.0, threshold=3),
    )
    sweep = run_axis_sweep(spec, DETECTOR, grid)
    assert sweep.passed
    curve = sweep.curve()
    off, fast, slow = curve
    assert off["mean_ttr"] is None  # never recovered: nothing reconfigures
    assert off["orphaned"] > 0
    assert fast["mean_ttr"] < slow["mean_ttr"]
    assert fast["orphaned"] == slow["orphaned"] == 0
