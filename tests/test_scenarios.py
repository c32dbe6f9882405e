"""Tests for the scenario engine: spec validation, fault scheduling,
decision watchers, determinism and the CLI."""

from dataclasses import replace

import pytest

from repro.cluster import Cluster, protocol_names, protocol_spec
from repro.core.messages import CertifyRequest
from repro.core.serializability import TransactionPayload
from repro.core.types import Decision
from repro.scenarios import (
    LATENCY,
    BatchSpec,
    ExecSpec,
    FaultStep,
    LatencySpec,
    NetworkSpec,
    RetrySpec,
    ScenarioError,
    ScenarioRunner,
    ScenarioSpec,
    WorkloadSpec,
    get_scenario,
    run_axis_sweep,
    run_scenario,
    run_sweep,
    scenario_names,
)
from repro.scenarios.__main__ import main as scenarios_main
from repro.scenarios.spec import DetectorSpec, ReadSpec
from repro.spec.history import History

from helpers import oracle_check, run_recorded, sweep_point


# ----------------------------------------------------------------------
# spec validation
# ----------------------------------------------------------------------
def test_spec_rejects_unknown_protocol():
    with pytest.raises(ScenarioError, match="unknown protocol"):
        ScenarioSpec(name="x", protocol="carrier-pigeon").validate()


def test_spec_rejects_unknown_fault_action():
    with pytest.raises(ScenarioError, match="unknown fault action"):
        FaultStep(at=1.0, action="set-on-fire").validate()


def test_spec_rejects_shardless_crash_leader():
    with pytest.raises(ScenarioError, match="requires a shard"):
        FaultStep(at=1.0, action="crash-leader").validate()


def test_spec_rejects_late_channel_delay():
    with pytest.raises(ScenarioError, match="setup step"):
        FaultStep(at=5.0, action="delay-channel", src="a", dst="b", delay=1.0).validate()


def test_spec_rejects_baseline_with_faults():
    spec = ScenarioSpec(
        name="x",
        protocol="2pc-paxos",
        replicas_per_shard=3,
        faults=(FaultStep(at=1.0, action="crash-leader", shard="shard-0"),),
    )
    with pytest.raises(ScenarioError, match="baseline"):
        spec.validate()


@pytest.mark.parametrize(
    "role", ["leader:shard-0", "follower:shard-0", "member:shard-0:1", "config-service"]
)
def test_spec_rejects_role_pinned_coordinator_on_baseline(role):
    """The baseline coordinates through dedicated processes: a shard role or
    the configuration service used to end in NotImplementedError or
    AttributeError deep inside the run."""
    spec = ScenarioSpec(
        name="x",
        protocol="2pc-paxos",
        replicas_per_shard=3,
        workload=WorkloadSpec(kind="spanning", coordinator=role),
    )
    with pytest.raises(ScenarioError, match="'coordinator-0'"):
        spec.validate()


def test_baseline_runs_with_a_literal_pinned_coordinator():
    spec = ScenarioSpec(
        name="x",
        protocol="2pc-paxos",
        replicas_per_shard=3,
        workload=WorkloadSpec(kind="spanning", txns=6, coordinator="coordinator-0"),
    )
    runner = ScenarioRunner(spec)
    result = runner.run()
    assert result.committed == 6 and result.safety_ok
    coordinators = {c.pid: set(c.transactions) for c in runner.cluster.coordinators}
    assert coordinators["coordinator-0"] == set(runner.cluster.client.submit_times)
    assert not any(txns for pid, txns in coordinators.items() if pid != "coordinator-0")


def test_spec_rejects_bad_workload():
    with pytest.raises(ScenarioError, match="writes_per_txn"):
        WorkloadSpec(kind="uniform", reads_per_txn=1, writes_per_txn=2).validate()
    with pytest.raises(ScenarioError, match="unknown workload kind"):
        WorkloadSpec(kind="chaos").validate()
    with pytest.raises(ScenarioError, match="coordinator"):
        WorkloadSpec(kind="uniform", coordinator="leader:shard-0").validate()


def test_with_overrides_revalidates():
    spec = get_scenario("steady-state")
    with pytest.raises(ScenarioError):
        spec.with_overrides(protocol="nope")
    assert spec.with_overrides(seed=9).seed == 9
    # The original is untouched (specs are frozen values).
    assert spec.seed != 9 or spec is not spec.with_overrides(seed=9)


@pytest.mark.parametrize(
    "overrides, match",
    [
        # Set, validated, and then changed nothing: now one-line errors.
        (dict(workload=WorkloadSpec(sessions=4)), "sessions only count .* think_time > 0"),
        # The converse defect: `groups` was checked although the mode is serial.
        (dict(execution=ExecSpec(mode="serial", groups=1)), None),
        # Stop-and-wait holds dispatches that only decisions re-drive: a run
        # with faults strands them (undecided and orphaned transactions).
        (dict(network=NetworkSpec(pipeline=False),
              faults=(FaultStep(at=5.0, action="crash-leader", shard="shard-0"),)),
         "stop-and-wait .* models a failure-free run"),
    ],
    ids=["sessions-without-think-time", "serial-ignores-groups",
         "stop-and-wait-under-faults"],
)
def test_options_that_change_nothing_are_rejected_and_unused_ones_are_not_checked(overrides, match):
    spec = get_scenario("steady-state")
    if match is None:
        assert spec.with_overrides(**overrides).execution.groups == 1
    else:
        with pytest.raises(ScenarioError, match=match):
            spec.with_overrides(**overrides)


def test_the_stricter_rules_cost_no_existing_experiment():
    """``groups`` is still checked under the parallel-shards spelling, and every golden case
    key still names a valid spec (the library itself is covered by
    test_every_library_scenario_still_validates)."""
    from test_golden_digests import GOLDEN, _spec_for

    with pytest.raises(ScenarioError, match="at least two groups"):
        ExecSpec(mode="parallel-shards", groups=1).validate()
    assert GOLDEN and all(_spec_for(key) is not None for key in GOLDEN)


# Every value the four subsystem policies reject (and a sample of what the
# two network models reject), with the message text, and the CLI word that
# reaches it where the subsystem has a sweep grammar.  The policy and model
# classes are the spec fields themselves (BatchSpec is BatchPolicy, ...), so
# one validate() per value serves all three doors below.
POLICY_REJECTIONS = [
    ("batch", BatchSpec(size=-1), "batch size must be >= 0", "--batch=-1"),
    ("batch", BatchSpec(size=8, linger=-1.0, adaptive=False),
     "batch linger must be >= 0", "--batch=8:linger=-1"),
    ("batch", BatchSpec(size=8, linger=2.0, adaptive=True),
     "adaptive batching flushes at the end of the current instant; "
     "set adaptive=False to use a linger time cap", "--batch=8:linger=2,adaptive=true"),
    ("batch", BatchSpec(size=8, adaptive=False),
     "non-adaptive batching requires a positive linger: a size cap "
     "alone cannot flush a partial batch", "--batch=8:adaptive=false"),
    ("retry", RetrySpec(timeout=-1.0), "retry timeout must be >= 0", None),
    ("retry", RetrySpec(timeout=1.0, backoff=0.5), "retry backoff must be >= 1", None),
    ("retry", RetrySpec(timeout=1.0, max_attempts=0), "retry max_attempts must be >= 1", None),
    ("read", ReadSpec(mode="psychic"),
     "unknown read mode 'psychic'; expected one of "
     "('certified', 'snapshot', 'broken-snapshot')", None),
    ("read", ReadSpec(mode="snapshot", lease=-1.0), "lease duration must be positive", None),
    ("detector", DetectorSpec(mode="psychic", interval=1.0),
     "unknown detector mode 'psychic'; expected one of ('bounded', 'phi')",
     "--detector=1:mode=psychic"),
    ("detector", DetectorSpec(interval=-1.0),
     "heartbeat interval must be >= 0 (0 = detector off)", "--detector=-1"),
    ("detector", DetectorSpec(interval=1.0, threshold=0),
     "suspicion threshold must be >= 1 missed window", "--detector=1:threshold=0"),
    ("detector", DetectorSpec(mode="phi", interval=1.0, phi_threshold=0.0),
     "phi threshold must be positive", "--detector=1:phi=0"),
    ("detector", DetectorSpec(interval=1.0, confirmations=0),
     "confirmations must be >= 1", "--detector=1:confirmations=0"),
    ("latency", LatencySpec(model="fixed", value=0.0),
     "fixed latency requires a positive value", "--latency=fixed:value=0"),
    ("network", NetworkSpec(bandwidth=-1.0),
     "network bandwidth must be >= 0 (0 = unlimited)", "--bandwidth=-1"),
]


@pytest.mark.parametrize(
    "field, policy, message, cli_word", POLICY_REJECTIONS,
    ids=[f"{field}-{index}" for index, (field, *_rest) in enumerate(POLICY_REJECTIONS)],
)
def test_every_policy_rejection_reads_the_same_through_all_three_doors(
    field, policy, message, cli_word, capsys
):
    # Door 1: a scenario spec turns it into its own error type.
    with pytest.raises(ScenarioError) as spec_error:
        ScenarioSpec(name="x", **{field: policy}).validate()
    assert str(spec_error.value) == message
    # Door 2: a cluster built directly raises the policy's plain ValueError.
    with pytest.raises(ValueError) as cluster_error:
        Cluster(num_shards=1, replicas_per_shard=2, **{field: policy})
    assert str(cluster_error.value) == message
    assert not isinstance(cluster_error.value, ScenarioError)
    # Door 3: the CLI exits 2 with one `error:` line and no traceback.
    if cli_word is not None:
        with pytest.raises(SystemExit) as exit_info:
            scenarios_main(["sweep", "steady-state", cli_word])
        assert exit_info.value.code == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_fault_schedule_orders_by_time_then_declaration():
    spec = ScenarioSpec(
        name="x",
        faults=(
            FaultStep(at=20.0, action="retry-stalled"),
            FaultStep(at=0.0, action="heal"),
            FaultStep(at=20.0, action="reconfigure", shard="shard-0"),
            FaultStep(at=5.0, action="crash-leader", shard="shard-0"),
        ),
    )
    ordered = [(step.at, step.action) for step in spec.fault_schedule]
    assert ordered == [
        (0.0, "heal"),
        (5.0, "crash-leader"),
        (20.0, "retry-stalled"),
        (20.0, "reconfigure"),
    ]


# ----------------------------------------------------------------------
# fault execution
# ----------------------------------------------------------------------
def test_fault_schedule_executes_in_order():
    spec = ScenarioSpec(
        name="fault-order",
        num_shards=2,
        workload=WorkloadSpec(kind="uniform", txns=40, batch=8, num_keys=64),
        faults=(
            FaultStep(at=20.5, action="crash-follower", shard="shard-0"),
            FaultStep(at=21.5, action="reconfigure", shard="shard-0"),
            FaultStep(at=60.5, action="retry-stalled"),
        ),
    )
    runner = ScenarioRunner(spec)
    result = runner.run()
    assert result.passed
    kinds = [note.split(": ", 1)[1].split(" ")[0] for note in result.faults_executed]
    assert kinds == ["crash", "reconfigure", "retry"]
    times = [float(note.split(":", 1)[0][2:]) for note in result.faults_executed]
    assert times == sorted(times)
    # The reconfiguration auto-suspected the crashed follower and moved past it.
    assert runner.cluster.current_configuration("shard-0").epoch == 2


def test_setup_steps_apply_before_workload():
    spec = ScenarioSpec(
        name="setup-delay",
        num_shards=2,
        workload=WorkloadSpec(kind="uniform", txns=5, batch=5, num_keys=16),
        faults=(
            FaultStep(at=0.0, action="delay-channel",
                      src="leader:shard-0", dst="follower:shard-0", delay=7.0),
        ),
    )
    runner = ScenarioRunner(spec)
    result = runner.run()
    assert result.passed
    assert result.faults_executed[0].startswith("t=0:")


def test_crash_leader_under_load_recovers_every_transaction():
    result = run_scenario(get_scenario("leader-crash-under-load"))
    assert result.passed
    assert result.undecided == 0
    assert result.committed > 0


def test_ablation_scenario_reports_expected_violation():
    result = run_scenario(get_scenario("ablation-safety-demo"))
    assert not result.safety_ok
    assert result.contradictions > 0
    assert result.passed  # unsafe was the expectation


# ----------------------------------------------------------------------
# check modes
# ----------------------------------------------------------------------
def test_spec_rejects_unknown_check_mode():
    with pytest.raises(ScenarioError, match="unknown check_mode"):
        ScenarioSpec(name="x", check_mode="psychic").validate()


def test_final_check_mode_is_refused_naming_the_modes():
    """``final`` replayed the finished history through the online checker:
    its verdict was the online one, and a history keeps no events to
    replay, so the mode is gone and a spec asking for it says which exist."""
    with pytest.raises(ScenarioError, match=r"unknown check_mode 'final'.*'off', 'online'"):
        ScenarioSpec(name="x", check_mode="final").validate()


def test_check_mode_round_trip():
    """off / online agree on a safe run; the mode is carried through to the
    result and its dict form, and "off" leaves no checker subscribed."""
    spec = get_scenario("steady-state").with_overrides(
        workload=replace(get_scenario("steady-state").workload, txns=40)
    )
    results = {mode: run_scenario(spec, check_mode=mode) for mode in ("off", "online")}
    off = ScenarioRunner(spec.with_overrides(check_mode="off"))
    history = off.build().history
    assert off.checker is off.monitor is off.cluster.checker is None
    assert not (history._certify_listeners or history._contradiction_listeners)
    with pytest.raises(RuntimeError, match="stopped"):
        off.cluster.check()
    for mode, result in results.items():
        assert result.check_mode == mode
        assert result.as_dict()["check_mode"] == mode
        assert result.check_ok and result.passed
        assert result.check_reason == ""
    # The verdict-independent metrics are identical across modes.
    base = {k: v for k, v in results["off"].as_dict().items()
            if k not in ("check_mode", "check_reason")}
    other = {k: v for k, v in results["online"].as_dict().items()
             if k not in ("check_mode", "check_reason")}
    assert other == base


def test_online_mode_flags_ablation_with_reason():
    result = run_scenario(get_scenario("ablation-safety-demo"), check_mode="online")
    assert not result.safety_ok
    assert result.passed
    assert "contradictory" in result.check_reason


def test_online_verdict_equals_the_oracle_under_faults():
    """The one shipped checker, attached before the first event, reaches
    the batch oracle's verdict on the whole history at quiescence: what
    the removed "final" mode computed by replaying it.  Cluster.check()
    reads the same checker."""
    runner, result = run_recorded(get_scenario("leader-crash-under-load"))
    oracle = oracle_check(runner)
    assert (result.check_ok, result.check_reason) == (oracle.ok, oracle.reason)
    assert result.passed
    assert runner.checker is runner.cluster.checker
    checked, _violations = runner.cluster.check()
    assert (checked.ok, checked.reason) == (oracle.ok, oracle.reason)


# ----------------------------------------------------------------------
# fault-matrix scenario pack
# ----------------------------------------------------------------------
def test_spec_rejects_partition_without_target():
    with pytest.raises(ScenarioError, match="requires a target"):
        FaultStep(at=1.0, action="partition").validate()


def test_spec_rejects_block_channel_without_endpoints():
    with pytest.raises(ScenarioError, match="requires src and dst"):
        FaultStep(at=1.0, action="block-channel", src="a").validate()


@pytest.mark.parametrize(
    "step, match",
    [
        (FaultStep(3, "crash-leader", shard="shard-9"), "fault step 0.*unknown shard 'shard-9'"),
        (FaultStep(3, "crash", target="leader:shard-9"), "fault step 0.*unknown shard 'shard-9'"),
        (FaultStep(3, "reconfigure", shard="shard-9"), "fault step 0.*unknown shard 'shard-9'"),
        (FaultStep(3, "crash", target="follower:shard-0:x"), "fault step 0.*integer index"),
        (FaultStep(3, "crash", target="nobody"), "'nobody' names no process"),
        (FaultStep(3, "partition", target="nobody"), "'nobody' names no process"),
        (
            FaultStep(3, "block-channel", src="nobody", dst="leader:shard-0"),
            "'nobody' names no process",
        ),
    ],
)
@pytest.mark.parametrize("protocol", ["message-passing", "rdma"])
def test_fault_schedule_naming_what_the_spec_lacks_fails_in_one_line(protocol, step, match):
    """A shard or role index the spec cannot have is rejected by
    ``validate()``; a literal pid the built cluster does not know by
    ``resolve()`` — never an AttributeError / KeyError mid-run, and never a
    fault reported as executed against nobody."""
    spec = ScenarioSpec(
        name="bad-names", protocol=protocol, workload=WorkloadSpec(txns=20), faults=(step,)
    )
    with pytest.raises(ScenarioError, match=match) as error:
        run_scenario(spec)
    assert "\n" not in str(error.value)


def test_spec_rejects_unknown_shard_in_suspects_and_pinned_coordinator():
    step = FaultStep(3, "reconfigure", shard="shard-0", suspects=("member:shard-7:0",))
    with pytest.raises(ScenarioError, match="unknown shard 'shard-7'"):
        ScenarioSpec(name="x", faults=(step,)).validate()
    workload = WorkloadSpec(kind="spanning", coordinator="leader:shard-2")
    with pytest.raises(ScenarioError, match="workload.coordinator.*unknown shard 'shard-2'"):
        ScenarioSpec(name="x", workload=workload).validate()


def test_every_library_scenario_still_validates():
    for name in scenario_names():
        get_scenario(name).validate()


def test_scenario_pack_registered():
    names = set(scenario_names())
    assert {"follower-partition", "cascading-crashes",
            "config-service-outage", "closed-loop-think"} <= names


@pytest.mark.parametrize(
    "name", ["follower-partition", "cascading-crashes", "config-service-outage"]
)
def test_fault_matrix_scenarios_stay_safe(name):
    result = run_scenario(get_scenario(name))
    assert result.passed
    assert result.committed > 0
    assert result.faults_executed  # the schedule actually fired


def test_partition_blocks_messages_until_heal():
    spec = ScenarioSpec(
        name="partition-probe",
        num_shards=2,
        workload=WorkloadSpec(kind="uniform", txns=30, batch=6, num_keys=64),
        faults=(
            FaultStep(at=10.5, action="partition", target="follower:shard-0"),
            FaultStep(at=60.5, action="heal"),
        ),
    )
    result = ScenarioRunner(spec).run()
    assert result.passed
    assert result.messages_sent > result.messages_delivered  # drops happened


# ----------------------------------------------------------------------
# closed-loop clients with think times
# ----------------------------------------------------------------------
def test_spec_rejects_negative_think_time_and_spanning_think():
    with pytest.raises(ScenarioError, match="think_time"):
        WorkloadSpec(think_time=-1.0).validate()
    with pytest.raises(ScenarioError, match="closed-loop"):
        WorkloadSpec(kind="spanning", think_time=2.0).validate()


def test_closed_loop_decides_every_transaction():
    result = run_scenario(get_scenario("closed-loop-think"))
    assert result.passed
    assert result.undecided == 0
    assert result.committed + result.aborted == result.txns_submitted == 120


def test_think_time_stretches_virtual_duration():
    base = get_scenario("steady-state").with_overrides(
        workload=replace(get_scenario("steady-state").workload, txns=40)
    )
    eager = ScenarioRunner(base.with_overrides(
        workload=replace(base.workload, think_time=0.001, sessions=8)
    )).run()
    thinky = ScenarioRunner(base.with_overrides(
        workload=replace(base.workload, think_time=10.0, sessions=8)
    )).run()
    assert eager.passed and thinky.passed
    assert thinky.duration > eager.duration


def test_closed_loop_is_deterministic():
    spec = get_scenario("closed-loop-think")
    first = ScenarioRunner(spec).run()
    second = ScenarioRunner(spec).run()
    assert first.as_dict() == second.as_dict()


# ----------------------------------------------------------------------
# latency sweeps and the WAN pack
# ----------------------------------------------------------------------
def test_spec_rejects_bad_latency():
    with pytest.raises(ScenarioError, match="unknown latency model"):
        ScenarioSpec(name="x", latency=LatencySpec(model="warp")).validate()


def test_latency_sweep_runs_grid_in_order():
    spec = get_scenario("steady-state").with_overrides(
        workload=replace(get_scenario("steady-state").workload, txns=30)
    )
    sweep = run_axis_sweep(spec, LATENCY)
    assert sweep.passed
    assert [label for label, _ in sweep.points] == [p.describe() for p in LATENCY.stock]
    assert len(sweep.curve()) == len(LATENCY.stock) >= 3
    # Every point ran the same workload; only the delay distribution varied.
    for _, result in sweep.points:
        assert result.txns_submitted == 30
        assert result.phases is not None
    assert sweep_point(sweep, "unit").latency.mean == pytest.approx(6.0)


def test_latency_sweep_is_deterministic():
    import json

    spec = get_scenario("steady-state").with_overrides(
        workload=replace(get_scenario("steady-state").workload, txns=30)
    )
    grid = (
        LatencySpec(),
        LatencySpec(model="exponential", mean=1.0),
        LatencySpec(model="lognormal", mean=1.5, sigma=0.8),
    )
    first = run_axis_sweep(spec, LATENCY, grid)
    second = run_axis_sweep(spec, LATENCY, grid)
    assert json.dumps(first.as_dict(), sort_keys=True) == json.dumps(
        second.as_dict(), sort_keys=True
    )


def test_phase_breakdown_separates_protocol_from_network_cost():
    """Doubling every link delay (fixed:2 vs unit) must double the pure
    network phases while the certify phase scales with its message count —
    the property that makes sweep curves interpretable."""
    base = get_scenario("steady-state").with_overrides(
        workload=replace(get_scenario("steady-state").workload, txns=30)
    )
    unit = ScenarioRunner(base).run()
    doubled = ScenarioRunner(
        base.with_overrides(latency=LatencySpec(model="fixed", value=2.0))
    ).run()
    assert unit.phases.submit_to_certify.mean == pytest.approx(1.0)
    assert doubled.phases.submit_to_certify.mean == pytest.approx(2.0)
    assert doubled.phases.decide_to_client.mean == pytest.approx(
        2 * unit.phases.decide_to_client.mean
    )
    assert doubled.phases.certify_to_decide.mean == pytest.approx(
        2 * unit.phases.certify_to_decide.mean
    )


def test_wan_pack_registered():
    assert {"wan-steady-state", "wan-cross-region-contention",
            "wan-leader-crash", "wan-heavy-tail"} <= set(scenario_names())


@pytest.mark.parametrize(
    "name",
    ["wan-steady-state", "wan-cross-region-contention",
     "wan-leader-crash", "wan-heavy-tail"],
)
def test_wan_scenarios_stay_safe(name):
    result = run_scenario(get_scenario(name))
    assert result.passed
    assert result.committed > 0
    # The WAN pack decides everything: wan-leader-crash used to lose a few
    # certify requests in flight to the crashed coordinator, but the client
    # sessions now re-submit them after the timeout (see the scenario
    # description), so even it must reach zero undecided transactions.
    assert result.undecided == 0
    if name == "wan-leader-crash":
        assert result.retries > 0
        assert result.orphaned == 0


def test_wan_latency_reflects_cross_region_links():
    """The 3-region commit path costs several cross-region hops: client
    latency under the WAN model must be far above the unit-latency variant
    of the same workload."""
    wan = run_scenario(get_scenario("wan-steady-state"))
    unit = run_scenario(
        get_scenario("wan-steady-state"), latency=LatencySpec()
    )
    assert wan.passed and unit.passed
    assert wan.latency.mean > 2 * unit.latency.mean


# ----------------------------------------------------------------------
# the resilience pack: client sessions, failover, duplicate-safe delivery
# ----------------------------------------------------------------------
def test_resilience_pack_registered():
    assert {"coordinator-crash-storm", "failover-under-wan-tail",
            "duplicate-delivery-fuzz"} <= set(scenario_names())


def test_spec_rejects_bad_retry():
    with pytest.raises(ScenarioError, match="retry timeout"):
        ScenarioSpec(name="x", retry=RetrySpec(timeout=-1.0)).validate()
    with pytest.raises(ScenarioError, match="backoff"):
        ScenarioSpec(name="x", retry=RetrySpec(timeout=1.0, backoff=0.5)).validate()
    with pytest.raises(ScenarioError, match="max_attempts"):
        ScenarioSpec(name="x", retry=RetrySpec(timeout=1.0, max_attempts=0)).validate()


def test_retry_spec_describe():
    assert RetrySpec().describe() == "off"
    assert RetrySpec(timeout=30.0, backoff=1.5, max_attempts=6).describe() == (
        "timeout=30,backoff=1.5,max_attempts=6"
    )


@pytest.mark.parametrize(
    "name", ["coordinator-crash-storm", "failover-under-wan-tail"]
)
def test_failover_scenarios_decide_everything(name):
    result = run_scenario(get_scenario(name))
    assert result.passed
    assert result.undecided == 0
    assert result.orphaned == 0
    assert result.retries > 0  # sessions actually routed around the crashes
    assert result.failovers > 0
    assert result.committed > 0


def test_duplicate_delivery_fuzz_preserves_decision_uniqueness():
    result = run_scenario(get_scenario("duplicate-delivery-fuzz"))
    assert result.passed
    assert result.check_mode == "online"
    assert result.undecided == 0
    assert result.contradictions == 0
    # The sub-RTT timeout really did flood the coordinators with duplicates,
    # and they answered from decision caches instead of re-certifying.
    assert result.retries >= result.txns_submitted
    assert result.duplicate_requests > 0
    assert result.as_dict()["retry_model"].startswith("timeout=3")


def test_retry_metrics_are_zero_without_sessions():
    result = run_scenario(get_scenario("steady-state"))
    assert result.retry_model == "off"
    assert result.retries == result.failovers == result.orphaned == 0
    assert result.duplicate_requests == 0


def test_retry_scenarios_are_deterministic():
    spec = get_scenario("duplicate-delivery-fuzz")
    first = ScenarioRunner(spec).run()
    second = ScenarioRunner(spec).run()
    assert first.as_dict() == second.as_dict()


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "scenario,overrides",
    [
        ("steady-state", {"workload": replace(get_scenario("steady-state").workload, txns=40)}),
        ("rdma-steady-state", {"workload": replace(get_scenario("rdma-steady-state").workload, txns=40)}),
        ("ablation-safety-demo", {}),
    ],
    ids=["message-passing", "rdma", "broken-rdma"],
)
def test_same_seed_same_result(scenario, overrides):
    spec = get_scenario(scenario)
    if overrides:
        spec = spec.with_overrides(**overrides)
    first = ScenarioRunner(spec).run()
    second = ScenarioRunner(spec).run()
    # as_dict excludes wall-clock time; everything else must be identical.
    assert first.as_dict() == second.as_dict()


def test_different_seed_changes_workload():
    spec = get_scenario("hot-key-contention").with_overrides(
        workload=replace(get_scenario("hot-key-contention").workload, txns=40)
    )
    base = ScenarioRunner(spec).run()
    other = ScenarioRunner(spec.with_overrides(seed=99)).run()
    assert base.as_dict() != other.as_dict()


# ----------------------------------------------------------------------
# decision watchers
# ----------------------------------------------------------------------
def test_watcher_tracks_explicit_transactions():
    history = History()
    history.record_certify("t1", None, 0.0)
    history.record_certify("t2", None, 0.0)
    with history.watch(["t1", "t2"]) as watcher:
        assert not watcher.is_done()
        history.record_decide("t1", Decision.COMMIT, 1.0)
        assert watcher.outstanding == 1
        history.record_decide("t2", Decision.ABORT, 2.0)
        assert watcher.is_done()


def test_watcher_tracks_future_certifies_in_all_mode():
    history = History()
    with history.watch() as watcher:
        assert watcher.is_done()  # nothing pending yet
        history.record_certify("t1", None, 0.0)
        assert not watcher.is_done()
        history.record_decide("t1", Decision.COMMIT, 1.0)
        assert watcher.is_done()
    # Closed: listeners removed, later events do not reach the watcher.
    history.record_certify("t2", None, 2.0)
    assert watcher.is_done()


def test_client_records_a_decision_once_per_transaction():
    """The first decision of a transaction to reach the client is recorded;
    a re-answered duplicate counts in ``duplicate_decisions`` and changes
    nothing else."""
    cluster = Cluster(num_shards=2, replicas_per_shard=2, seed=1)
    client = cluster.client
    payload = TransactionPayload.make(
        reads=[("k", (0, ""))], writes=[("k", 1)], tiebreak="t"
    )
    coordinator = cluster.members_of("shard-1")[0]
    txn = cluster.submit(payload, coordinator=coordinator)
    assert cluster.run_until_decided([txn])
    cluster.run()
    decided = dict(client.decide_times)
    assert decided.keys() == {txn} and client.duplicate_decisions == 0
    client.send(coordinator, CertifyRequest(txn=txn, payload=payload, request_id=2))
    cluster.run()  # the coordinator re-answers from its decision cache
    assert client.duplicate_decisions == 1
    assert client.decide_times == decided
    assert cluster.history.decided() == {txn: Decision.COMMIT}
    assert cluster.history.contradictions == []


def test_run_until_decided_does_not_rescan_history(monkeypatch):
    """The decision-watcher path: the per-event predicate must not evaluate
    the full history (the old implementation called ``decision_of`` once per
    transaction per fired event)."""
    cluster = Cluster(num_shards=2, replicas_per_shard=2, seed=3)
    payloads = [
        TransactionPayload.make(
            reads=[(f"k{i}", (0, ""))], writes=[(f"k{i}", i)], tiebreak=str(i)
        )
        for i in range(20)
    ]
    txns = [cluster.submit(p) for p in payloads]

    calls = {"decision_of": 0, "certified": 0}
    original_decision_of = cluster.history.decision_of
    original_certified = cluster.history.certified

    def counting_decision_of(txn):
        calls["decision_of"] += 1
        return original_decision_of(txn)

    def counting_certified():
        calls["certified"] += 1
        return original_certified()

    monkeypatch.setattr(cluster.history, "decision_of", counting_decision_of)
    monkeypatch.setattr(cluster.history, "certified", counting_certified)
    assert cluster.run_until_decided(txns)
    events = cluster.scheduler.events_fired
    assert events > 50  # the run actually did work
    # Watcher setup checks each txn once; per-event cost is an O(1) counter.
    assert calls["decision_of"] <= len(txns)
    assert calls["certified"] == 0
    for txn in txns:
        assert original_decision_of(txn) is not None


# ----------------------------------------------------------------------
# protocol registry
# ----------------------------------------------------------------------
def test_protocol_registry_knows_all_variants():
    assert set(protocol_names()) >= {"message-passing", "rdma", "broken-rdma"}
    assert protocol_spec("rdma").global_config
    assert not protocol_spec("message-passing").global_config


def test_protocol_registry_rejects_unknowns():
    with pytest.raises(ValueError, match="unknown protocol"):
        protocol_spec("smoke-signals")
    with pytest.raises(ValueError, match="unknown protocol"):
        Cluster(protocol="smoke-signals")


def test_broken_rdma_post_build_opens_all_connections():
    cluster = Cluster(num_shards=2, replicas_per_shard=2, protocol="broken-rdma")
    replica = next(iter(cluster.replicas.values()))
    assert len(replica.rdma.connections) == len(cluster.replicas) - 1


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_list(capsys):
    assert scenarios_main(["list"]) == 0
    out = capsys.readouterr().out
    for name in scenario_names():
        assert name in out


def test_cli_run_shorthand_and_overrides(capsys):
    assert scenarios_main(["steady-state", "--txns", "20", "--json"]) == 0
    import json

    data = json.loads(capsys.readouterr().out)
    assert data["txns_submitted"] == 20
    assert data["passed"] is True


def test_cli_run_accepts_multiple_scenarios(capsys):
    import json

    from repro.scenarios.__main__ import main

    code = main(["run", "steady-state", "bank-transfers", "--txns", "20", "--json"])
    assert code == 0
    document = json.loads(capsys.readouterr().out)
    assert set(document) == {"steady-state", "bank-transfers"}


def test_cli_run_of_several_scenarios_equals_each_run_alone(capsys):
    """What lets ``xargs -P`` fan runs out from the shell: each entry of a
    multi-scenario ``run --json`` is what ``run NAME --json`` prints for
    that scenario alone, whichever ran first."""
    import json

    from repro.scenarios.__main__ import main

    names = ["steady-state", "bank-transfers", "leader-crash-under-load"]
    assert main(["run", *names, "--txns", "20", "--json"]) == 0
    together = json.loads(capsys.readouterr().out)
    for name in reversed(names):
        assert main(["run", name, "--txns", "20", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == together[name]


def test_run_sweep_equals_each_protocol_run_alone():
    spec = get_scenario("steady-state")
    spec = spec.with_overrides(workload=replace(spec.workload, txns=30))
    protocols = ("message-passing", "rdma")
    outcomes = run_sweep(spec, protocols)
    assert list(outcomes) == list(protocols)
    for protocol in reversed(protocols):
        alone = run_scenario(spec.with_overrides(protocol=protocol))
        assert alone.as_dict() == outcomes[protocol].as_dict()


def test_cli_check_mode_and_think_time_overrides(capsys):
    assert scenarios_main(
        ["steady-state", "--txns", "20", "--check-mode", "off",
         "--think-time", "2.0", "--json"]
    ) == 0
    import json

    data = json.loads(capsys.readouterr().out)
    assert data["check_mode"] == "off"
    assert data["passed"] is True
    with pytest.raises(SystemExit) as refused:
        scenarios_main(["steady-state", "--check-mode", "final"])
    assert refused.value.code == 2
    assert "invalid choice: 'final'" in capsys.readouterr().err


def test_cli_sweep(capsys):
    assert scenarios_main(
        ["sweep", "steady-state", "--txns", "20", "--protocols", "message-passing,rdma"]
    ) == 0
    out = capsys.readouterr().out
    assert out.count("scenario: steady-state") == 2


def test_cli_run_latency_override(capsys):
    assert scenarios_main(
        ["steady-state", "--txns", "20",
         "--latency", "lognormal:mean=1.5,sigma=0.8", "--json"]
    ) == 0
    import json

    data = json.loads(capsys.readouterr().out)
    assert data["latency_model"] == "lognormal(mean=1.5,sigma=0.8)"
    assert data["passed"] is True
    assert data["phases"]["certify_to_decide"]["mean"] > 0


def test_cli_latency_sweep_grid(capsys):
    assert scenarios_main(
        ["sweep", "steady-state", "--txns", "20",
         "--protocols", "message-passing",
         "--latency", "unit",
         "--latency", "uniform:low=0.5,high=1.5",
         "--latency", "lognormal:mean=1.5,sigma=0.8",
         "--json"]
    ) == 0
    import json

    data = json.loads(capsys.readouterr().out)
    sweep = data["message-passing"]
    assert sweep["passed"] is True
    assert [row["latency_model"] for row in sweep["curve"]] == [
        "unit", "uniform(low=0.5,high=1.5)", "lognormal(mean=1.5,sigma=0.8)"
    ]
    assert len(sweep["points"]) == 3


def test_cli_latency_sweep_is_deterministic(capsys):
    argv = ["sweep", "steady-state", "--txns", "20",
            "--protocols", "message-passing", "--latency", "default", "--json"]
    assert scenarios_main(argv) == 0
    first = capsys.readouterr().out
    assert scenarios_main(argv) == 0
    second = capsys.readouterr().out
    assert first == second  # byte-identical JSON, grid of 4 points
    import json

    assert len(json.loads(first)["message-passing"]["points"]) == 4


def test_cli_rejects_bad_latency_point(capsys):
    with pytest.raises(SystemExit) as excinfo:
        scenarios_main(["steady-state", "--latency", "warp:speed=9"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("protocols", ["", ","])
@pytest.mark.parametrize("grid", [[], ["--batch", "4"]], ids=["protocol-sweep", "grid-sweep"])
def test_cli_sweep_rejects_empty_protocol_list(capsys, protocols, grid):
    with pytest.raises(SystemExit) as excinfo:
        scenarios_main(["sweep", "steady-state", "--protocols", protocols, *grid])
    assert excinfo.value.code == 2
    assert "--protocols needs at least one protocol" in capsys.readouterr().err
