"""Tests for the multi-core execution tiers (``repro.runtime.parallel``).

Tier A (process fan-out): seed derivation, deterministic result ordering,
worker-crash surfacing, and byte-identity of sweeps across ``jobs`` counts.

Tier B (conservative parallel-DES): installation eligibility rules, and the
headline contract — the grouped engine replays the serial engine's event
order byte for byte, locked at three levels: in-process result/history
comparison across the scenario library, subprocess comparison across
``PYTHONHASHSEED`` values, and the CLI path.
"""

import json
import os
import subprocess
import sys
from dataclasses import dataclass, replace

import pytest

from repro.cluster import Cluster
from repro.runtime.network import LognormalLatency, Network, UnitLatency
from repro.runtime.process import Process
from repro.runtime.parallel import (
    GroupedScheduler,
    LookaheadViolation,
    ParallelExecutor,
    WorkerError,
    derive_seed,
    partition_contiguous,
    resolve_jobs,
)
from repro.scenarios import (
    AXES,
    BATCH,
    LATENCY,
    BatchSpec,
    ExecSpec,
    LatencySpec,
    ScenarioError,
    ScenarioRunner,
    ScenarioSpec,
    WorkloadSpec,
    get_scenario,
    run_axis_sweep,
    run_repetitions,
    run_scenarios,
)
from repro.spec.history import History


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------

def _small(name: str, txns: int = 30, **overrides) -> ScenarioSpec:
    spec = get_scenario(name)
    return spec.with_overrides(
        workload=replace(spec.workload, txns=txns), **overrides
    )


def _shards(groups: int) -> ExecSpec:
    return ExecSpec(mode="parallel-shards", groups=groups)


def _dumps(result) -> str:
    return json.dumps(result.as_dict(), sort_keys=True)


def _pool_env(monkeypatch) -> None:
    """Make this test module importable from spawn pool workers (the pool
    pickles functions by qualified name; workers must import tests/)."""
    import repro

    src_dir = os.path.dirname(os.path.dirname(repro.__file__))
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    monkeypatch.setenv(
        "PYTHONPATH",
        os.pathsep.join(
            filter(None, (src_dir, tests_dir, os.environ.get("PYTHONPATH")))
        ),
    )


def _square(value: int) -> int:
    return value * value


def _explode(value: int) -> int:
    raise ValueError(f"worker boom on {value}")


# ----------------------------------------------------------------------
# Tier A: seeds, executor, crash surfacing
# ----------------------------------------------------------------------

def test_derive_seed_is_deterministic_and_scattered():
    seeds = [derive_seed(7, i) for i in range(100)]
    assert seeds == [derive_seed(7, i) for i in range(100)]
    assert len(set(seeds)) == 100
    assert all(0 <= s < 2**31 for s in seeds)
    with pytest.raises(ValueError):
        derive_seed(7, -1)


def test_resolve_jobs():
    assert resolve_jobs(3) == 3
    assert resolve_jobs(0) == (os.cpu_count() or 1)
    with pytest.raises(ValueError):
        resolve_jobs(-1)


def test_executor_inline_path_preserves_order_and_exceptions():
    executor = ParallelExecutor(jobs=1)
    assert executor.map(_square, [3, 1, 2]) == [9, 1, 4]
    assert executor.map(_square, []) == []
    with pytest.raises(ValueError, match="worker boom"):
        executor.map(_explode, [5])


def test_executor_pool_returns_results_in_input_order(monkeypatch):
    _pool_env(monkeypatch)
    assert ParallelExecutor(jobs=2).map(_square, [4, 3, 2, 1]) == [16, 9, 4, 1]


def test_worker_crash_surfaces_child_traceback(monkeypatch):
    _pool_env(monkeypatch)
    with pytest.raises(WorkerError) as exc_info:
        ParallelExecutor(jobs=2).map(_explode, [10, 20])
    error = exc_info.value
    assert error.index == 0
    # The child's formatted traceback rides along, so the failure is
    # debuggable from the parent's log alone.
    assert "ValueError: worker boom on 10" in str(error)
    assert "Traceback" in error.child_traceback


def test_run_scenarios_identical_across_jobs(monkeypatch):
    _pool_env(monkeypatch)
    specs = [_small("steady-state"), _small("bank-transfers")]
    serial = run_scenarios(specs, jobs=1)
    parallel = run_scenarios(specs, jobs=2)
    assert [_dumps(r) for r in serial] == [_dumps(r) for r in parallel]


def test_run_repetitions_seed_schedule_is_jobs_invariant(monkeypatch):
    _pool_env(monkeypatch)
    spec = _small("steady-state")
    serial = run_repetitions(spec, 3, jobs=1)
    parallel = run_repetitions(spec, 3, jobs=2)
    assert [r.seed for r in serial] == [derive_seed(spec.seed, i) for i in range(3)]
    assert [_dumps(r) for r in serial] == [_dumps(r) for r in parallel]
    with pytest.raises(ValueError):
        run_repetitions(spec, 0)


# Every sweep axis, from the one table the CLI reads: the scenario it is
# swept on here and one CLI point its parser must reject.
AXIS_CASES = {
    "latency": ("steady-state", "warp"),
    "batch": ("steady-state", "8:foo=1"),
    "read-ratio": ("read-heavy-steady-state", "1.5"),
    "detector": ("detector-leader-crash", "2:bogus=1"),
    "bandwidth": ("bandwidth-knee", "500:warp=9"),
}
every_axis = pytest.mark.parametrize("axis", AXES, ids=lambda axis: axis.name)


def _axis_spec(axis) -> ScenarioSpec:
    return _small(AXIS_CASES[axis.name][0])


@every_axis
def test_sweep_identical_across_jobs(monkeypatch, axis):
    _pool_env(monkeypatch)
    spec = _axis_spec(axis)
    serial = run_axis_sweep(spec, axis, jobs=1)
    parallel = run_axis_sweep(spec, axis, jobs=2)
    assert serial.passed
    assert json.dumps(serial.as_dict(), sort_keys=True) == json.dumps(
        parallel.as_dict(), sort_keys=True
    )


# ----------------------------------------------------------------------
# canonical grid ordering
# ----------------------------------------------------------------------

@every_axis
def test_default_grids_are_already_canonical(axis):
    assert axis.sort(axis.stock) == axis.stock


@every_axis
def test_sort_drops_duplicate_points(axis):
    """`--batch 4 --batch 4` is one point: the output depends only on the
    *set* of points requested."""
    assert axis.sort(axis.stock + axis.stock[::-1]) == axis.stock
    doubled = run_axis_sweep(_axis_spec(axis), axis, (axis.stock[1],) * 2)
    assert len(doubled.points) == 1


@every_axis
def test_sweep_output_independent_of_grid_input_order(axis):
    spec = _axis_spec(axis)
    shuffled = axis.stock[2:] + axis.stock[:2][::-1]
    assert shuffled != axis.stock
    assert json.dumps(run_axis_sweep(spec, axis, shuffled).as_dict()) == json.dumps(
        run_axis_sweep(spec, axis, axis.stock).as_dict()
    )


@every_axis
def test_default_word_expands_to_the_stock_grid(axis):
    assert axis.parse(["default"]) == axis.stock
    assert axis.parse([]) == ()


@every_axis
def test_result_for_unknown_label_raises_key_error(axis):
    point = axis.stock[0]
    sweep = run_axis_sweep(_axis_spec(axis), axis, (point,))
    assert sweep.result_for(axis.label(point)) is sweep.points[0][1]
    with pytest.raises(KeyError):
        sweep.result_for("no-such-point")


@every_axis
def test_bad_point_raises_scenario_error(axis):
    with pytest.raises(ScenarioError):
        axis.parse([AXIS_CASES[axis.name][1]])


def test_latency_grid_sorts_by_model_rank_then_params():
    grid = (
        LatencySpec(model="exponential", mean=2.0),
        LatencySpec(model="unit"),
        LatencySpec(model="uniform", low=0.5, high=1.5),
        LatencySpec(model="exponential", mean=1.0),
    )
    assert [p.describe() for p in LATENCY.sort(grid)] == [
        "unit",
        "uniform(low=0.5,high=1.5)",
        "exponential(mean=1)",
        "exponential(mean=2)",
    ]


def test_batch_grid_sorts_by_size_then_linger():
    grid = (
        BatchSpec(size=8, linger=2.0, adaptive=False),
        BatchSpec(),
        BatchSpec(size=8),
        BatchSpec(size=4),
    )
    assert [p.size for p in BATCH.sort(grid)] == [0, 4, 8, 8]
    assert [p.linger for p in BATCH.sort(grid)] == [0.0, 0.0, 0.0, 2.0]


# ----------------------------------------------------------------------
# Tier B: eligibility and installation rules
# ----------------------------------------------------------------------

def test_grouped_scheduler_needs_two_groups():
    with pytest.raises(ValueError):
        GroupedScheduler(1)


def test_partition_contiguous_is_balanced_and_contiguous():
    items = [f"shard-{i}" for i in range(5)]
    partition = partition_contiguous(items, 2)
    assert [partition[i] for i in items] == [0, 0, 0, 1, 1]
    assert partition_contiguous(items, 5) == {item: i for i, item in enumerate(items)}
    with pytest.raises(ValueError):
        partition_contiguous(items, 6)
    with pytest.raises(ValueError):
        partition_contiguous(items, 0)


def test_install_rejects_random_latency_models():
    scheduler = GroupedScheduler(2)
    network = Network(scheduler, latency=LognormalLatency(mean=1.0, sigma=0.5), seed=0)
    with pytest.raises(ValueError, match="deterministic latency"):
        scheduler.install(network, {})


def test_install_rejects_unknown_group_indices():
    scheduler = GroupedScheduler(2)
    network = Network(scheduler, latency=UnitLatency(), seed=0)
    with pytest.raises(ValueError, match="unknown groups"):
        scheduler.install(network, {"p0": 0, "p1": 5})


def test_spec_validation_rejects_ineligible_parallel_shards():
    base = get_scenario("steady-state")
    with pytest.raises(ScenarioError, match="deterministic"):
        base.with_overrides(
            latency=LatencySpec(model="lognormal", mean=1.0, sigma=0.5),
            execution=_shards(2),
        ).validate()
    with pytest.raises(ScenarioError):
        base.with_overrides(num_shards=2, execution=_shards(4)).validate()
    with pytest.raises(ScenarioError, match="mode"):
        ExecSpec(mode="quantum").validate()
    with pytest.raises(ScenarioError):
        ExecSpec(jobs=-1).validate()
    with pytest.raises(ScenarioError):
        ExecSpec(mode="parallel-shards", groups=1).validate()


def test_wan_jitter_is_rejected_for_parallel_shards():
    wan = get_scenario("wan-steady-state")
    assert wan.latency.jitter > 0  # the library scenario keeps its jitter
    with pytest.raises(ScenarioError):
        wan.with_overrides(execution=_shards(3)).validate()


def test_cluster_exposes_positive_lookahead_when_grouped():
    cluster = Cluster(num_shards=4, groups=2)
    assert isinstance(cluster.scheduler, GroupedScheduler)
    assert cluster.scheduler.lookahead > 0.0


# ----------------------------------------------------------------------
# Tier B: the lookahead check is a real error, with or without -O
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Hop:
    ttl: int


class _Relay(Process):
    def __init__(self, pid, peer):
        super().__init__(pid)
        self.peer = peer

    def on_hop(self, msg, sender):
        if msg.ttl:
            self.send(self.peer, Hop(msg.ttl - 1))


def _send_inside_the_lookahead_window():
    """Two processes in different groups on a link that became faster than
    the bound the engine derived at install time: the relayed message lands
    inside the window its sender is executing in."""
    scheduler = GroupedScheduler(2)
    network = Network(scheduler, latency=UnitLatency(1.0), seed=0)
    network.register(_Relay("a", peer="b"))
    network.register(_Relay("b", peer="a"))
    scheduler.install(network, {"a": 0, "b": 1})
    network.latency = UnitLatency(0.25)
    network.send("b", "a", Hop(ttl=2))
    scheduler.run()


def test_cross_group_delivery_inside_the_window_raises():
    with pytest.raises(LookaheadViolation, match="lands before the lookahead bound"):
        _send_inside_the_lookahead_window()


def test_lookahead_violation_survives_python_O():
    """``python -O`` strips asserts; the engine's correctness invariant must
    not go with them."""
    import repro

    src_dir = os.path.dirname(os.path.dirname(repro.__file__))
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    script = (
        "from repro.runtime.parallel import LookaheadViolation\n"
        "from test_parallel import _send_inside_the_lookahead_window\n"
        "assert False, 'asserts are stripped under -O'\n"
        "try:\n"
        "    _send_inside_the_lookahead_window()\n"
        "except LookaheadViolation as error:\n"
        "    print('raised:', error)\n"
    )
    env = {**os.environ}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src_dir, tests_dir, env.get("PYTHONPATH")))
    )
    completed = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
    )
    assert completed.returncode == 0, completed.stderr
    assert "raised: cross-group delivery at t=0.5 lands before" in completed.stdout


# ----------------------------------------------------------------------
# Tier B: serial-equivalence battery (in-process)
# ----------------------------------------------------------------------

EQUIVALENCE_CASES = [
    ("steady-state", 2),
    ("steady-state", 4),
    ("batch-saturation", 2),
    ("batch-saturation", 4),
    ("leader-crash-under-load", 2),
    ("cascading-crashes", 2),
    ("baseline-steady-state", 2),
    ("rolling-reconfiguration", 2),
    ("read-heavy-steady-state", 2),
    ("read-heavy-steady-state", 4),
    ("stale-lease-ablation", 2),
    ("detector-leader-crash", 2),
    ("gray-failure-slow-leader", 2),
    ("saturated-link", 2),
    ("bandwidth-knee", 2),
    ("bandwidth-knee", 4),
]


@pytest.mark.parametrize("name,groups", EQUIVALENCE_CASES)
def test_parallel_shards_replay_serial_run_exactly(name, groups):
    serial = ScenarioRunner(_small(name)).run()
    grouped = ScenarioRunner(_small(name, execution=_shards(groups))).run()
    assert grouped.history_digest == serial.history_digest
    assert _dumps(grouped) == _dumps(serial)


def test_parallel_shards_replay_wan_run_exactly():
    wan = get_scenario("wan-steady-state")
    flat = replace(wan.latency, jitter=0.0)  # random jitter is ineligible
    serial = ScenarioRunner(_small("wan-steady-state", latency=flat)).run()
    grouped = ScenarioRunner(
        _small("wan-steady-state", latency=flat, execution=_shards(3))
    ).run()
    assert grouped.history_digest == serial.history_digest
    assert _dumps(grouped) == _dumps(serial)


def test_grouped_cluster_event_accounting_matches_serial():
    """Not just the history: the engine-level counters (events fired, final
    clock) must agree once the schedule drains, so metrics derived from
    them stay comparable.  (At a mid-run ``run_until`` stop the *set* of
    fired events can transiently differ — the grouped engine executes a
    window group by group while the serial engine interleaves groups by
    time — which is why the drain matters and why the scenario runner
    always drains before collecting metrics.)"""
    from repro.core.serializability import TransactionPayload

    def drive(groups: int):
        cluster = Cluster(num_shards=4, num_clients=2, seed=3, groups=groups)
        payloads = [
            TransactionPayload.make(
                reads=[(f"k{i}", (0, "")), (f"k{i+7}", (0, ""))],
                writes=[(f"k{i}", i)],
                tiebreak=f"t{i}",
            )
            for i in range(40)
        ]
        cluster.certify_many(payloads)
        cluster.run()  # drain in-flight cleanup traffic
        return cluster

    serial = drive(0)
    grouped = drive(2)
    assert grouped.history.digest() == serial.history.digest()
    assert grouped.scheduler.events_fired == serial.scheduler.events_fired
    assert grouped.scheduler.now == serial.scheduler.now
    assert grouped.message_stats.total_sent == serial.message_stats.total_sent


# ----------------------------------------------------------------------
# Tier B + A: cross-process determinism (PYTHONHASHSEED)
# ----------------------------------------------------------------------

_SUBPROCESS_CASES = {
    "steady-state": "",
    "wan-steady-state": "latency=replace(s.latency, jitter=0.0),",
    "batch-saturation": "",
    "read-heavy-steady-state": "",
    "detector-leader-crash": "",
    "saturated-link": "",
}


@pytest.mark.parametrize("scenario", sorted(_SUBPROCESS_CASES))
def test_parallel_shards_identical_across_interpreter_hash_seeds(scenario):
    """The acceptance lock for the grouped engine: fresh interpreters with
    different hash seeds must produce byte-identical results, and the
    grouped result must equal the serial result — any hash-order or
    group-order leak in the engine shows up here as a diff."""
    override = _SUBPROCESS_CASES[scenario]
    script = (
        "import json;"
        "from dataclasses import replace;"
        "from repro.scenarios import ExecSpec, ScenarioRunner, get_scenario;"
        f"s = get_scenario('{scenario}');"
        f"s = s.with_overrides({override}"
        " workload=replace(s.workload, txns=40));"
        "g = s.with_overrides("
        "  execution=ExecSpec(mode='parallel-shards', groups=min(3, s.num_shards)));"
        "serial = ScenarioRunner(s).run().as_dict();"
        "grouped = ScenarioRunner(g).run().as_dict();"
        "assert serial == grouped, 'grouped run diverged from serial';"
        "print(json.dumps(grouped, sort_keys=True))"
    )
    import repro

    src_dir = os.path.dirname(os.path.dirname(repro.__file__))
    outputs = []
    for hash_seed in ("1", "99"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed}
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (src_dir, env.get("PYTHONPATH")))
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        outputs.append(completed.stdout)
    assert outputs[0] == outputs[1]
    assert '"history_digest": ""' not in outputs[0]  # digest actually recorded


# ----------------------------------------------------------------------
# history digests
# ----------------------------------------------------------------------

def test_history_digest_is_payload_order_independent():
    from repro.core.serializability import TransactionPayload

    def build(reads):
        history = History()
        payload = TransactionPayload.make(
            reads=reads, writes=[(k, 1) for k, _ in reads], tiebreak="t"
        )
        history.record_certify("t1", payload, 1.0)
        return history

    reads = [(f"key-{i}", (0, "")) for i in range(6)]
    assert build(reads).digest() == build(list(reversed(reads))).digest()

    other = History()
    other.record_certify("t2", None, 1.0)
    assert other.digest() != build(reads).digest()


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------

def test_cli_parallel_shards_matches_serial_output(capsys):
    from repro.scenarios.__main__ import main

    assert main(["run", "steady-state", "--txns", "30", "--json"]) == 0
    serial_out = capsys.readouterr().out
    assert (
        main(["run", "steady-state", "--txns", "30", "--parallel-shards", "2", "--json"])
        == 0
    )
    grouped_out = capsys.readouterr().out
    assert serial_out == grouped_out


def test_cli_run_accepts_multiple_scenarios(capsys):
    from repro.scenarios.__main__ import main

    code = main(["run", "steady-state", "bank-transfers", "--txns", "20", "--json"])
    assert code == 0
    document = json.loads(capsys.readouterr().out)
    assert set(document) == {"steady-state", "bank-transfers"}
