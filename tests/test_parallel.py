"""Tests for multi-core execution (``repro.runtime.parallel``).

Process fan-out: seed derivation, deterministic result ordering,
worker-crash surfacing, and byte-identity of sweeps across ``jobs`` counts.
One run always executes on the one serial event heap: the
``parallel-shards`` spelling of ``ExecSpec`` must replay the serial run
byte for byte, in-process and across interpreter hash seeds, and the last
section guards that the windowed shard-group engine stays deleted.
"""

import inspect
import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

from repro.baselines.cluster import BaselineCluster
from repro.cluster import Cluster, ClusterBase
from repro.runtime import parallel as parallel_module
from repro.runtime.events import Event, Scheduler
from repro.runtime.network import LatencySpec, Network
from repro.runtime.parallel import (
    ParallelExecutor,
    WorkerError,
    derive_seed,
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
    get_scenario,
    run_axis_sweep,
    run_repetitions,
    run_scenarios,
)
from repro.spec.history import History

from test_golden_digests import EQUIVALENCE_CASES


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------

def _small(name: str, txns: int = 30, **overrides) -> ScenarioSpec:
    spec = get_scenario(name)
    return spec.with_overrides(
        workload=replace(spec.workload, txns=txns), **overrides
    )


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
# seeds, executor, crash surfacing
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


def test_importing_repro_loads_no_process_pool():
    """The pool machinery is imported on the first parallel map: a fresh
    interpreter that imports the package, and maps inline, has not loaded
    it (every process would otherwise carry it in its memory)."""
    script = (
        "import sys, repro;"
        "from repro.runtime.parallel import ParallelExecutor;"
        "assert ParallelExecutor(jobs=1).map(abs, [-1, -2]) == [1, 2];"
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing')"
        " if m in sys.modules))"
    )
    import repro

    src_dir = os.path.dirname(os.path.dirname(repro.__file__))
    env = {**os.environ}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src_dir, env.get("PYTHONPATH"))))
    completed = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert completed.stdout.strip() == "[]"


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
# execution settings
# ----------------------------------------------------------------------

def test_exec_spec_validation_rejects_bad_values():
    with pytest.raises(ScenarioError, match="mode"):
        ExecSpec(mode="quantum").validate()
    with pytest.raises(ScenarioError):
        ExecSpec(jobs=-1).validate()
    with pytest.raises(ScenarioError):
        ExecSpec(mode="parallel-shards", groups=1).validate()


# ----------------------------------------------------------------------
# the parallel-shards spelling is a serial run
# ----------------------------------------------------------------------

def _shards(groups: int) -> ExecSpec:
    return ExecSpec(mode="parallel-shards", groups=groups)


@pytest.mark.parametrize("name,groups", EQUIVALENCE_CASES)
def test_parallel_shards_replay_serial_run_exactly(name, groups):
    serial = ScenarioRunner(_small(name)).run()
    spelled = ScenarioRunner(_small(name, execution=_shards(groups))).run()
    assert spelled.history_digest == serial.history_digest
    assert _dumps(spelled) == _dumps(serial)


def test_parallel_shards_replay_wan_run_exactly():
    # Random jitter and more groups than shards: the spelling restricts
    # neither, since nothing partitions the run any more.
    wan = _small("wan-steady-state")
    assert wan.latency.jitter > 0
    spelled = wan.with_overrides(execution=_shards(wan.num_shards + 2))
    spelled.validate()
    serial = ScenarioRunner(wan).run()
    assert _dumps(ScenarioRunner(spelled).run()) == _dumps(serial)


def test_parallel_shards_spelling_accepts_any_latency_and_group_count():
    spec = _small(
        "steady-state",
        latency=LatencySpec(model="exponential", mean=1.0),
        execution=_shards(9),
    )
    spec.validate()
    serial = spec.with_overrides(execution=ExecSpec())
    assert _dumps(ScenarioRunner(spec).run()) == _dumps(ScenarioRunner(serial).run())


_SUBPROCESS_CASES = (
    "steady-state",
    "wan-steady-state",
    "batch-saturation",
    "read-heavy-steady-state",
    "detector-leader-crash",
    "saturated-link",
)


@pytest.mark.parametrize("scenario", sorted(_SUBPROCESS_CASES))
def test_parallel_shards_identical_across_interpreter_hash_seeds(scenario):
    """Fresh interpreters with different hash seeds must produce
    byte-identical results under both spellings, and the two spellings
    must agree: any hash-order leak in the engine shows up as a diff."""
    script = (
        "import json;"
        "from dataclasses import replace;"
        "from repro.scenarios import ExecSpec, ScenarioRunner, get_scenario;"
        f"s = get_scenario('{scenario}');"
        "s = s.with_overrides(workload=replace(s.workload, txns=40));"
        "g = s.with_overrides(execution=ExecSpec(mode='parallel-shards', groups=3));"
        "serial = ScenarioRunner(s).run().as_dict();"
        "spelled = ScenarioRunner(g).run().as_dict();"
        "assert serial == spelled, 'parallel-shards spelling diverged from serial';"
        "print(json.dumps(spelled, sort_keys=True))"
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

def test_cli_run_accepts_multiple_scenarios(capsys):
    from repro.scenarios.__main__ import main

    code = main(["run", "steady-state", "bank-transfers", "--txns", "20", "--json"])
    assert code == 0
    document = json.loads(capsys.readouterr().out)
    assert set(document) == {"steady-state", "bank-transfers"}


# ----------------------------------------------------------------------
# the windowed shard-group engine stays deleted
# ----------------------------------------------------------------------

GONE = [
    (parallel_module, "GroupedScheduler"),
    (parallel_module, "LookaheadViolation"),
    (parallel_module, "partition_contiguous"),
    (Event, "weight"),
    (Network, "install_groups"),
    (Network, "min_cross_group_delay"),
    (LatencySpec, "min_delay"),
    (ClusterBase, "_group_partition"),
    (Cluster, "_server_shards"),
    (BaselineCluster, "_server_shards"),
    (Scheduler, "peek_time"),
    (ExecSpec, "describe"),
]


@pytest.mark.parametrize(
    "owner,name", GONE, ids=[f"{owner.__name__}.{name}" for owner, name in GONE]
)
def test_the_grouped_engine_stays_deleted(owner, name):
    assert not hasattr(owner, name)


def test_cluster_constructor_takes_no_groups():
    assert "groups" not in inspect.signature(ClusterBase.__init__).parameters
    assert not hasattr(Cluster(num_shards=2), "exec_groups")


def test_run_until_takes_no_time_limit_or_check_interval():
    assert list(inspect.signature(Scheduler.run_until).parameters) == [
        "self",
        "predicate",
        "max_events",
    ]
