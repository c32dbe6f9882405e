"""The ``parallel-shards`` spelling of ``ExecSpec`` is a serial run.

Every run executes on the one serial event heap and the runner ignores
``ExecSpec.mode`` and ``groups``, so the spelling must replay the serial
run byte for byte, in-process and across interpreter hash seeds.  The
benchmark's ``mp-steady-grouped`` workload is what still spells it.
"""

import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

from repro.scenarios import (
    ExecSpec,
    LatencySpec,
    ScenarioError,
    ScenarioRunner,
    ScenarioSpec,
    get_scenario,
)

from test_golden_digests import EQUIVALENCE_CASES


def _small(name: str, txns: int = 30, **overrides) -> ScenarioSpec:
    spec = get_scenario(name)
    return spec.with_overrides(
        workload=replace(spec.workload, txns=txns), **overrides
    )


def _dumps(result) -> str:
    return json.dumps(result.as_dict(), sort_keys=True)


def test_exec_spec_validation_rejects_bad_values():
    with pytest.raises(ScenarioError, match="mode"):
        ExecSpec(mode="quantum").validate()
    with pytest.raises(ScenarioError):
        ExecSpec(mode="parallel-shards", groups=1).validate()


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
