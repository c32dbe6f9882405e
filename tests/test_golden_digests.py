"""Golden history digests: behaviour pinned across commits, not only engines.

``tests/golden_digests.json`` maps a case key to the ``History.digest()``,
message count, virtual duration and the sha256 of the whole
``ScenarioResult.as_dict()`` (so a collector that changed is seen too) a run
produced on the commit the file was generated from.  Every later commit is
compared with that one, so a refactor or hot-path optimisation that moves a
single history event, message or delivery time fails here by name.

Case keys are ``scenario|protocol|engine``:

* every library scenario as declared, on the serial engine;
* the ``EQUIVALENCE_CASES`` below spelled ``ExecSpec(mode="parallel-shards",
  groups=G)``, which the runner ignores: they pin that the spelling
  reproduces the serial ``result_sha256``;
* every library scenario re-run on the other protocol stacks it validates
  on (``rdma``, ``2pc-paxos`` with 2f+1 replicas) — the library itself has
  one baseline scenario, too few to guard a change to the Paxos fan-out.

Every case's online verdict is also compared with the batch oracle's
verdict on the same history (not part of the pinned JSON).

Regenerate (only for a deliberate behaviour change, and say so in
CHANGES.md)::

    PYTHONPATH=src python tests/test_golden_digests.py
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Iterator, Optional, Tuple

import pytest

from repro.scenarios import ExecSpec, ScenarioError, ScenarioRunner, ScenarioSpec, get_scenario
from repro.scenarios.library import SCENARIOS

from helpers import oracle_check, run_recorded

# The (scenario, groups) pairs recorded under the parallel-shards spelling.
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

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_digests.json")

OTHER_STACKS = ("message-passing", "rdma", "2pc-paxos")


def _spec_for(key: str) -> Optional[ScenarioSpec]:
    """The spec a case key names, or None when it does not validate."""
    name, protocol, engine = key.split("|")
    spec = get_scenario(name)
    overrides = {}
    if protocol != spec.protocol:
        overrides["protocol"] = protocol
        if protocol == "2pc-paxos" and spec.replicas_per_shard % 2 == 0:
            overrides["replicas_per_shard"] = spec.replicas_per_shard + 1
    if engine != "serial":
        overrides["execution"] = ExecSpec(mode="parallel-shards", groups=int(engine.split(":")[1]))
    try:
        return spec.with_overrides(**overrides)
    except ScenarioError:
        return None


def _case_keys() -> Iterator[str]:
    for name in SCENARIOS:
        yield f"{name}|{get_scenario(name).protocol}|serial"
    for name, groups in EQUIVALENCE_CASES:
        yield f"{name}|{get_scenario(name).protocol}|parallel-shards:{groups}"
    for name in SCENARIOS:
        declared = get_scenario(name).protocol
        if declared not in OTHER_STACKS:
            continue  # ablation stacks are pinned as declared only
        for protocol in OTHER_STACKS:
            key = f"{name}|{protocol}|serial"
            if protocol != declared and _spec_for(key) is not None:
                yield key


def _observe(key: str) -> Tuple[ScenarioRunner, Dict[str, object]]:
    """The finished runner and what the golden file pins of its run."""
    spec = _spec_for(key)
    assert spec is not None, f"golden case {key!r} no longer validates"
    runner, result = run_recorded(spec)
    return runner, {
        "digest": result.history_digest,
        "messages_sent": result.messages_sent,
        "duration": result.duration,
        "result_sha256": hashlib.sha256(
            json.dumps(result.as_dict(), sort_keys=True).encode()
        ).hexdigest(),
    }


def _load() -> Dict[str, Dict[str, object]]:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


GOLDEN = _load() if os.path.exists(GOLDEN_PATH) else {}


def test_golden_file_covers_every_case():
    assert GOLDEN, f"{GOLDEN_PATH} is missing"
    assert sorted(GOLDEN) == sorted(_case_keys())


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_history_matches_golden(key):
    runner, observed = _observe(key)
    assert observed == GOLDEN[key]
    online, oracle = runner.checker.result(), oracle_check(runner)
    assert (online.ok, online.reason) == (oracle.ok, oracle.reason)


if __name__ == "__main__":
    golden = {key: _observe(key)[1] for key in _case_keys()}
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(golden)} cases to {GOLDEN_PATH}")
