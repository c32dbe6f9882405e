"""Golden renders: ``ScenarioResult.render()`` and its JSON key set pinned.

``tests/golden_render.json`` maps a library scenario to the ``render()``
text and the sorted ``as_dict()`` key list a 60-transaction run produced on
commit ``b9e93c1`` — the last commit on which ``ScenarioResult`` spelled
every subsystem counter as a flat field and ``render()`` as one ``if`` block
per subsystem.  The nine scenarios switch every result section on at least
once and include a faulted run, an ``UNSAFE (as expected)`` run and the
2PC-over-Paxos baseline, so the sections table that replaced those blocks is
pinned to their output byte for byte (``golden_digests.json`` pins the
*values* of ``as_dict()``; this file pins the text and the key set, which CI
also checks through the real CLI).

The structural tests below pin what the sections table promises: one owner
per JSON key, a result that stays small, and a result that survives the
pickle round-trip ``--jobs`` puts it through.

Regenerate (only for a deliberate change of the rendered report or the JSON
vocabulary, and say so in CHANGES.md)::

    PYTHONPATH=src python tests/test_golden_render.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
from dataclasses import replace
from typing import Dict

import pytest

from repro.scenarios import ScenarioResult, ScenarioRunner, get_scenario

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_render.json")
TXNS = 60

SCENARIOS = (
    "steady-state",
    "coordinator-crash-storm",
    "batch-saturation",
    "read-heavy-steady-state",
    "stale-lease-ablation",
    "saturated-link",
    "flapping-detector",
    "detector-leader-crash",
    "baseline-steady-state",
)


def _run(name: str) -> ScenarioResult:
    spec = get_scenario(name)
    spec = spec.with_overrides(workload=replace(spec.workload, txns=TXNS))
    return ScenarioRunner(spec).run()


def _observe(result: ScenarioResult) -> Dict[str, object]:
    return {"render": result.render(), "keys": sorted(result.as_dict())}


GOLDEN: Dict[str, Dict[str, object]] = {}
if os.path.exists(GOLDEN_PATH):
    with open(GOLDEN_PATH) as _handle:
        GOLDEN = json.load(_handle)


@pytest.fixture(scope="module")
def results() -> Dict[str, ScenarioResult]:
    return {name: _run(name) for name in SCENARIOS}


def test_golden_covers_every_scenario():
    assert sorted(GOLDEN) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", SCENARIOS)
def test_render_and_keys_match_golden(results, name):
    assert _observe(results[name]) == GOLDEN[name]


def test_every_section_is_rendered_at_least_once():
    text = "\n".join(str(case["render"]) for case in GOLDEN.values())
    for row in ("client retries", "batching", "snapshot reads", "link ", "detector "):
        assert f"\n{row}" in text, row
    assert "UNSAFE (as expected" in text and "fault " in text and "2pc-paxos" in text


def test_each_json_key_has_exactly_one_owner(results):
    """A key is either a run-level field (or one of the three verdict
    properties) or belongs to exactly one section: its policy label
    ``<section>_model`` or one of that section's counters."""
    from repro.scenarios.runner import SECTIONS

    result = results["steady-state"]
    section_names = [name for name, _title, _collect in SECTIONS]
    run_level = [
        field.name for field in dataclasses.fields(ScenarioResult)
        if field.name not in section_names and field.name != "wall_seconds"
    ] + ["safety_ok", "passed"]
    owners = {key: ["run-level"] for key in run_level}
    for name in section_names:
        section = getattr(result, name)
        for key in (f"{name}_model", *section.stats.as_dict()):
            owners.setdefault(key, []).append(name)
    assert {key: who for key, who in owners.items() if len(who) != 1} == {}
    assert sorted(owners) == sorted(result.as_dict())


def test_result_declares_sections_not_flat_counters():
    assert len(dataclasses.fields(ScenarioResult)) <= 32


@pytest.mark.parametrize("name", ("coordinator-crash-storm", "batch-saturation"))
def test_result_survives_the_pickle_round_trip(results, name):
    result = results[name]
    clone = pickle.loads(pickle.dumps(result))
    assert clone.as_dict() == result.as_dict()
    assert clone.render() == result.render()
    # The flat counter names resolve on the clone exactly as on the original.
    assert (clone.retries, clone.batches, clone.batch_model) == (
        result.retries, result.batches, result.batch_model
    )


def test_spec_names_are_the_policy_classes():
    from repro.client import RetryPolicy
    from repro.core.batching import BatchPolicy
    from repro.core.failuredetector import DetectorPolicy
    from repro.core.reads import ReadPolicy
    from repro.scenarios import BatchSpec, RetrySpec
    from repro.scenarios.spec import DetectorSpec, ReadSpec

    assert BatchSpec is BatchPolicy
    assert RetrySpec is RetryPolicy
    assert ReadSpec is ReadPolicy
    assert DetectorSpec is DetectorPolicy


if __name__ == "__main__":
    golden = {name: _observe(_run(name)) for name in SCENARIOS}
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(golden)} cases to {GOLDEN_PATH}")
