"""Golden sweeps: every axis's rendered table and JSON pinned across commits.

``tests/golden_sweeps.json`` maps ``axis|scenario|protocol`` to the
``render()`` text and the sha256 of ``json.dumps(as_dict(), sort_keys=True)``
that the axis's stock grid produced on a 60-transaction spec.  The file was
written on commit ``6191e45`` by the five per-axis ``run_*_sweep``
functions that the generic :func:`run_axis_sweep` replaced, so it pins the
generic runner, result and renderer to their output byte for byte.

Regenerate (only for a deliberate change of sweep output, and say so in
CHANGES.md)::

    PYTHONPATH=src python tests/test_golden_sweeps.py
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import replace
from typing import Dict

import pytest

from repro.scenarios import AXES, ScenarioSpec, SweepAxis, run_axis_sweep

from helpers import sweep_point

# scenario|protocol|engine -> spec (2pc-paxos gets its 2f+1 replicas).
from test_golden_digests import _spec_for as _stack_spec

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_sweeps.json")
TXNS = 60

with open(GOLDEN_PATH) as _handle:
    GOLDEN: Dict[str, Dict[str, str]] = json.load(_handle)


def _spec_for(scenario: str, protocol: str) -> ScenarioSpec:
    spec = _stack_spec(f"{scenario}|{protocol}|serial")
    return spec.with_overrides(workload=replace(spec.workload, txns=TXNS))


def _observe(key: str) -> Dict[str, str]:
    axis_name, scenario, protocol = key.split("|")
    axis = next(axis for axis in AXES if axis.name == axis_name)
    sweep = run_axis_sweep(_spec_for(scenario, protocol), axis)
    blob = json.dumps(sweep.as_dict(), sort_keys=True)
    return {
        "render": sweep.render(),
        "as_dict_sha256": hashlib.sha256(blob.encode()).hexdigest(),
    }


def test_golden_covers_every_axis():
    assert {key.split("|")[0] for key in GOLDEN} == {axis.name for axis in AXES}


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_sweep_matches_golden(key):
    assert _observe(key) == GOLDEN[key]


def test_a_sixth_axis_is_a_value_not_a_code_change():
    """A caller's own axis — client think time — runs through the same
    runner, result and renderer without touching ``repro.scenarios``."""
    think_time = SweepAxis(
        name="think-time",
        label_key="think_time",
        header="think time",
        stock=(0.0, 2.0, 8.0),
        parse_point=float,
        sort_key=float,
        # Think time 0 is the batch-driven driver, which has no sessions to
        # size (a spec that sets them without a think time is rejected).
        apply=lambda spec, delays: spec.with_overrides(
            workload=replace(
                spec.workload,
                think_time=delays,
                sessions=spec.workload.sessions if delays else 0,
            )
        ),
        label="{:g}".format,
        json_label=float,
        curve=("throughput", "mean_latency", "messages_sent"),
        columns=("committed", "tput/1k", "lat mean", "messages"),
    )
    spec = _spec_for("closed-loop-think", "message-passing")
    sweep = run_axis_sweep(spec, think_time, think_time.parse(["8", "default", "0"]))
    assert sweep.passed
    assert [row["think_time"] for row in sweep.curve()] == [0.0, 2.0, 8.0]
    assert sweep.curve()[0]["throughput"] > sweep.curve()[2]["throughput"]
    assert sweep_point(sweep, "2").txns_submitted == TXNS
    header = sweep.render().splitlines()
    assert header[0].startswith("=== think-time sweep: closed-loop-think (message-passing, seed")
    assert header[1].split(" | ")[0].strip() == "think time"
    assert list(sweep.as_dict()) == ["scenario", "protocol", "seed", "passed", "curve", "points"]


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as handle:
        json.dump({key: _observe(key) for key in sorted(GOLDEN)}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(GOLDEN)} sweep cases to {GOLDEN_PATH}")
