"""Sweep grids: every axis's points come out in one canonical order.

A grid is sorted and de-duplicated before it runs, so a sweep's output
depends only on the *set* of points requested; the stock grid each axis
expands ``default`` to is already in that order, and a point its parser
cannot read is a :class:`ScenarioError`.  The points run one after another
in one process, and each one's result is what its spec gives run alone.
"""

import json
from dataclasses import replace

import pytest

from repro.scenarios import (
    AXES,
    BATCH,
    LATENCY,
    BatchSpec,
    LatencySpec,
    ScenarioError,
    ScenarioRunner,
    ScenarioSpec,
    get_scenario,
    run_axis_sweep,
)


def _small(name: str, txns: int = 30, **overrides) -> ScenarioSpec:
    spec = get_scenario(name)
    return spec.with_overrides(
        workload=replace(spec.workload, txns=txns), **overrides
    )


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
def test_each_sweep_point_equals_its_spec_run_alone(axis):
    """A point's result does not depend on the points run before it in the
    same process: rerunning each point's spec alone, last point first,
    gives the sweep's result byte for byte."""
    spec = _axis_spec(axis)
    sweep = run_axis_sweep(spec, axis)
    assert sweep.passed
    results = dict(sweep.points)
    assert len(results) == len(axis.stock)
    for point in reversed(axis.stock):
        alone = ScenarioRunner(axis.apply(spec, point)).run()
        assert json.dumps(alone.as_dict(), sort_keys=True) == json.dumps(
            results[axis.label(point)].as_dict(), sort_keys=True
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
