"""Smoke test of the benchmark harness, collected by the tier-1 command.

All six workloads at 2% size with one repetition: the harness emits
exactly the metric names BENCHMARK.json declares (and the two end-to-end
ones it cannot: ``UNDECLARED_END_TO_END``), every virtual-time
metric and history digest repeats exactly across two invocations under
different ``PYTHONHASHSEED`` values, and comparing a result with itself
finds every metric unchanged.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from tcs_compare import HOST_METRICS
from tcsbench import UNDECLARED_END_TO_END

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def tcsbench(*arguments: str, hashseed: int = 0) -> subprocess.CompletedProcess:
    done = subprocess.run(
        [sys.executable, str(BENCH / "tcsbench.py"), *arguments],
        cwd=ROOT,
        env=dict(os.environ, PYTHONHASHSEED=str(hashseed)),
        stdout=subprocess.PIPE,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout
    return done


@pytest.fixture(scope="module")
def declaration() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    """(path, document) of a full small run, and the document of a second,
    untraced one under another hash seed."""
    directory = tmp_path_factory.mktemp("tcsbench")
    small = ("--scale", "0.02", "--reps", "1")
    first, second = directory / "first.json", directory / "second.json"
    tcsbench(*small, "--out", str(first), hashseed=1)
    tcsbench(*small, "--trace", "0", "--out", str(second), hashseed=2)
    return first, json.loads(first.read_text()), json.loads(second.read_text())


def test_emitted_names_equal_declared_names(declaration, results):
    _path, first, _second = results
    assert sorted(first["workloads"]) == sorted(w["name"] for w in declaration["workloads"])
    for name, entry in first["workloads"].items():
        for section, undeclared in (("end_to_end", UNDECLARED_END_TO_END), ("per_layer", ())):
            emitted = entry[section]["metrics"]
            expected = declaration[section] + list(undeclared)
            assert sorted(emitted) == sorted(m["name"] for m in expected), (name, section)
            for metric in expected:
                assert emitted[metric["name"]]["unit"] == metric["unit"]


def test_virtual_time_metrics_repeat_exactly(results):
    _path, first, second = results
    for name, entry in first["workloads"].items():
        again = second["workloads"][name]
        assert entry["digest"] == again["digest"], name
        for metric, measured in entry["end_to_end"]["metrics"].items():
            if metric not in HOST_METRICS:
                assert measured["value"] == again["end_to_end"]["metrics"][metric]["value"], (
                    name,
                    metric,
                )


def test_compare_with_itself_is_all_unchanged(declaration, results):
    path, _first, _second = results
    rows = tcsbench("--compare", str(path), str(path)).stdout.splitlines()[1:]
    metrics = len(declaration["end_to_end"]) + len(UNDECLARED_END_TO_END)
    assert len(rows) == len(declaration["workloads"]) * metrics
    assert {row.split()[-1] for row in rows} == {"unchanged"}


def test_single_workload_result_line_holds_the_declared_metrics(declaration):
    small = ("--workload", "mp-steady", "--scale", "0.02", "--reps", "1", "--seconds", "1")
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        line = json.loads(tcsbench(*small, "--trace", trace).stdout.splitlines()[-1])
        assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
        assert line["correct"] is True and line["failed"] == 0 < line["attempted"]
        assert sorted(line["metrics"]) == sorted(m["name"] for m in declaration[section])
