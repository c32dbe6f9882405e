"""Declarative scenario engine: one driving loop for every consumer.

``repro.scenarios`` turns "build a cluster, inject faults, run a workload,
collect metrics" into data: a :class:`ScenarioSpec` describes the
experiment, :class:`ScenarioRunner` executes it deterministically, and a
:class:`ScenarioResult` carries throughput, latency, abort-rate, message
and safety metrics.  The examples, the benchmark harness, the tests and
the ``python -m repro.scenarios`` CLI all run on this engine.
"""

from repro.scenarios.library import (
    SCENARIOS,
    get_scenario,
    register_scenario,
    scenario_names,
)
from repro.scenarios.runner import (
    ScenarioResult,
    ScenarioRunner,
    run_scenario,
)
from repro.scenarios.executor import (
    run_repetitions,
    run_scenarios,
    run_sweep,
)
from repro.scenarios.spec import (
    CHECK_MODES,
    EXEC_MODES,
    FAULT_ACTIONS,
    LATENCY_MODELS,
    PROTOCOL_BASELINE,
    WORKLOAD_KINDS,
    BatchSpec,
    ExecSpec,
    FaultStep,
    LatencySpec,
    NetworkSpec,
    RetrySpec,
    ScenarioError,
    ScenarioSpec,
    WorkloadSpec,
)
from repro.scenarios.sweep import (
    AXES,
    BANDWIDTH,
    BATCH,
    DETECTOR,
    LATENCY,
    READ_RATIO,
    SweepAxis,
    SweepResult,
    parse_bandwidth,
    parse_batch,
    parse_detector,
    parse_latency,
    parse_read_ratio,
    run_axis_sweep,
)

__all__ = [
    "AXES",
    "BANDWIDTH",
    "BATCH",
    "CHECK_MODES",
    "DETECTOR",
    "LATENCY",
    "READ_RATIO",
    "SCENARIOS",
    "get_scenario",
    "register_scenario",
    "scenario_names",
    "ScenarioResult",
    "ScenarioRunner",
    "run_scenario",
    "run_scenarios",
    "run_repetitions",
    "run_sweep",
    "run_axis_sweep",
    "parse_latency",
    "parse_bandwidth",
    "parse_batch",
    "parse_detector",
    "parse_read_ratio",
    "EXEC_MODES",
    "FAULT_ACTIONS",
    "LATENCY_MODELS",
    "PROTOCOL_BASELINE",
    "WORKLOAD_KINDS",
    "BatchSpec",
    "ExecSpec",
    "FaultStep",
    "LatencySpec",
    "NetworkSpec",
    "RetrySpec",
    "ScenarioError",
    "ScenarioSpec",
    "SweepAxis",
    "SweepResult",
    "WorkloadSpec",
]
