"""Declarative scenario engine: one driving loop for every consumer.

``repro.scenarios`` turns "build a cluster, inject faults, run a workload,
collect metrics" into data: a :class:`ScenarioSpec` describes the
experiment, :class:`ScenarioRunner` executes it deterministically, and a
:class:`ScenarioResult` carries throughput, latency, abort-rate, message
and safety metrics.  The examples, the benchmark harness, the tests and
the ``python -m repro.scenarios`` CLI all run on this engine.

Every name below is imported on first access (PEP 562): a run built from
:class:`ScenarioSpec` and :class:`ScenarioRunner` loads neither the
scenario library nor the sweep axes.
"""

from repro import _lazy_exports

# Every public name and the module it is defined in.
_EXPORTS = {
    **dict.fromkeys(
        ("SCENARIOS", "get_scenario", "register_scenario", "scenario_names"),
        "repro.scenarios.library",
    ),
    **dict.fromkeys(
        ("ScenarioResult", "ScenarioRunner", "run_scenario"),
        "repro.scenarios.runner",
    ),
    **dict.fromkeys(
        (
            "CHECK_MODES",
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
            "WorkloadSpec",
        ),
        "repro.scenarios.spec",
    ),
    **dict.fromkeys(
        (
            "AXES",
            "BANDWIDTH",
            "BATCH",
            "DETECTOR",
            "LATENCY",
            "READ_RATIO",
            "SweepAxis",
            "SweepResult",
            "parse_bandwidth",
            "parse_batch",
            "parse_detector",
            "parse_latency",
            "parse_read_ratio",
            "run_axis_sweep",
            "run_sweep",
        ),
        "repro.scenarios.sweep",
    ),
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
