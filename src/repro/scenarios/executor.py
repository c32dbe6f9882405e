"""Multi-core scenario execution: fan whole runs out over worker processes.

A scenario run is a pure function of its spec — same spec, same result,
byte for byte.  That makes sweeps, scenario packs and benchmark
repetitions embarrassingly parallel: this module fans them out over a
:class:`repro.runtime.parallel.ParallelExecutor` (a spawn-safe process
pool) and returns results in **spec order**, never completion order, so
parallel output is identical to a ``jobs=1`` run of the same inputs.

The workers re-import ``repro`` in fresh interpreters, so everything
crossing the pool boundary (specs in, results out) must be picklable —
:class:`ScenarioSpec` and :class:`ScenarioResult` both are.  Worker
failures surface as :class:`repro.runtime.parallel.WorkerError` carrying
the child's formatted traceback.

Entry points::

    run_scenarios(specs, jobs=4)          # scenario packs
    run_repetitions(spec, 8, jobs=4)      # seed-derived repetitions
    run_sweep(spec, protocols, jobs=4)    # protocol comparison fan-out

The axis sweep driver (:func:`repro.scenarios.sweep.run_axis_sweep`, one
``run_scenarios`` call per grid) and the CLI's ``--jobs`` flag delegate
here.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.runtime.parallel import ParallelExecutor, derive_seed
from repro.scenarios.runner import ScenarioResult, ScenarioRunner
from repro.scenarios.spec import ScenarioSpec


def _run_spec(spec: ScenarioSpec) -> ScenarioResult:
    """The worker body: one full scenario run (module-level so the spawn
    pool can import it by qualified name)."""
    return ScenarioRunner(spec).run()


def run_scenarios(
    specs: Sequence[ScenarioSpec], jobs: int = 1
) -> List[ScenarioResult]:
    """Run every spec, ``jobs`` at a time; results come back in spec order."""
    return ParallelExecutor(jobs).map(_run_spec, list(specs))


def run_repetitions(
    spec: ScenarioSpec, repeats: int, jobs: int = 1
) -> List[ScenarioResult]:
    """Run ``repeats`` seed-derived repetitions of one spec.

    Repetition ``i`` runs with ``derive_seed(spec.seed, i)``, so the seed
    schedule is identical whatever the worker count — repetition results
    can be compared across ``jobs`` settings and across machines.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    specs = [
        spec.with_overrides(seed=derive_seed(spec.seed, index))
        for index in range(repeats)
    ]
    return run_scenarios(specs, jobs=jobs)


def run_sweep(
    spec: ScenarioSpec, protocols: Sequence[str], jobs: int = 1
) -> Dict[str, ScenarioResult]:
    """Run the same scenario under several protocols (same seed/workload);
    with ``jobs > 1`` the protocols fan out over a process pool."""
    specs = [spec.with_overrides(protocol=protocol) for protocol in protocols]
    results = run_scenarios(specs, jobs=jobs)
    return dict(zip(protocols, results))
