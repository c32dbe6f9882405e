"""Multi-core simulation: process fan-out of whole runs.

Whole simulation runs (sweep grid points, scenario packs, benchmark
repetitions) are embarrassingly parallel: each is a pure function of its
spec.  :class:`ParallelExecutor` fans tasks out over a spawn-based process
pool and returns results in *input* order (never completion order), so
merged output is deterministic and diffable.  Worker failures surface as
:class:`WorkerError` carrying the child's formatted traceback instead of a
hang or an opaque ``BrokenProcessPool``.  A single run always executes on
the one serial event heap of :mod:`repro.runtime.events`.

The pool machinery (:mod:`concurrent.futures`, :mod:`multiprocessing`) is
imported on the first parallel map, not with this module: a process that
never fans out (``jobs == 1``, every single run) does not load it.
"""

from __future__ import annotations

import os
import traceback
from typing import Any, Callable, List, Sequence, Tuple


def derive_seed(seed: int, index: int) -> int:
    """A per-task seed for repetition ``index`` of a base ``seed``.

    Deterministic, collision-scattered (golden-ratio increment), and stable
    across platforms — repetition 3 gets the same seed whether it runs
    inline, in a pool of 2, or in a pool of 16.
    """
    if index < 0:
        raise ValueError("repetition index must be >= 0")
    return (seed + 0x9E3779B1 * (index + 1)) & 0x7FFF_FFFF


class WorkerError(RuntimeError):
    """A task raised in a worker process.

    The message embeds the child's formatted traceback, so the failure
    reads like a local one instead of a bare ``BrokenProcessPool``.
    """

    def __init__(self, index: int, child_traceback: str) -> None:
        self.index = index
        self.child_traceback = child_traceback
        super().__init__(
            f"parallel task #{index} failed in worker; child traceback:\n"
            f"{child_traceback}"
        )


def _guarded_call(fn: Callable[[Any], Any], item: Any) -> Tuple[bool, Any]:
    """Run one task in the worker; never let an exception cross the pickle
    boundary raw (tracebacks do not survive pickling)."""
    try:
        return True, fn(item)
    except BaseException:
        return False, traceback.format_exc()


def resolve_jobs(jobs: int) -> int:
    """``jobs=0`` means one worker per core; otherwise the value itself."""
    if jobs < 0:
        raise ValueError("jobs must be >= 0 (0 = one worker per core)")
    return jobs or (os.cpu_count() or 1)


class ParallelExecutor:
    """A spawn-safe process pool with deterministic result ordering.

    ``map(fn, items)`` runs ``fn`` over ``items`` on ``jobs`` workers and
    returns results in item order.  ``fn`` and every item/result must be
    picklable top-level objects (the pool uses the spawn start method, the
    only one that is fork-safe under threads and identical across
    platforms; the parent's ``sys.path`` propagates to children, so
    ``PYTHONPATH=src`` invocations keep working).  With ``jobs == 1`` tasks
    run inline in this process — no pool, no pickling, exceptions propagate
    natively — which is also the reference ordering the parallel path must
    reproduce.
    """

    def __init__(self, jobs: int = 1) -> None:
        self.jobs = resolve_jobs(jobs)

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
        items = list(items)
        if not items:
            return []
        if self.jobs == 1 or len(items) == 1:
            return [fn(item) for item in items]
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        workers = min(self.jobs, len(items))
        context = get_context("spawn")
        with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
            futures = [pool.submit(_guarded_call, fn, item) for item in items]
            results: List[Any] = []
            for index, future in enumerate(futures):
                ok, value = future.result()
                if not ok:
                    for pending in futures[index + 1:]:
                        pending.cancel()
                    raise WorkerError(index, value)
                results.append(value)
        return results

