"""Per-layer host self time from one traced repetition.

The traced repetition runs under ``cProfile``.  Self time is bucketed by
``repro`` module into the layers below (named after the modules), and the
self time of everything that is not ``repro`` code — builtins such as heap
operations and ``isinstance``, the standard library, generated dataclass
methods like ``Event.__lt__`` — is charged to the nearest ``repro`` caller
by following the profile's caller edges.  What cannot be traced back to a
layer (the benchmark's own driver, the profiler's entry) is
``unattributed``.

``cProfile`` charges its hook to every Python call and nothing to work
inside native code, so the shares lean towards call-heavy layers; they
find candidates, and the untraced runs measure.
"""

from __future__ import annotations

import cProfile
import pstats
from typing import Dict, Optional, Tuple

UNATTRIBUTED = "unattributed"

# Layer -> the repro modules (paths under src/repro, without .py) it holds.
LAYER_MODULES: Dict[str, Tuple[str, ...]] = {
    "runtime.events": ("runtime/events",),
    "runtime.network": ("runtime/network", "runtime/failures"),
    "runtime.wire": ("runtime/wire",),
    "runtime.process": ("runtime/process",),
    "runtime.rdma": ("runtime/rdma",),
    "runtime.parallel": ("runtime/parallel",),
    "core.coordinator": ("core/coordinator",),
    "core.replica": ("core/replica", "core/messages", "core/types", "core/directory"),
    "core.certification": ("core/certification", "core/serializability", "core/votecache"),
    "core.batching": ("core/batching",),
    "core.reads": ("core/reads", "store/kv"),
    "core.reconfig": ("core/reconfig", "core/failuredetector", "configservice/service"),
    "rdma.replica": ("rdma/replica", "rdma/messages", "rdma/broken"),
    "baselines": ("baselines/cluster", "baselines/paxos", "baselines/twopc"),
    "client": ("client",),
    "workload": ("workload/generators", "store/executor"),
    "spec.history": ("spec/history",),
    "spec.incremental": ("spec/incremental", "spec/invariants", "spec/checker"),
    "scenarios.runner": (
        "scenarios/runner",
        "scenarios/spec",
        "scenarios/latency",
        "cluster",
        "analysis/metrics",
    ),
}
LAYERS = tuple(LAYER_MODULES) + (UNATTRIBUTED,)

_LAYER_OF_MODULE = {
    module: layer for layer, modules in LAYER_MODULES.items() for module in modules
}
_MARKER = "/repro/"

Func = Tuple[str, int, str]  # pstats key: file, line, name


def layer_of_file(filename: str) -> Optional[str]:
    """The layer a source file belongs to, or None for non-``repro`` code."""
    _head, marker, tail = filename.replace("\\", "/").rpartition(_MARKER)
    if not marker or not tail.endswith(".py"):
        return None
    return _LAYER_OF_MODULE.get(tail[:-3], UNATTRIBUTED)


def layer_self_seconds(profiler: cProfile.Profile) -> Dict[str, float]:
    """Self seconds per layer; the values sum to the profile's total self time."""
    stats: Dict[Func, tuple] = pstats.Stats(profiler).stats
    layer_of: Dict[Func, Optional[str]] = {func: layer_of_file(func[0]) for func in stats}
    memo: Dict[Tuple[Func, int], Dict[str, float]] = {}

    def shares(func: Func, column: int, visiting: frozenset) -> Dict[str, float]:
        """How a non-repro function's time divides over layers, by who called
        it.  ``column`` picks the caller-edge weight: the callee's self time
        under each caller (2) on the first hop, its cumulative time (3) on
        further hops, since that is what carries the time being charged."""
        key = (func, column)
        if key in memo:
            return memo[key]
        callers = stats[func][4]
        weights = {caller: edge[column] for caller, edge in callers.items()}
        if sum(weights.values()) <= 0.0:  # below the clock's resolution
            weights = {caller: edge[0] for caller, edge in callers.items()}  # call counts
        total = sum(weights.values())
        if total <= 0.0:  # no caller recorded: the profile's root
            return {UNATTRIBUTED: 1.0}
        result: Dict[str, float] = {}
        for caller, weight in weights.items():
            share = weight / total
            layer = layer_of.get(caller)
            if layer is not None:
                parts = {layer: 1.0}
            elif caller in stats and caller not in visiting:
                parts = shares(caller, 3, visiting | {func})
            else:  # recursion through non-repro code, or the profile's root
                parts = {UNATTRIBUTED: 1.0}
            for name, part in parts.items():
                result[name] = result.get(name, 0.0) + share * part
        memo[key] = result
        return result

    seconds = {layer: 0.0 for layer in LAYERS}
    for func, (_cc, _nc, self_time, _ct, _callers) in stats.items():
        layer = layer_of[func]
        if layer is not None:
            seconds[layer] += self_time
        else:
            for name, part in shares(func, 2, frozenset({func})).items():
                seconds[name] += self_time * part
    return seconds
