"""Compare two all-workloads results, metric by metric, workload by workload.

For every workload x end-to-end metric: parent and change medians with
their quartiles, the ratio change / parent, and a verdict against the
bound BENCHMARK.json fixes for the metric.  A spread wider than the bound
is reported as ``unresolved``, never as ``unchanged``.

BENCHMARK.json's bounds on virtual-time metrics have to absorb the spread
between runs from *different* seeds.  Two results from the same seed and
scale repeat those metrics exactly, so there any movement is a change of
behaviour, and they are held to ``SAME_SEED_VIRTUAL_BOUND`` instead.
"""

from __future__ import annotations

import json
import statistics
from typing import List, Sequence, Tuple

HOST_METRICS = frozenset({"host_txns_per_s", "setup_s", "peak_rss_mb"})  # the rest are virtual time
SAME_SEED_VIRTUAL_BOUND = 0.005


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    """First and third quartile (both the value itself for a single sample)."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _median, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent: dict, change: dict, better: str, bound: float, exact: bool = False) -> str:
    """``improved`` / ``unchanged`` / ``regressed`` by more than the bound,
    or ``unresolved`` when either side's own spread is wider than it.
    ``exact`` marks numbers that repeat exactly, whose quartiles are the
    spread between seeds and not a measurement's."""
    spread = 0.0
    if not exact:
        spread = max(
            (side["q3"] - side["q1"]) / abs(side["value"]) if side["value"] else 0.0
            for side in (parent, change)
        )
    if spread > bound:
        return "unresolved"
    # Against a parent of 0 (failed_frac) any movement is past the bound.
    worse = change["value"] - parent["value"]
    if better == "higher":
        worse = -worse
    allowed = bound * abs(parent["value"])
    if worse > allowed:
        return "regressed"
    if worse < -allowed:
        return "improved"
    return "unchanged"


def compare_documents(parent: dict, change: dict, entries: Sequence[dict]) -> List[str]:
    """Print one row per workload x end-to-end metric (``entries``: name,
    better, bound of each); returns the verdicts."""
    verdicts: List[str] = []
    same_inputs = (parent["seed"], parent["scale"]) == (change["seed"], change["scale"])
    row = "{:<18} {:<19} {:>32} {:>32} {:>22} {:>6}  {}"
    print(row.format("workload", "metric", "parent (q1..q3)", "change (q1..q3)", "change/parent", "bound", "verdict"))
    for name, entry in parent["workloads"].items():
        before = entry["end_to_end"]["metrics"]
        after = change["workloads"][name]["end_to_end"]["metrics"]
        for metric in entries:
            p, c = before[metric["name"]], after[metric["name"]]
            exact = same_inputs and metric["name"] not in HOST_METRICS
            bound = min(metric["bound"], SAME_SEED_VIRTUAL_BOUND) if exact else metric["bound"]
            outcome = verdict(p, c, metric["better"], bound, exact)
            verdicts.append(outcome)
            ratio = c["value"] / p["value"] if p["value"] else float("nan")
            print(
                row.format(
                    name,
                    metric["name"],
                    _cell(p),
                    _cell(c),
                    f"{ratio:.4f} of {p['value']:.5g}",
                    f"{bound:.3f}",
                    outcome,
                )
            )
    return verdicts


def _cell(metric: dict) -> str:
    return f"{metric['value']:.5g} ({metric['q1']:.5g}..{metric['q3']:.5g})"


def compare_files(parent_path: str, change_path: str, entries: Sequence[dict]) -> List[str]:
    with open(parent_path, encoding="utf-8") as handle:
        parent = json.load(handle)
    with open(change_path, encoding="utf-8") as handle:
        change = json.load(handle)
    return compare_documents(parent, change, entries)
