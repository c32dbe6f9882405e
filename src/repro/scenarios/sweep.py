"""Sweep driver: one scenario across a grid of points along one axis.

A *sweep* runs the same :class:`~repro.scenarios.spec.ScenarioSpec` (same
workload, faults and seed) once per grid point and collects the results
into a curve.  What varies is described by a :class:`SweepAxis` — a value,
not a subclass: how a point is parsed, ordered, labelled and applied to
the spec, and which curve fields and table columns the result shows.  One
:func:`run_axis_sweep` and one :class:`SweepResult` serve every axis;
:func:`run_sweep` is the grid-less comparison of protocols.

The stock axes, in :data:`AXES` order:

* :data:`LATENCY` varies the :class:`LatencySpec`; because the per-phase
  breakdown (submit -> certify -> decide) rides along on every
  :class:`~repro.scenarios.runner.ScenarioResult`, the curve separates
  protocol cost (the certify -> decide phase, measured in critical-path
  message delays) from network cost (the request/response phases, which
  scale directly with the link-delay distribution);
* :data:`BATCH` varies the :class:`BatchSpec`, rendering batch size
  against throughput, latency, messages sent and the observed mean batch
  size — the knob-tuning view for the protocol-level batching pipeline;
* :data:`READ_RATIO` varies ``workload.read_ratio``, rendering the read
  mix against throughput, latency and fast-path hit counts — the
  evaluation view for the snapshot-read fast path (run it once with
  ``read.mode='snapshot'`` and once without for the crossover);
* :data:`DETECTOR` varies the :class:`DetectorSpec` (heartbeat interval x
  suspicion threshold), rendering each policy against suspicions, false
  positives, pushed failovers and time-to-recovery — the tuning view for
  the failure detector's speed/accuracy tradeoff;
* :data:`BANDWIDTH` varies the :class:`NetworkSpec` (link capacity,
  per-message overhead, commit-path toggles), rendering each link model
  against throughput, latency, bytes on the wire and FIFO queueing — the
  evaluation view for the bandwidth-aware network layer (batches stop
  being free once serialization time is charged).

Used by ``python -m repro.scenarios sweep <scenario> --latency ... /
--batch ... / --read-ratio ... / --detector ... / --bandwidth ...`` and
importable directly::

    from repro.scenarios.sweep import LATENCY, run_axis_sweep
    curve = run_axis_sweep(get_scenario("steady-state"), LATENCY)
    print(curve.render())

A further axis needs no hook: build a :class:`SweepAxis` and pass it in.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.metrics import format_table
from repro.scenarios.runner import ScenarioResult, ScenarioRunner
from repro.scenarios.spec import (
    LATENCY_MODELS,
    BatchSpec,
    DetectorSpec,
    LatencySpec,
    NetworkSpec,
    ScenarioError,
    ScenarioSpec,
)


# ----------------------------------------------------------------------
# the vocabulary axes pick their curve fields and table columns from
# ----------------------------------------------------------------------

def _latency(result: ScenarioResult, stat: str) -> Optional[float]:
    """A point with no client-observed decisions reports null latencies
    (a 0.0 would read as the best point on the curve)."""
    return getattr(result.latency, stat) if result.latency else None


def _mean_ttr(result: ScenarioResult) -> Optional[float]:
    """Mean crash -> next-install time; null when no crash/install pair was
    observed (e.g. a detector-off point that never reconfigured)."""
    times = result.recovery_times
    return sum(times) / len(times) if times else None


def _opt(value: Optional[float], spec: str) -> str:
    return format(value, spec) if value is not None else "-"


def _phase(name: str) -> Callable[[ScenarioResult], str]:
    def cell(result: ScenarioResult) -> str:
        summary = getattr(result.phases, name) if result.phases else None
        return f"{summary.mean:.2f}" if summary is not None else "-"

    return cell


# Curve fields are ScenarioResult attribute names (run-level fields or the
# subsystems' flat JSON names), except these derived ones.
CURVE_DERIVED: Dict[str, Callable[[ScenarioResult], Any]] = {
    "mean_latency": lambda r: _latency(r, "mean"),
    "p99_latency": lambda r: _latency(r, "p99"),
    "mean_ttr": _mean_ttr,
}

# Every axis's curve starts with these.
_BASE_CURVE: Tuple[str, ...] = ("throughput", "mean_latency", "p99_latency")

# Table columns by header text: header -> cell(result).
COLUMNS: Dict[str, Callable[[ScenarioResult], Any]] = {
    "committed": attrgetter("committed"),
    "abort": lambda r: f"{r.abort_rate:.3f}",
    "tput/1k": lambda r: f"{r.throughput:.1f}",
    "lat mean": lambda r: _opt(_latency(r, "mean"), ".2f"),
    "lat p99": lambda r: _opt(_latency(r, "p99"), ".2f"),
    "submit>cert": _phase("submit_to_certify"),
    "cert>decide": _phase("certify_to_decide"),
    "decide>client": _phase("decide_to_client"),
    "queue wait": _phase("queue_wait"),
    "messages": attrgetter("messages_sent"),
    "batches": attrgetter("batches"),
    "mean size": lambda r: f"{r.mean_batch_size:.2f}" if r.batches else "-",
    "fast reads": attrgetter("reads_served"),
    "fallbacks": attrgetter("read_fallbacks"),
    "suspicions": attrgetter("suspicions"),
    "false": attrgetter("false_suspicions"),
    "view chg": attrgetter("view_changes"),
    "pushed": attrgetter("pushed_failovers"),
    "mean TTR": lambda r: _opt(_mean_ttr(r), ".1f"),
    "orphaned": attrgetter("orphaned"),
    "bytes": lambda r: f"{r.bytes_sent:.0f}" if r.bytes_sent else "-",
    "q wait": lambda r: f"{r.link_queue_wait_mean:.2f}",
    "q max": lambda r: f"{r.link_queue_wait_max:.2f}",
    "depth": attrgetter("link_max_depth"),
}


# ----------------------------------------------------------------------
# the axis, the result and the runner
# ----------------------------------------------------------------------

def _describe(point: Any) -> str:
    return point.describe()


@dataclass(frozen=True)
class SweepAxis:
    """One thing a sweep can vary, as data.

    ``name`` is the CLI flag (``--name``) and the word in the table title;
    ``label_key`` names the point in the JSON curve; ``header`` heads the
    table's first column.  ``parse_point`` turns one CLI word into a point,
    ``sort_key`` gives the canonical grid order, ``apply`` rewrites the spec
    for a point and ``label`` names the point in the output.  ``curve``
    lists the JSON curve fields after the label (ScenarioResult attribute
    names or :data:`CURVE_DERIVED` keys) and ``columns`` the table columns
    after the label (:data:`COLUMNS` headers).

    ``json_label`` casts the label for JSON (``float`` for a numeric axis).
    ``context`` maps the spec to a ``(tag, value)`` pair that is held fixed
    across the grid yet needed to read the curve: it is shown as
    ``tag=value`` in the title and stored as ``<tag>_model`` in the dict,
    the key :class:`ScenarioResult` uses for the same value.
    """

    name: str
    label_key: str
    header: str
    stock: Tuple[Any, ...]
    parse_point: Callable[[str], Any]
    sort_key: Callable[[Any], Any]
    apply: Callable[[ScenarioSpec, Any], ScenarioSpec]
    curve: Tuple[str, ...]
    columns: Tuple[str, ...]
    label: Callable[[Any], str] = _describe
    json_label: Callable[[str], Any] = str
    context: Optional[Callable[[ScenarioSpec], Tuple[str, str]]] = None
    metavar: str = "POINT"
    help: str = ""

    def parse(self, texts: Iterable[str]) -> Tuple[Any, ...]:
        """Parse CLI points; the single word ``default`` expands to the
        stock grid."""
        grid: List[Any] = []
        for text in texts:
            if text.strip() == "default":
                grid.extend(self.stock)
            else:
                grid.append(self.parse_point(text))
        return tuple(grid)

    def sort(self, grid: Iterable[Any]) -> Tuple[Any, ...]:
        """Canonical grid order, duplicates dropped.  Sweeps sort their grid
        on entry so the output row order — and therefore every derived
        artifact (curves, JSON, diffs) — depends only on the *set* of points
        requested, not on the order flags appeared on the command line."""
        return tuple(sorted(dict.fromkeys(grid), key=self.sort_key))


@dataclass
class SweepResult:
    """One scenario's results across one axis's grid, in grid order."""

    axis: SweepAxis
    scenario: str
    protocol: str
    seed: int
    context: Optional[Tuple[str, str]] = None
    points: List[Tuple[str, ScenarioResult]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(result.passed for _, result in self.points)

    def curve(self) -> List[Dict[str, Any]]:
        """The axis-vs-metrics curve: one row per grid point."""
        rows = []
        for label, result in self.points:
            row = {self.axis.label_key: self.axis.json_label(label)}
            for name in self.axis.curve:
                row[name] = CURVE_DERIVED.get(name, attrgetter(name))(result)
            rows.append(row)
        return rows

    def as_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "scenario": self.scenario,
            "protocol": self.protocol,
            "seed": self.seed,
        }
        if self.context:
            tag, value = self.context
            data[f"{tag}_model"] = value
        data["passed"] = self.passed
        data["curve"] = self.curve()
        data["points"] = [
            {self.axis.label_key: self.axis.json_label(label), "result": result.as_dict()}
            for label, result in self.points
        ]
        return data

    def render(self) -> str:
        rows = [
            [label] + [COLUMNS[header](result) for header in self.axis.columns]
            for label, result in self.points
        ]
        body = format_table([self.axis.header, *self.axis.columns], rows)
        context = "{}={}, ".format(*self.context) if self.context else ""
        verdict = "all safe" if self.passed else "FAILED"
        return (
            f"=== {self.axis.name} sweep: {self.scenario} ({self.protocol}, "
            f"{context}seed {self.seed}) — {verdict} ===\n{body}"
        )


def run_axis_sweep(
    spec: ScenarioSpec,
    axis: SweepAxis,
    grid: Optional[Sequence[Any]] = None,
    **overrides: Any,
) -> SweepResult:
    """Run ``spec`` once per point of ``grid`` (the axis's stock grid when
    omitted), optionally overriding spec fields first.  Every point reuses
    the spec's seed, workload, faults and every model the axis does not
    rewrite, so the curve isolates the effect of the axis.  The grid is
    sorted canonically (:meth:`SweepAxis.sort`) and its points run in that
    order.
    """
    if overrides:
        spec = spec.with_overrides(**overrides)
    points = axis.sort(axis.stock if grid is None else grid)
    return SweepResult(
        axis=axis,
        scenario=spec.name,
        protocol=spec.protocol,
        seed=spec.seed,
        context=axis.context(spec) if axis.context else None,
        points=[
            (axis.label(point), ScenarioRunner(axis.apply(spec, point)).run())
            for point in points
        ],
    )


def run_sweep(spec: ScenarioSpec, protocols: Sequence[str]) -> Dict[str, ScenarioResult]:
    """Run the same scenario under several protocols (same seed/workload)."""
    return {
        protocol: ScenarioRunner(spec.with_overrides(protocol=protocol)).run()
        for protocol in protocols
    }


# ----------------------------------------------------------------------
# point parsers
# ----------------------------------------------------------------------

def _parse_point(
    text: str,
    cls: type,
    kind: str,
    head: Tuple[str, str, Callable[[str], Any]],
    keys: Dict[str, Tuple[str, Callable[[str], Any]]],
    implied: Optional[Dict[str, Dict[str, Any]]] = None,
) -> Any:
    """Parse one ``off`` | ``HEAD[:k=v,...]`` CLI point into a validated
    ``cls`` value.  ``head`` is ``(METAVAR, field, cast)``; ``keys`` maps a
    CLI key to ``(field, cast)``, where the cast ``bool`` accepts exactly
    ``true``/``false``; ``implied`` maps a CLI key to field defaults it
    brings along unless the point sets those fields itself.

    The latency grammar (:func:`parse_latency`) deliberately does not go
    through here: its head is a model name that selects which keys are
    legal, not a value.
    """
    text = text.strip()
    if text == "off":
        return cls()
    implied = implied or {}
    head_text, _, params_text = text.partition(":")
    metavar, head_field, head_cast = head
    try:
        fields: Dict[str, Any] = {head_field: head_cast(head_text)}
    except ValueError:
        raise ScenarioError(
            f"invalid {kind} point {text!r}: expected 'off' or {metavar}[:k=v,...]"
        ) from None
    defaults: Dict[str, Any] = {}
    for pair in filter(None, (p.strip() for p in params_text.split(","))):
        key, sep, value = pair.partition("=")
        if not sep:
            raise ScenarioError(f"invalid {kind} parameter {pair!r}: expected k=v")
        if key not in keys:
            names = list(keys)
            raise ScenarioError(
                f"unknown {kind} parameter {key!r}; "
                f"expected {', '.join(names[:-1])} or {names[-1]}"
            )
        field_name, cast = keys[key]
        if cast is bool:
            if value not in ("true", "false"):
                raise ScenarioError(f"{key} must be 'true' or 'false'")
            fields[field_name] = value == "true"
        else:
            try:
                fields[field_name] = cast(value)
            except ValueError:
                raise ScenarioError(f"invalid {key} value {value!r}") from None
        defaults.update(implied.get(key, {}))
    return _validated(cls(**{**defaults, **fields}))


def _validated(point: Any) -> Any:
    """``point``, validated; a policy or model raises the plain ValueError
    clusters see, and a CLI point reports it as a ScenarioError."""
    try:
        point.validate()
    except ValueError as error:
        raise ScenarioError(str(error)) from None
    return point


# Float-valued LatencySpec fields settable from the CLI point syntax.  Keys
# outside the chosen model's set are rejected rather than ignored: a
# mistyped point (``fixed:mean=2``) must fail loudly, not run the sweep with
# a silently-defaulted parameter.  Every model but unit additionally accepts
# "jitter".  The regions model carries tuples and is declared in Python.
_LATENCY_FIELDS: Dict[str, Tuple[str, ...]] = {
    "unit": (),
    "fixed": ("value",),
    "uniform": ("low", "high"),
    "lognormal": ("mean", "sigma"),
    "exponential": ("mean",),
}


def parse_latency(text: str) -> LatencySpec:
    """Parse one CLI latency point: ``model[:key=value[,key=value...]]``.

    Examples: ``unit``, ``fixed:value=2``, ``uniform:low=0.5,high=1.5``,
    ``lognormal:mean=2,sigma=0.8,jitter=0.1``.
    """
    model, _, params_text = text.strip().partition(":")
    if model == "regions":
        raise ScenarioError(
            "the regions latency model is declared in Python, not on the command "
            "line (see WAN_THREE_REGIONS in repro.scenarios.library)"
        )
    if model not in _LATENCY_FIELDS:
        _validated(LatencySpec(model=model))  # raises, naming the known models
    allowed = _LATENCY_FIELDS[model]
    if model != "unit":
        allowed = allowed + ("jitter",)
    overrides: Dict[str, float] = {}
    for part in filter(None, (p.strip() for p in params_text.split(","))):
        key, sep, value_text = part.partition("=")
        if not sep:
            raise ScenarioError(f"bad latency parameter {part!r}; expected key=value")
        if key not in allowed:
            raise ScenarioError(
                f"latency parameter {key!r} does not apply to model {model!r}; "
                f"allowed: {allowed or '(none)'}"
            )
        try:
            overrides[key] = float(value_text)
        except ValueError:
            raise ScenarioError(
                f"bad latency parameter {part!r}: {value_text!r} is not a number"
            ) from None
    return _validated(LatencySpec(model=model, **overrides))


def parse_batch(text: str) -> BatchSpec:
    """Parse one CLI batch point: ``off``, a size (``32``), or a size with
    ``k=v`` parameters (``32:linger=2`` — a linger implies a time-cap,
    i.e. non-adaptive, policy unless ``adaptive=true`` is forced)."""
    return _parse_point(
        text,
        BatchSpec,
        "batch",
        ("SIZE", "size", int),
        {"linger": ("linger", float), "adaptive": ("adaptive", bool)},
        implied={"linger": {"adaptive": False}},
    )


def parse_detector(text: str) -> DetectorSpec:
    """Parse one CLI detector point: ``off``, an interval (``2``), or an
    interval with ``k=v`` parameters
    (``2:threshold=6``, ``2:mode=phi,phi=6``, ``1:confirmations=2``)."""
    return _parse_point(
        text,
        DetectorSpec,
        "detector",
        ("INTERVAL", "interval", float),
        {
            "threshold": ("threshold", int),
            "mode": ("mode", str),
            "phi": ("phi_threshold", float),
            "confirmations": ("confirmations", int),
        },
        implied={"phi": {"mode": "phi"}},
    )


def parse_bandwidth(text: str) -> NetworkSpec:
    """Parse one CLI bandwidth point: ``off``, a bandwidth in bytes per
    delay (``2000``), or a bandwidth with ``k=v`` parameters
    (``2000:overhead=0.1``, ``500:pipeline=false``, ``2000:sticky=true``)."""
    return _parse_point(
        text,
        NetworkSpec,
        "bandwidth",
        ("BANDWIDTH", "bandwidth", float),
        {
            "overhead": ("overhead", float),
            "pipeline": ("pipeline", bool),
            "sticky": ("sticky", bool),
        },
    )


def parse_read_ratio(text: str) -> float:
    """Parse one CLI read-ratio point: a float in [0, 1]."""
    text = text.strip()
    try:
        ratio = float(text)
    except ValueError:
        raise ScenarioError(
            f"invalid read-ratio point {text!r}: expected a float in [0, 1]"
        ) from None
    if not 0.0 <= ratio <= 1.0:
        raise ScenarioError(f"read-ratio point {ratio:g} must be within [0, 1]")
    return ratio


# ----------------------------------------------------------------------
# the stock axes
# ----------------------------------------------------------------------

LATENCY = SweepAxis(
    name="latency",
    label_key="latency_model",
    header="latency model",
    # The paper's unit model, bounded jitter around one delay, a heavy tail,
    # and a memoryless network — same mean (one delay) for the three random
    # models, so differences come from distribution shape alone.
    stock=(
        LatencySpec(model="unit"),
        LatencySpec(model="uniform", low=0.5, high=1.5),
        LatencySpec(model="lognormal", mean=1.0, sigma=0.8),
        LatencySpec(model="exponential", mean=1.0),
    ),
    parse_point=parse_latency,
    # Model rank (the LATENCY_MODELS listing order), then the point's
    # canonical parameter label.
    sort_key=lambda p: (LATENCY_MODELS.index(p.model), p.describe()),
    apply=lambda spec, point: spec.with_overrides(latency=point),
    curve=_BASE_CURVE,
    columns=(
        "committed", "abort", "tput/1k", "lat mean", "lat p99",
        "submit>cert", "cert>decide", "decide>client",
    ),
    metavar="MODEL[:k=v,...]",
    help="latency grid point (repeatable; 'default' expands to the stock "
    "grid); with this flag the sweep runs each protocol across the grid",
)

BATCH = SweepAxis(
    name="batch",
    label_key="batch_model",
    header="batch policy",
    # The unbatched baseline plus doubling adaptive size caps, so the curve
    # shows where coalescing saturates for the workload.
    stock=(
        BatchSpec(),
        BatchSpec(size=4),
        BatchSpec(size=8),
        BatchSpec(size=16),
        BatchSpec(size=32),
    ),
    parse_point=parse_batch,
    # The unbatched baseline first, then growing size caps.
    sort_key=lambda p: (p.size, p.linger, p.adaptive),
    apply=lambda spec, point: spec.with_overrides(batch=point),
    curve=_BASE_CURVE + ("messages_sent", "mean_batch_size"),
    columns=(
        "committed", "tput/1k", "lat mean", "lat p99",
        "queue wait", "messages", "batches", "mean size",
    ),
    metavar="SIZE[:k=v,...]",
    help="batch grid point (repeatable; 'off', a size cap like '32', or "
    "'16:linger=2'; 'default' expands to off/4/8/16/32); with this flag "
    "the sweep runs each protocol across the batching grid",
)

READ_RATIO = SweepAxis(
    name="read-ratio",
    label_key="read_ratio",
    header="read ratio",
    # Write-only through read-dominated, the YCSB spread the snapshot-read
    # fast path is evaluated on.
    stock=(0.0, 0.25, 0.5, 0.75, 0.9),
    parse_point=parse_read_ratio,
    sort_key=float,
    # Only workload.read_ratio is rewritten; protocol, read policy, latency
    # model, seed and fault schedule stay fixed.
    apply=lambda spec, ratio: spec.with_overrides(
        workload=replace(spec.workload, read_ratio=ratio)
    ),
    label="{:g}".format,
    json_label=float,
    # The read policy decides whether the mix is served by the fast path.
    context=lambda spec: ("read", spec.read.describe()),
    curve=_BASE_CURVE + ("reads_served", "read_fallbacks", "messages_sent"),
    columns=(
        "committed", "abort", "tput/1k", "lat mean", "lat p99",
        "fast reads", "fallbacks", "messages",
    ),
    metavar="RATIO",
    help="read-ratio grid point in [0, 1] (repeatable; 'default' expands "
    "to 0/0.25/0.5/0.75/0.9); with this flag the sweep runs each protocol "
    "across the read-mix grid (enable the fast path with a snapshot-read "
    "scenario such as read-heavy-steady-state)",
)

DETECTOR = SweepAxis(
    name="detector",
    label_key="detector_model",
    header="detector",
    # The timeout-driven baseline (detector off) plus heartbeat interval x
    # suspicion threshold combinations spanning aggressive (fast detection,
    # false-positive-prone: small TTR, many pushed failovers) to
    # conservative (approaching the timeout-driven baseline).
    stock=(
        DetectorSpec(),
        DetectorSpec(interval=1.0, threshold=3),
        DetectorSpec(interval=2.0, threshold=3),
        DetectorSpec(interval=2.0, threshold=6),
        DetectorSpec(interval=4.0, threshold=3),
    ),
    parse_point=parse_detector,
    # The off point (interval 0) first.
    sort_key=lambda p: (p.interval, p.mode, p.threshold, p.phi_threshold, p.confirmations),
    apply=lambda spec, point: spec.with_overrides(detector=point),
    curve=_BASE_CURVE + (
        "suspicions", "false_suspicions", "view_changes",
        "unsolicited_reconfigurations", "pushed_failovers", "mean_ttr", "orphaned",
    ),
    columns=(
        "committed", "tput/1k", "lat mean", "suspicions", "false",
        "view chg", "pushed", "mean TTR", "orphaned",
    ),
    metavar="INTERVAL[:k=v,...]",
    help="detector grid point (repeatable; 'off', a heartbeat interval "
    "like '2', or '2:threshold=6' / '2:mode=phi,phi=6' / "
    "'1:confirmations=2'; 'default' expands to the stock "
    "interval x threshold grid); with this flag the sweep runs each "
    "protocol across the failure-detector grid",
)

BANDWIDTH = SweepAxis(
    name="bandwidth",
    label_key="network_model",
    header="network",
    # The pure-delay baseline (links cost nothing) plus shrinking link
    # capacities, in bytes per message delay.  Typical protocol messages
    # weigh 50-300 bytes (see repro.runtime.wire), so 8000 is a mild tax,
    # 2000 makes serialization visible and 500 saturates links into real
    # FIFO queues.
    stock=(
        NetworkSpec(),
        NetworkSpec(bandwidth=8000.0),
        NetworkSpec(bandwidth=2000.0),
        NetworkSpec(bandwidth=500.0),
    ),
    parse_point=parse_bandwidth,
    # The pure-delay off point first, then descending bandwidth (wide to
    # narrow pipes), commit-path toggles last.
    sort_key=lambda p: (
        1 if p.enabled else 0, -p.bandwidth, p.overhead, not p.pipeline, p.sticky
    ),
    apply=lambda spec, point: spec.with_overrides(network=point),
    curve=_BASE_CURVE + (
        "bytes_sent", "link_queue_wait_mean", "link_queue_wait_max",
        "link_busy_time", "link_max_depth", "messages_sent",
    ),
    columns=(
        "committed", "tput/1k", "lat mean", "lat p99", "bytes",
        "q wait", "q max", "depth", "messages",
    ),
    metavar="BANDWIDTH[:k=v,...]",
    help="bandwidth grid point (repeatable; 'off', a link capacity in "
    "bytes per delay like '2000', or '2000:overhead=0.1' / "
    "'500:pipeline=false' / '2000:sticky=true'; 'default' expands to "
    "off/8000/2000/500); with this flag the sweep runs each protocol "
    "across the link-model grid",
)

# CLI order: the grid flags and their mutual-exclusion message list these.
AXES: Tuple[SweepAxis, ...] = (LATENCY, BATCH, READ_RATIO, DETECTOR, BANDWIDTH)
