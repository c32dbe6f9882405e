"""Tests for the declarative latency subsystem: model parameter validation,
distribution correctness (sampled moments match the configured ones),
determinism of scenario results under every model, additive composition of
per-channel extra delays with any model, and the property that latency-induced
reordering never produces a false TCS violation on conflict-free workloads."""

import json
import math
import random
import statistics
from dataclasses import replace

import pytest

from repro.cluster import Cluster
from repro.runtime.events import Scheduler
from repro.runtime.network import Network
from repro.scenarios import (
    LatencySpec,
    ScenarioError,
    ScenarioRunner,
    ScenarioSpec,
    get_scenario,
    parse_latency,
)

from helpers import TCSChecker, payload, record


# ----------------------------------------------------------------------
# model parameter validation
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "kwargs,match",
    [
        (dict(model="carrier-pigeon"), "unknown latency model"),
        (dict(model="unit", jitter=0.5), "unit model"),
        (dict(model="fixed", value=0.0), "positive value"),
        (dict(model="uniform", low=-0.5), "non-negative"),
        (dict(model="uniform", low=2.0, high=1.0), "low <= high"),
        (dict(model="lognormal", mean=0.0), "positive mean"),
        (dict(model="lognormal", sigma=-1.0), "positive sigma"),
        (dict(model="exponential", mean=-2.0), "positive mean"),
        (dict(model="uniform", jitter=-0.1), "jitter"),
        (dict(model="regions", regions=("eu",)), "at least two"),
        (dict(model="regions", regions=("eu", "eu"),
              links=(("eu", "eu", 1.0),)), "unique"),
        (dict(model="regions", regions=("eu", "us"), links=()), "missing inter-region"),
        (dict(model="regions", regions=("eu", "us"),
              links=(("eu", "mars", 1.0),)), "unknown region"),
        (dict(model="regions", regions=("eu", "us"),
              links=(("eu", "eu", 1.0),)), "intra"),
        (dict(model="regions", regions=("eu", "us"),
              links=(("eu", "us", -1.0),)), "non-negative"),
        # A repeated direction would silently bind to an asymmetric
        # topology (last value forward, first value backward) — reject it.
        (dict(model="regions", regions=("eu", "us"),
              links=(("eu", "us", 3.0), ("eu", "us", 7.0))), "duplicate link"),
        (dict(model="regions", regions=("eu", "us"),
              links=(("eu", "us", 2.0),),
              placement=(("client-0", "mars"),)), "unknown region"),
        # The cases the per-model classes used to reject in their constructors.
        (dict(model="lognormal", mean=-1.0), "positive mean"),
        (dict(model="lognormal", mean=1.0, sigma=0.0), "positive sigma"),
        (dict(model="exponential", mean=0.0), "positive mean"),
        (dict(model="fixed", jitter=-0.1), "jitter"),
        (dict(model="regions", regions=()), "at least two"),
        (dict(model="regions", regions=("eu", "us", "ap"),
              links=(("eu", "us", 1.0), ("us", "ap", 1.0))), "missing inter-region"),
        (dict(model="regions", regions=("eu", "us"), intra=-1.0,
              links=(("eu", "us", 1.0),)), "intra-region delay must be non-negative"),
    ],
)
def test_latency_spec_validation_rejects(kwargs, match):
    """The delay model raises plain ValueError (what the network raises when
    it binds one); a scenario reports the same text as a ScenarioError."""
    with pytest.raises(ValueError, match=match) as error:
        LatencySpec(**kwargs).validate()
    assert not isinstance(error.value, ScenarioError)
    with pytest.raises(ValueError, match=match):
        Network(Scheduler(), latency=LatencySpec(**kwargs))
    with pytest.raises(ScenarioError, match=match):
        ScenarioSpec(name="x", latency=LatencySpec(**kwargs)).validate()


def test_region_describe_distinguishes_topologies():
    """Sweep-point labels must not collide for region specs that differ only
    in link delays or placement (result_for and JSON curves key on them)."""
    base = dict(model="regions", regions=("eu", "us"), intra=0.5)
    slow = LatencySpec(**base, links=(("eu", "us", 30.0),))
    fast = LatencySpec(**base, links=(("eu", "us", 3.0),))
    pinned = LatencySpec(
        **base, links=(("eu", "us", 3.0),), placement=(("client-0", "us"),)
    )
    labels = {slow.describe(), fast.describe(), pinned.describe()}
    assert len(labels) == 3
    assert "eu-us:30" in slow.describe()


def test_latency_spec_validation_accepts_every_model():
    for spec in (
        LatencySpec(),
        LatencySpec(model="fixed", value=2.0, jitter=0.5),
        LatencySpec(model="uniform", low=0.0, high=0.0),
        LatencySpec(model="lognormal", mean=2.0, sigma=1.2),
        LatencySpec(model="exponential", mean=0.5),
        LatencySpec(
            model="regions",
            regions=("eu", "us"),
            links=(("eu", "us", 3.0),),
            placement=(("client-0", "us"),),
        ),
    ):
        spec.validate()
        assert isinstance(spec.describe(), str)


def test_parse_latency_round_trip_and_errors():
    assert parse_latency("unit") == LatencySpec()
    parsed = parse_latency("lognormal:mean=2,sigma=0.8")
    assert parsed.model == "lognormal" and parsed.mean == 2.0 and parsed.sigma == 0.8
    assert parse_latency(" uniform:low=0.2, high=0.8 ").low == 0.2
    with pytest.raises(ScenarioError, match="unknown latency model"):
        parse_latency("warp")
    with pytest.raises(ScenarioError, match="unknown latency model"):
        parse_latency("warp:speed=9")
    with pytest.raises(ScenarioError, match="bad latency parameter"):
        parse_latency("fixed:value")
    with pytest.raises(ScenarioError, match="not a number"):
        parse_latency("fixed:value=fast")
    with pytest.raises(ScenarioError, match="does not apply"):
        parse_latency("uniform:regions=eu")  # tuple fields are not CLI-settable
    with pytest.raises(ScenarioError, match="declared in Python.*WAN_THREE_REGIONS"):
        parse_latency("regions:intra=0.5")  # no CLI spelling could ever validate


def test_parse_latency_rejects_parameters_of_other_models():
    """A mistyped point must fail loudly, not run with a silently-defaulted
    parameter (``fixed:mean=2`` used to parse as a 1-delay fixed model)."""
    for text in ("fixed:mean=2", "exponential:value=2", "uniform:mean=3",
                 "unit:jitter=0.5", "lognormal:low=1"):
        with pytest.raises(ScenarioError, match="does not apply"):
            parse_latency(text)
    # The model's own keys (and jitter) still parse.
    assert parse_latency("exponential:mean=2,jitter=0.1").jitter == 0.1


# ----------------------------------------------------------------------
# distribution correctness: sampled moments match the configured ones
# ----------------------------------------------------------------------
def _samples(spec, n=6000, seed=12345):
    delay = spec.delay_function(random.Random(seed))
    return [delay("a", "b") for _ in range(n)]


def test_uniform_moments():
    sample = _samples(LatencySpec(model="uniform", low=0.5, high=1.5))
    assert statistics.fmean(sample) == pytest.approx(1.0, rel=0.05)
    assert statistics.pvariance(sample) == pytest.approx(1.0 / 12.0, rel=0.10)
    assert all(0.5 <= value <= 1.5 for value in sample)


def test_exponential_moments():
    sample = _samples(LatencySpec(model="exponential", mean=2.0))
    assert statistics.fmean(sample) == pytest.approx(2.0, rel=0.05)
    assert statistics.pvariance(sample) == pytest.approx(4.0, rel=0.15)
    assert all(value >= 0 for value in sample)


def test_lognormal_moments():
    mean, sigma = 1.5, 0.8
    sample = _samples(LatencySpec(model="lognormal", mean=mean, sigma=sigma))
    assert statistics.fmean(sample) == pytest.approx(mean, rel=0.05)
    expected_var = mean * mean * (math.exp(sigma * sigma) - 1.0)
    assert statistics.pvariance(sample) == pytest.approx(expected_var, rel=0.25)
    assert all(value > 0 for value in sample)


def test_lognormal_sigma_controls_tail_not_mean():
    light = _samples(LatencySpec(model="lognormal", mean=1.5, sigma=0.3))
    heavy = _samples(LatencySpec(model="lognormal", mean=1.5, sigma=1.2))
    assert statistics.fmean(light) == pytest.approx(statistics.fmean(heavy), rel=0.1)
    assert max(heavy) > 3 * max(light)


def test_jitter_shifts_mean_by_half_jitter():
    sample = _samples(LatencySpec(model="fixed", value=2.0, jitter=1.0))
    assert statistics.fmean(sample) == pytest.approx(2.5, rel=0.05)
    assert all(2.0 <= value <= 3.0 for value in sample)


# ----------------------------------------------------------------------
# the region model: placement and delays
# ----------------------------------------------------------------------
def _wan_model(**kwargs):
    return LatencySpec(
        model="regions",
        regions=("eu", "us", "ap"),
        intra=0.5,
        links=(("eu", "us", 3.0), ("eu", "ap", 5.0), ("us", "ap", 4.0)),
        **kwargs,
    )


def test_region_default_placement_spreads_replicas_and_clients():
    model = _wan_model()
    assert model.region_of("shard-0/r0") == "eu"
    assert model.region_of("shard-0/r1") == "us"
    assert model.region_of("shard-1/r2") == "ap"
    assert model.region_of("shard-2/r3") == "eu"  # wraps round-robin
    assert model.region_of("client-0") == "eu"
    assert model.region_of("client-1") == "us"
    assert model.region_of("config-service") == "eu"
    assert model.region_of("shard-0/p2") == "ap"  # baseline Paxos naming


def test_region_placement_override_wins():
    model = _wan_model(placement=(("config-service", "ap"),))
    assert model.region_of("config-service") == "ap"


def test_region_delays_intra_vs_inter_and_symmetry():
    delay = _wan_model().delay_function(random.Random(0))
    # r0 and client-0 are both in eu: intra delay.
    assert delay("shard-0/r0", "client-0") == 0.5
    # eu -> us and us -> eu take the (symmetric) link delay.
    assert delay("shard-0/r0", "shard-0/r1") == 3.0
    assert delay("shard-0/r1", "shard-0/r0") == 3.0
    assert delay("shard-0/r1", "shard-0/r2") == 4.0


def test_region_asymmetric_links_when_both_directions_given():
    spec = LatencySpec(
        model="regions",
        regions=("eu", "us"),
        intra=0.5,
        links=(("eu", "us", 3.0), ("us", "eu", 7.0)),
    )
    delay = spec.delay_function(random.Random(0))
    assert delay("shard-0/r0", "shard-0/r1") == 3.0
    assert delay("shard-0/r1", "shard-0/r0") == 7.0


def test_fixed_model_with_jitter_stays_within_bounds():
    delay = LatencySpec(model="fixed", value=2.0, jitter=0.5).delay_function(random.Random(1))
    for _ in range(50):
        assert 2.0 <= delay("a", "b") <= 2.5


@pytest.mark.parametrize(
    "spec, draw",
    [
        (LatencySpec(), lambda rng: 1.0),
        (LatencySpec(model="fixed", value=2.0), lambda rng: 2.0),
        (LatencySpec(model="uniform", low=0.5, high=1.5),
         lambda rng: rng.uniform(0.5, 1.5)),
        (LatencySpec(model="lognormal", mean=1.5, sigma=0.8),
         lambda rng: rng.lognormvariate(math.log(1.5) - 0.8 * 0.8 / 2.0, 0.8)),
        (LatencySpec(model="exponential", mean=2.0), lambda rng: rng.expovariate(1.0 / 2.0)),
        (LatencySpec(model="lognormal", mean=1.5, sigma=0.8, jitter=0.25),
         lambda rng: rng.lognormvariate(math.log(1.5) - 0.8 * 0.8 / 2.0, 0.8)
         + rng.uniform(0.0, 0.25)),
    ],
    ids=["unit", "fixed", "uniform", "lognormal", "exponential", "lognormal-jitter"],
)
def test_delay_function_draws_exactly_the_documented_sequence(spec, draw):
    """Every digest under a random model depends on these draws: one
    ``uniform`` / ``lognormvariate`` / ``expovariate`` per message, with
    jitter's ``uniform(0, jitter)`` drawn after the model's own draw."""
    delay = spec.delay_function(random.Random(77))
    expected = random.Random(77)
    for _ in range(200):
        assert delay("a", "b") == draw(expected)


# ----------------------------------------------------------------------
# per-channel extra delays compose additively with every model
# ----------------------------------------------------------------------
class _Sink:
    """Minimal process stand-in recording delivery times."""

    def __init__(self, pid):
        self.pid = pid
        self.crashed = False
        self.network = None
        self.delivered = []

    def attach(self, network):
        self.network = network

    def deliver(self, message, sender):
        self.delivered.append((self.network.scheduler.now, message, sender))


def _arrival_times(latency, extra, seed=9, n=5):
    scheduler = Scheduler()
    network = Network(scheduler, latency=latency, seed=seed)
    network.register(_Sink("a"))
    network.register(_Sink("b"))
    if extra:
        network.add_extra_delay("a", "b", extra)
    for i in range(n):
        network.send("a", "b", i)
    scheduler.run()
    return [time for time, _, _ in network.processes["b"].delivered]


@pytest.mark.parametrize(
    "latency",
    [
        LatencySpec(),
        LatencySpec(model="uniform", low=0.5, high=1.5),
        LatencySpec(model="lognormal", mean=1.5, sigma=0.8),
        LatencySpec(model="exponential", mean=1.0),
        LatencySpec(model="uniform", low=0.5, high=1.5, jitter=0.25),
    ],
    ids=["unit", "uniform", "lognormal", "exponential", "jittered"],
)
def test_extra_delay_composes_additively_with_any_model(latency):
    """Regression lock: a `delay-channel` fault's per-channel extra delay
    shifts every delivery by exactly the extra, on top of whatever the
    latency model draws (same seed -> same draws -> exact offset)."""
    extra = 3.25
    base_times = _arrival_times(latency, extra=0.0)
    shifted_times = _arrival_times(latency, extra=extra)
    assert len(base_times) == len(shifted_times) == 5
    for base, shifted in zip(base_times, shifted_times):
        assert shifted == pytest.approx(base + extra)


def test_delay_channel_fault_composes_with_latency_spec_scenario():
    """End to end: a scenario combining a non-unit LatencySpec with a
    `delay-channel` setup fault still runs, and the slowed channel is
    reflected in a longer virtual duration than without the fault."""
    from repro.scenarios import FaultStep, ScenarioSpec, WorkloadSpec

    base = ScenarioSpec(
        name="compose-probe",
        num_shards=2,
        latency=LatencySpec(model="uniform", low=0.5, high=1.5),
        workload=WorkloadSpec(kind="uniform", txns=20, batch=5, num_keys=32),
    )
    slowed = base.with_overrides(
        faults=(
            FaultStep(at=0.0, action="delay-channel",
                      src="leader:shard-0", dst="follower:shard-0", delay=10.0),
        )
    )
    fast = ScenarioRunner(base).run()
    slow = ScenarioRunner(slowed).run()
    assert fast.passed and slow.passed
    assert slow.duration > fast.duration


# ----------------------------------------------------------------------
# determinism: same spec (seed included) -> byte-identical results
# ----------------------------------------------------------------------
ALL_MODEL_POINTS = [
    LatencySpec(),
    LatencySpec(model="fixed", value=2.0),
    LatencySpec(model="uniform", low=0.5, high=1.5),
    LatencySpec(model="lognormal", mean=1.5, sigma=0.8),
    LatencySpec(model="exponential", mean=1.0),
    LatencySpec(model="uniform", low=0.5, high=1.5, jitter=0.25),
    LatencySpec(
        model="regions",
        regions=("eu", "us", "ap"),
        intra=0.5,
        links=(("eu", "us", 3.0), ("eu", "ap", 5.0), ("us", "ap", 4.0)),
        jitter=0.25,
    ),
]


@pytest.mark.parametrize(
    "point", ALL_MODEL_POINTS, ids=[p.describe() for p in ALL_MODEL_POINTS]
)
def test_same_spec_byte_identical_result_for_every_model(point):
    spec = get_scenario("steady-state")
    spec = spec.with_overrides(latency=point, workload=replace(spec.workload, txns=30))
    first = ScenarioRunner(spec).run()
    second = ScenarioRunner(spec).run()
    assert json.dumps(first.as_dict(), sort_keys=True) == json.dumps(
        second.as_dict(), sort_keys=True
    )
    assert first.latency_model == point.describe()
    assert first.passed


@pytest.mark.parametrize(
    "batch_override",
    [
        "",
        "batch=BatchSpec(size=8),",
        "batch=BatchSpec(size=8, linger=2.0, adaptive=False),",
    ],
    ids=["unbatched", "batched-adaptive", "batched-linger"],
)
def test_results_identical_across_interpreter_hash_seeds(batch_override):
    """Regression lock for a cross-process determinism bug: coordinators
    used to fan out Prepare/decision messages in set-iteration order, which
    follows the interpreter's salted string hash — invisible under unit
    latency (all sends draw the same delay) but schedule-changing under
    random models (one RNG draw per send).  The fan-outs are sorted now, so
    the same spec must produce byte-identical JSON in any interpreter.

    The batched variants additionally lock batch *composition*: batches are
    keyed and filled in arrival order (never hash order), so the per-batch
    message grouping — and with it every RNG draw downstream — must be
    identical across interpreters too."""
    import os
    import subprocess
    import sys

    script = (
        "import json;"
        "from dataclasses import replace;"
        "from repro.scenarios import BatchSpec, LatencySpec, ScenarioRunner, get_scenario;"
        "s = get_scenario('steady-state');"
        "s = s.with_overrides(latency=LatencySpec(model='lognormal', mean=1.5, sigma=0.8),"
        f" {batch_override}"
        " workload=replace(s.workload, txns=25));"
        "print(json.dumps(ScenarioRunner(s).run().as_dict(), sort_keys=True))"
    )
    import repro

    src_dir = os.path.dirname(os.path.dirname(repro.__file__))
    outputs = []
    for hash_seed in ("1", "99"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed}
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (src_dir, env.get("PYTHONPATH")))
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        outputs.append(completed.stdout)
    assert outputs[0] == outputs[1]
    if batch_override:
        assert '"batches": 0' not in outputs[0]  # batching really engaged


# ----------------------------------------------------------------------
# property: latency-induced reordering never yields a false violation on
# conflict-free workloads
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "latency",
    [
        LatencySpec(model="uniform", low=0.1, high=3.0),
        LatencySpec(model="lognormal", mean=1.5, sigma=1.2),
        LatencySpec(model="exponential", mean=1.5),
    ],
    ids=["uniform", "lognormal-heavy", "exponential"],
)
@pytest.mark.parametrize("seed", [0, 7, 23])
def test_conflict_free_workload_never_flags_violation(latency, seed):
    """Disjoint-key transactions cannot conflict, so every interleaving the
    random delays produce must commit cleanly — online and batch checker."""
    cluster = Cluster(
        num_shards=2, replicas_per_shard=2, latency=latency, seed=seed
    )
    checker = cluster.checker
    record(cluster.history)
    payloads = [
        payload(reads=[(f"k{i}", (0, ""))], writes=[(f"k{i}", i)], tiebreak=f"t{i}")
        for i in range(30)
    ]
    txns = [cluster.submit(p) for p in payloads]
    assert cluster.run_until_decided(txns)
    assert all(
        cluster.decision_of(txn) is not None for txn in txns
    )
    assert checker.ok, checker.result().reason
    batch = TCSChecker(cluster.scheme).check(cluster.history)
    assert batch.ok, batch.reason
    assert cluster.abort_rate() == 0.0


# ----------------------------------------------------------------------
# one description per model: the compiled twins stay deleted
# ----------------------------------------------------------------------
def test_the_delay_and_link_models_are_the_specs():
    import importlib.util

    import repro.runtime.network as network_module
    from repro.scenarios import NetworkSpec

    for name in ("LatencyModel", "UnitLatency", "UniformLatency", "LognormalLatency",
                 "ExponentialLatency", "JitteredLatency", "RegionLatency", "LinkSpec"):
        assert not hasattr(network_module, name), name
    assert importlib.util.find_spec("repro.scenarios.latency") is None
    assert not hasattr(NetworkSpec, "compile")
    assert LatencySpec is network_module.LatencySpec
    assert NetworkSpec is network_module.NetworkSpec
