"""The built-in scenario library.

Each entry is a fully-specified :class:`ScenarioSpec`; run one with::

    python -m repro.scenarios run steady-state

or sweep it across protocols::

    python -m repro.scenarios sweep steady-state --protocols message-passing,rdma

All scenarios finish in seconds and return a structured
:class:`~repro.scenarios.runner.ScenarioResult`; every safety check must
pass except ``ablation-safety-demo``, which reproduces the Figure 4a
violation on purpose (``expect_safe=False``).
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.scenarios.spec import (
    BatchSpec,
    DetectorSpec,
    FaultStep,
    LatencySpec,
    NetworkSpec,
    ReadSpec,
    RetrySpec,
    ScenarioSpec,
    WorkloadSpec,
)


SCENARIOS: Dict[str, ScenarioSpec] = {}


def register_scenario(spec: ScenarioSpec) -> ScenarioSpec:
    spec.validate()
    if spec.name in SCENARIOS:
        raise ValueError(f"scenario {spec.name!r} is already registered")
    SCENARIOS[spec.name] = spec
    return spec


def scenario_names() -> Tuple[str, ...]:
    return tuple(SCENARIOS)


def get_scenario(name: str) -> ScenarioSpec:
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(scenario_names())
        raise KeyError(f"unknown scenario {name!r}; known scenarios: {known}") from None


register_scenario(
    ScenarioSpec(
        name="steady-state",
        description="Failure-free uniform read/write load across four shards.",
        protocol="message-passing",
        num_shards=4,
        replicas_per_shard=2,
        workload=WorkloadSpec(kind="uniform", txns=200, batch=10, num_keys=256),
    )
)

register_scenario(
    ScenarioSpec(
        name="hot-key-contention",
        description="Zipf-skewed access hammering a few hot keys; aborts expected.",
        protocol="message-passing",
        num_shards=2,
        workload=WorkloadSpec(kind="zipfian", txns=150, batch=10, num_keys=48, theta=1.3),
    )
)

register_scenario(
    ScenarioSpec(
        name="leader-crash-under-load",
        description="A shard leader crashes mid-workload; the shard reconfigures "
        "and coordinator recovery re-drives the stalled transactions.",
        protocol="message-passing",
        num_shards=2,
        workload=WorkloadSpec(kind="uniform", txns=120, batch=8, num_keys=128),
        faults=(
            FaultStep(at=40.5, action="crash-leader", shard="shard-0"),
            FaultStep(at=41.5, action="reconfigure", shard="shard-0"),
            FaultStep(at=90.5, action="retry-stalled"),
            FaultStep(at=140.5, action="retry-stalled"),
        ),
    )
)

register_scenario(
    ScenarioSpec(
        name="rolling-reconfiguration",
        description="Every shard is reconfigured in turn while load continues "
        "(epoch churn without failures).",
        protocol="message-passing",
        num_shards=3,
        workload=WorkloadSpec(kind="uniform", txns=150, batch=10, num_keys=192),
        faults=(
            FaultStep(at=30.5, action="reconfigure", shard="shard-0"),
            FaultStep(at=55.5, action="reconfigure", shard="shard-1"),
            FaultStep(at=80.5, action="reconfigure", shard="shard-2"),
        ),
    )
)

register_scenario(
    ScenarioSpec(
        name="mixed-isolation",
        description="Snapshot isolation under skewed load: write-write conflicts "
        "only, so far fewer aborts than serializability on the same trace.",
        protocol="message-passing",
        num_shards=2,
        isolation="snapshot-isolation",
        workload=WorkloadSpec(kind="zipfian", txns=150, batch=10, num_keys=48, theta=1.0),
    )
)

register_scenario(
    ScenarioSpec(
        name="rdma-steady-state",
        description="The RDMA protocol under uniform load (no ACCEPT_ACK "
        "messages; votes persisted by one-sided writes).  Sweep against "
        "message-passing for the paper's comparison.",
        protocol="rdma",
        num_shards=3,
        workload=WorkloadSpec(kind="uniform", txns=150, batch=10, num_keys=192),
    )
)

register_scenario(
    ScenarioSpec(
        name="multi-shard-skew",
        description="Three-key transactions over a skewed key space on four "
        "shards: most transactions span shards and pay cross-shard "
        "certification.",
        protocol="message-passing",
        num_shards=4,
        workload=WorkloadSpec(
            kind="zipfian", txns=160, batch=8, num_keys=256, theta=1.1, reads_per_txn=3
        ),
    )
)

register_scenario(
    ScenarioSpec(
        name="bank-transfers",
        description="Concurrent balance transfers with a hot account; money "
        "conservation is enforced by certification.",
        protocol="message-passing",
        num_shards=2,
        workload=WorkloadSpec(
            kind="bank", txns=120, batch=6, num_accounts=12, hot_fraction=0.2
        ),
    )
)

register_scenario(
    ScenarioSpec(
        name="follower-partition",
        description="A follower is partitioned away mid-run (messages dropped, "
        "process alive); the shard reconfigures past it, the partition heals, "
        "and stalled transactions are re-driven.",
        protocol="message-passing",
        num_shards=2,
        workload=WorkloadSpec(kind="uniform", txns=120, batch=8, num_keys=128),
        faults=(
            FaultStep(at=30.5, action="partition", target="follower:shard-0"),
            FaultStep(at=32.5, action="reconfigure", shard="shard-0",
                      suspects=("follower:shard-0",)),
            FaultStep(at=90.5, action="heal"),
            FaultStep(at=110.5, action="retry-stalled"),
            FaultStep(at=160.5, action="retry-stalled"),
        ),
    )
)

register_scenario(
    ScenarioSpec(
        name="cascading-crashes",
        description="Failures pile up: a follower dies, then its shard's new "
        "leader, then a second shard's leader — each followed by a "
        "reconfiguration pulling in a spare, with recovery retries at the end.",
        protocol="message-passing",
        num_shards=2,
        workload=WorkloadSpec(kind="uniform", txns=140, batch=8, num_keys=160),
        faults=(
            FaultStep(at=25.5, action="crash-follower", shard="shard-0"),
            FaultStep(at=27.5, action="reconfigure", shard="shard-0"),
            FaultStep(at=55.5, action="crash-leader", shard="shard-0"),
            FaultStep(at=57.5, action="reconfigure", shard="shard-0"),
            FaultStep(at=85.5, action="crash-leader", shard="shard-1"),
            FaultStep(at=87.5, action="reconfigure", shard="shard-1"),
            FaultStep(at=140.5, action="retry-stalled"),
            FaultStep(at=200.5, action="retry-stalled"),
        ),
    )
)

register_scenario(
    ScenarioSpec(
        name="config-service-outage",
        description="The configuration service is partitioned away while a "
        "leader crashes: the reconfiguration attempted during the outage is "
        "lost, the one after the heal succeeds, and recovery re-drives the "
        "transactions stalled in between.",
        protocol="message-passing",
        num_shards=2,
        workload=WorkloadSpec(kind="uniform", txns=120, batch=8, num_keys=128),
        faults=(
            FaultStep(at=20.5, action="partition", target="config-service"),
            FaultStep(at=50.5, action="crash-leader", shard="shard-0"),
            FaultStep(at=52.5, action="reconfigure", shard="shard-0"),
            FaultStep(at=70.5, action="heal"),
            FaultStep(at=80.5, action="reconfigure", shard="shard-0"),
            FaultStep(at=130.5, action="retry-stalled"),
            FaultStep(at=180.5, action="retry-stalled"),
        ),
    )
)

register_scenario(
    ScenarioSpec(
        name="closed-loop-think",
        description="Interactive clients: eight closed-loop sessions each keep "
        "one transaction in flight and think (mean 4 delays) between requests "
        "— low concurrency, few conflicts, latency-bound throughput.",
        protocol="message-passing",
        num_shards=2,
        workload=WorkloadSpec(
            kind="uniform", txns=120, num_keys=128, think_time=4.0, sessions=8
        ),
    )
)

# ----------------------------------------------------------------------
# the geo-distributed (WAN) pack: every shard spans three regions, so the
# certification fan-out crosses region boundaries on the critical path.
# ----------------------------------------------------------------------

# One replica of each shard per region; cross-region one-way delays are in
# message-delay units relative to the intra-region hop (0.5): roughly the
# EU <-> US <-> AP proportions of real WAN round-trip times.
WAN_THREE_REGIONS = LatencySpec(
    model="regions",
    regions=("eu", "us", "ap"),
    intra=0.5,
    links=(("eu", "us", 3.0), ("eu", "ap", 5.0), ("us", "ap", 4.0)),
    jitter=0.25,
)

register_scenario(
    ScenarioSpec(
        name="wan-steady-state",
        description="Failure-free load on a 3-region WAN deployment (one "
        "replica of every shard per region); cross-region links dominate "
        "the commit path.",
        protocol="message-passing",
        num_shards=3,
        replicas_per_shard=3,
        latency=WAN_THREE_REGIONS,
        workload=WorkloadSpec(kind="uniform", txns=150, batch=10, num_keys=192),
    )
)

register_scenario(
    ScenarioSpec(
        name="wan-cross-region-contention",
        description="Zipf-skewed load hammering hot keys across the 3-region "
        "WAN: conflicting transactions race over slow links, so aborts rise "
        "with the inter-region delay.",
        protocol="message-passing",
        num_shards=2,
        replicas_per_shard=3,
        latency=WAN_THREE_REGIONS,
        workload=WorkloadSpec(kind="zipfian", txns=120, batch=10, num_keys=48, theta=1.2),
    )
)

register_scenario(
    ScenarioSpec(
        name="wan-leader-crash",
        description="A shard leader crashes mid-workload on the 3-region WAN; "
        "reconfiguration and coordinator recovery pay cross-region delays, "
        "so the stall is far longer than in the unit-latency variant.  A "
        "certify request still in flight to the crashed coordinator (a "
        "multi-delay window here, unlike under unit latency) would be lost "
        "by a fire-and-forget client; the session layer re-submits it to a "
        "different coordinator after the timeout, so the run must finish "
        "with zero undecided transactions.",
        protocol="message-passing",
        num_shards=2,
        replicas_per_shard=3,
        latency=WAN_THREE_REGIONS,
        workload=WorkloadSpec(kind="uniform", txns=100, batch=8, num_keys=128),
        retry=RetrySpec(timeout=80.0, backoff=2.0, max_attempts=4),
        faults=(
            FaultStep(at=120.5, action="crash-leader", shard="shard-0"),
            FaultStep(at=125.5, action="reconfigure", shard="shard-0"),
            FaultStep(at=300.5, action="retry-stalled"),
            FaultStep(at=500.5, action="retry-stalled"),
        ),
    )
)

register_scenario(
    ScenarioSpec(
        name="wan-heavy-tail",
        description="Heavy-tail ablation: every link draws log-normal delays "
        "with the same 2-delay mean but sigma=1.2, so p99 latency blows up "
        "while mean throughput only halves — compare against "
        "latency=fixed:value=2.",
        protocol="message-passing",
        num_shards=3,
        replicas_per_shard=2,
        latency=LatencySpec(model="lognormal", mean=2.0, sigma=1.2),
        workload=WorkloadSpec(kind="uniform", txns=150, batch=10, num_keys=192),
    )
)

# ----------------------------------------------------------------------
# the resilience pack: client sessions with timeout-driven re-submission,
# coordinator failover and duplicate-safe certification.
# ----------------------------------------------------------------------

register_scenario(
    ScenarioSpec(
        name="coordinator-crash-storm",
        description="Coordinators die in waves: two followers (the default "
        "coordinator picks for the other shard's transactions) and then a "
        "leader crash in sequence, each followed by a reconfiguration.  "
        "Client sessions time out, fail over to untried coordinators and "
        "re-drive everything: the run must finish with zero undecided "
        "transactions.",
        protocol="message-passing",
        num_shards=2,
        replicas_per_shard=3,
        workload=WorkloadSpec(kind="uniform", txns=120, batch=8, num_keys=128),
        retry=RetrySpec(timeout=30.0, backoff=1.5, max_attempts=6),
        faults=(
            FaultStep(at=20.5, action="crash-follower", shard="shard-0"),
            FaultStep(at=22.5, action="reconfigure", shard="shard-0"),
            FaultStep(at=40.5, action="crash-follower", shard="shard-1"),
            FaultStep(at=42.5, action="reconfigure", shard="shard-1"),
            FaultStep(at=60.5, action="crash-leader", shard="shard-0"),
            FaultStep(at=62.5, action="reconfigure", shard="shard-0"),
            FaultStep(at=120.5, action="retry-stalled"),
            FaultStep(at=180.5, action="retry-stalled"),
            FaultStep(at=240.5, action="retry-stalled"),
        ),
    )
)

register_scenario(
    ScenarioSpec(
        name="failover-under-wan-tail",
        description="Coordinator failover across the 3-region WAN: a "
        "follower (serving as coordinator) and a shard leader crash while "
        "every retry pays cross-region delays and jitter.  Sessions must "
        "route around both crashes without orphaning a single transaction.",
        protocol="message-passing",
        num_shards=2,
        replicas_per_shard=3,
        latency=WAN_THREE_REGIONS,
        workload=WorkloadSpec(kind="uniform", txns=100, batch=8, num_keys=128),
        retry=RetrySpec(timeout=100.0, backoff=2.0, max_attempts=4),
        faults=(
            FaultStep(at=100.5, action="crash-follower", shard="shard-1"),
            FaultStep(at=105.5, action="reconfigure", shard="shard-1"),
            FaultStep(at=160.5, action="crash-leader", shard="shard-0"),
            FaultStep(at=165.5, action="reconfigure", shard="shard-0"),
            FaultStep(at=400.5, action="retry-stalled"),
            FaultStep(at=650.5, action="retry-stalled"),
        ),
    )
)

register_scenario(
    ScenarioSpec(
        name="duplicate-delivery-fuzz",
        description="Duplicate-delivery fuzz: the session timeout (3 delays) "
        "sits below the ~6-delay commit path, so nearly every transaction is "
        "re-submitted — often several times, to several coordinators — while "
        "the original request is still in flight.  Dedup at the coordinators "
        "must re-answer from decision caches: the online checker verifies "
        "decision uniqueness and serializability under the duplicate storm.",
        protocol="message-passing",
        num_shards=2,
        replicas_per_shard=2,
        workload=WorkloadSpec(kind="uniform", txns=100, batch=10, num_keys=128),
        retry=RetrySpec(timeout=3.0, backoff=1.0, max_attempts=8),
    )
)

# ----------------------------------------------------------------------
# the batching pack: protocol-level request batching under saturation.
# ----------------------------------------------------------------------

register_scenario(
    ScenarioSpec(
        name="batch-saturation",
        description="Heavy open load with adaptive batching (size cap 32): "
        "coordinators coalesce the certify fan-out of each 50-transaction "
        "wave into per-shard batches, shard leaders certify whole batches "
        "in one pass, and the online checker verifies the history is "
        "indistinguishable from the unbatched protocol's.",
        protocol="message-passing",
        num_shards=4,
        replicas_per_shard=2,
        workload=WorkloadSpec(kind="uniform", txns=400, batch=50, num_keys=1024),
        batch=BatchSpec(size=32),
    )
)

register_scenario(
    ScenarioSpec(
        name="batch-vs-unbatched-wan",
        description="Time-cap batching on the 3-region WAN: coordinators "
        "linger 1 delay (a fraction of the 3-5-delay cross-region links) to "
        "amortise the certification fan-out, trading bounded queue_wait for "
        "fewer cross-region messages.  Compare against the same spec with "
        "batch=BatchSpec() — the differential tests assert both runs pass "
        "the online checker and that batching cuts messages sent.",
        protocol="message-passing",
        num_shards=3,
        replicas_per_shard=3,
        latency=WAN_THREE_REGIONS,
        workload=WorkloadSpec(kind="uniform", txns=150, batch=15, num_keys=256),
        batch=BatchSpec(size=16, linger=1.0, adaptive=False),
    )
)

# ----------------------------------------------------------------------
# the network pack: finite-bandwidth FIFO links with per-message overhead.
# ----------------------------------------------------------------------

register_scenario(
    ScenarioSpec(
        name="bandwidth-knee",
        description="Batching against a constrained link: every channel "
        "serializes at 1000 bytes/delay with a 0.4-delay per-message "
        "overhead, so tiny batches pay the overhead once per message while "
        "huge batches head-of-line-block the FIFO behind their own bytes.  "
        "Sweeping --batch over this spec traces the non-monotone "
        "latency/throughput knee; the benchmark harness pins its location.",
        protocol="message-passing",
        num_shards=4,
        replicas_per_shard=2,
        workload=WorkloadSpec(kind="uniform", txns=200, batch=50, num_keys=512),
        batch=BatchSpec(size=4),
        network=NetworkSpec(bandwidth=1000.0, overhead=0.4),
    )
)

register_scenario(
    ScenarioSpec(
        name="saturated-link",
        description="A link slow enough to saturate: 120 bytes/delay means a "
        "single certify fan-out wave queues several transmissions deep "
        "behind each channel, so queue wait — not propagation — dominates "
        "the commit path.",
        protocol="message-passing",
        num_shards=2,
        replicas_per_shard=2,
        workload=WorkloadSpec(kind="uniform", txns=150, batch=10, num_keys=192),
        network=NetworkSpec(bandwidth=120.0, overhead=0.1),
    )
)

# ----------------------------------------------------------------------
# the snapshot-read pack: lease-guarded latest-value reads bypassing
# certification.
# ----------------------------------------------------------------------

register_scenario(
    ScenarioSpec(
        name="read-heavy-steady-state",
        description="YCSB-B-style 90% read mix with the snapshot-read fast "
        "path: single-key read-only transactions go straight to the shard "
        "leader, which serves them from its vote index under a read lease "
        "(no coordinator, no certification); "
        "reads that race a prepared write or an unleased leader fall back "
        "to the certified path, and the online checker validates the "
        "combined history.",
        protocol="message-passing",
        num_shards=4,
        replicas_per_shard=2,
        workload=WorkloadSpec(
            kind="uniform", txns=200, batch=10, num_keys=256, read_ratio=0.9
        ),
        read=ReadSpec(mode="snapshot"),
    )
)

register_scenario(
    ScenarioSpec(
        name="stale-lease-ablation",
        description="Why leases and the pending-writer guard matter: shard-0's "
        "leader never receives its lease grant (blocked channel) and learns "
        "decisions late (delayed channels from the coordinating shard-1 "
        "members), yet the broken-snapshot policy serves reads anyway — a "
        "read observes a pre-write version after the write's decision was "
        "externalised, and the checker flags the conflict/real-time cycle.  "
        "This scenario is EXPECTED to be unsafe; flip read.mode to "
        "'snapshot' and the same schedule is refused into safe fallbacks.",
        protocol="message-passing",
        num_shards=2,
        replicas_per_shard=2,
        workload=WorkloadSpec(
            kind="uniform", txns=120, batch=10, num_keys=16,
            reads_per_txn=1, writes_per_txn=1, read_ratio=0.6,
        ),
        read=ReadSpec(mode="broken-snapshot", lease=10.0),
        faults=(
            # Shape the stale window before any transaction is submitted:
            # decisions (and everything else) from shard-1's members — the
            # coordinators of shard-0-touching transactions — reach shard-0's
            # leader 8 delays late, while clients learn them on time; the
            # leader's lease grant never arrives at all.
            FaultStep(at=0.0, action="delay-channel",
                      src="member:shard-1:0", dst="leader:shard-0", delay=8.0),
            FaultStep(at=0.0, action="delay-channel",
                      src="member:shard-1:1", dst="leader:shard-0", delay=8.0),
            FaultStep(at=0.0, action="block-channel",
                      src="config-service", dst="leader:shard-0"),
        ),
        expect_safe=False,
    )
)

register_scenario(
    ScenarioSpec(
        name="baseline-steady-state",
        description="The vanilla 2PC-over-Paxos baseline (2f+1 replicas) on the "
        "steady-state workload, for cost comparisons.",
        protocol="2pc-paxos",
        num_shards=2,
        replicas_per_shard=3,
        workload=WorkloadSpec(kind="uniform", txns=100, batch=10, num_keys=128),
    )
)

register_scenario(
    ScenarioSpec(
        name="ablation-safety-demo",
        description="The Figure 4a counter-example: the naive RDMA + per-shard "
        "reconfiguration combination externalises two contradictory decisions "
        "for one spanning transaction.  This scenario is EXPECTED to be unsafe.",
        protocol="broken-rdma",
        num_shards=3,
        replicas_per_shard=2,
        seed=51,
        workload=WorkloadSpec(kind="spanning", txns=1, batch=1, coordinator="member:shard-2:0"),
        faults=(
            # Shape the adversarial schedule before the transaction starts:
            # the coordinator's ACCEPT to shard-1's follower crawls, and the
            # configuration service's updates to the coordinator crawl more.
            FaultStep(at=0.0, action="delay-channel",
                      src="member:shard-2:0", dst="follower:shard-1", delay=60.0),
            FaultStep(at=0.0, action="delay-channel",
                      src="config-service", dst="member:shard-2:0", delay=500.0),
            # Crash shard-1's leader once the transaction is prepared there,
            # reconfigure the shard past it, then let shard-0's leader
            # re-drive the stalled transaction with a stale view.
            FaultStep(at=10.5, action="crash-leader", shard="shard-1"),
            FaultStep(at=10.6, action="reconfigure", shard="shard-1",
                      target="follower:shard-1"),
            FaultStep(at=40.5, action="retry-stalled", target="leader:shard-0"),
        ),
        check_invariants=False,
        expect_safe=False,
    )
)

# ----------------------------------------------------------------------
# the failure-detector pack: heartbeat-driven unsolicited view changes.
# ----------------------------------------------------------------------

register_scenario(
    ScenarioSpec(
        name="detector-leader-crash",
        description="Detector-driven failover: shard-0's leader crashes and "
        "NO manual reconfigure step follows — the co-members' heartbeat "
        "detectors must suspect the silence, report to the configuration "
        "service, and drive an unsolicited view change that installs a new "
        "leader well before the 30-delay retry timeout would have.  The "
        "service pushes CONFIG_CHANGE to the sessions, which re-route "
        "in-flight transactions off the dead coordinator immediately; the "
        "run must end with zero undecided transactions.",
        protocol="message-passing",
        num_shards=2,
        replicas_per_shard=3,
        workload=WorkloadSpec(kind="uniform", txns=120, batch=8, num_keys=128),
        retry=RetrySpec(timeout=30.0, backoff=1.5, max_attempts=6),
        detector=DetectorSpec(interval=2.0, threshold=3),
        faults=(
            FaultStep(at=20.5, action="crash-leader", shard="shard-0"),
            FaultStep(at=120.5, action="retry-stalled"),
            FaultStep(at=180.5, action="retry-stalled"),
        ),
    )
)

register_scenario(
    ScenarioSpec(
        name="timeout-failover-leader-crash",
        description="The timeout-driven control for detector-leader-crash: "
        "the same workload and the same leader crash, but no detector — the "
        "deployment only recovers when the operator-style reconfigure step "
        "fires a full retry window (30 delays) after the crash.  Comparing "
        "this run's time-to-recovery against detector-leader-crash is the "
        "detector-vs-timeout tradeoff in one number.",
        protocol="message-passing",
        num_shards=2,
        replicas_per_shard=3,
        workload=WorkloadSpec(kind="uniform", txns=120, batch=8, num_keys=128),
        retry=RetrySpec(timeout=30.0, backoff=1.5, max_attempts=6),
        faults=(
            FaultStep(at=20.5, action="crash-leader", shard="shard-0"),
            FaultStep(at=50.5, action="reconfigure", shard="shard-0"),
            FaultStep(at=120.5, action="retry-stalled"),
            FaultStep(at=180.5, action="retry-stalled"),
        ),
    )
)

register_scenario(
    ScenarioSpec(
        name="gray-failure-slow-leader",
        description="Gray failure: shard-0's leader stays alive but its "
        "outbound links to both co-members crawl (8 delays), so heartbeats "
        "arrive long past the suspicion threshold.  A bounded-timeout "
        "detector cannot tell slow from dead: the followers suspect, the "
        "service deposes the slow leader through the CAS path, and the "
        "epoch fence on its read lease keeps it from serving stale "
        "snapshots from the old configuration.  Late heartbeats that land "
        "after the suspicion count as false suspicions — the flapping "
        "signal the phi-accrual mode is designed to damp.",
        protocol="message-passing",
        num_shards=2,
        replicas_per_shard=3,
        workload=WorkloadSpec(kind="uniform", txns=120, batch=8, num_keys=128),
        retry=RetrySpec(timeout=30.0, backoff=1.5, max_attempts=6),
        detector=DetectorSpec(interval=2.0, threshold=3),
        faults=(
            FaultStep(at=0.0, action="delay-channel",
                      src="leader:shard-0", dst="follower:shard-0", delay=8.0),
            FaultStep(at=0.0, action="delay-channel",
                      src="leader:shard-0", dst="member:shard-0:2", delay=8.0),
            FaultStep(at=120.5, action="retry-stalled"),
        ),
    )
)

register_scenario(
    ScenarioSpec(
        name="flapping-detector",
        description="A lossy link, not a dead process: the leader's "
        "heartbeats to one co-member are blocked for 30 delays and then "
        "heal.  With confirmations=2 the single suspecting observer cannot "
        "convince the configuration service (one reporter < quorum), so no "
        "view change fires; when the link heals, the next heartbeat refutes "
        "the suspicion and is counted as a false suspicion.  The run must "
        "keep epoch 1 everywhere and decide every transaction.",
        protocol="message-passing",
        num_shards=2,
        replicas_per_shard=3,
        workload=WorkloadSpec(kind="uniform", txns=120, batch=8, num_keys=128),
        retry=RetrySpec(timeout=30.0, backoff=1.5, max_attempts=6),
        detector=DetectorSpec(interval=2.0, threshold=3, confirmations=2),
        faults=(
            FaultStep(at=0.0, action="block-channel",
                      src="leader:shard-0", dst="follower:shard-0"),
            FaultStep(at=30.5, action="heal"),
        ),
    )
)
