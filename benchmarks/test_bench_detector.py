"""Perf guard for detector-driven failover.

The point of the heartbeat failure detector is time-to-recovery: a
suspicion-confirmed view change fires after ``threshold`` missed heartbeat
windows (6 delays at the stock 2x3 policy) while timeout-driven failover
burns at least one full session retry window (30 delays) before anybody
probes.  Both paths are measured in *virtual* time on the same crash
schedule, so the guard is exact and deterministic — no noise headroom is
needed, unlike the wall-clock guards in ``_helpers.py``.

The guard pins the ratio: detector-driven recovery must stay at least
``DETECTOR_TTR_SPEEDUP_FLOOR`` (2.6x) faster than the timeout-driven control.
Measured at the stock policies: 12.5 vs 35.0 delays, a 2.8x speedup (the
view-change order carries the configuration to probe from, so the detector
path skips the ``get_last`` round trip).
"""

from repro.scenarios import ScenarioRunner, get_scenario

from _helpers import write_bench_artifact


DETECTOR_TTR_SPEEDUP_FLOOR = 2.6


def test_detector_failover_recovers_2x_faster_than_timeout(benchmark):
    def run_pair():
        detector = ScenarioRunner(get_scenario("detector-leader-crash")).run()
        timeout = ScenarioRunner(
            get_scenario("timeout-failover-leader-crash")
        ).run()
        return detector, timeout

    detector, timeout = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    assert detector.passed and timeout.passed
    assert detector.undecided == 0 and detector.orphaned == 0
    assert timeout.undecided == 0 and timeout.orphaned == 0
    assert detector.view_changes >= 1 and detector.pushed_failovers >= 1
    assert detector.recovery_times and timeout.recovery_times
    # Worst detector recovery against best timeout recovery: the guard holds
    # even under the comparison least favourable to the detector.
    detector_ttr = max(detector.recovery_times)
    timeout_ttr = min(timeout.recovery_times)
    speedup = timeout_ttr / detector_ttr
    print(
        f"\ndetector guard: crash -> reinstall {detector_ttr:.1f} delays "
        f"(detector) vs {timeout_ttr:.1f} delays (timeout-driven) "
        f"-> {speedup:.2f}x (floor {DETECTOR_TTR_SPEEDUP_FLOOR:g}x)"
    )
    write_bench_artifact(
        "detector",
        {
            "detector_recovery_delays": detector_ttr,
            "timeout_recovery_delays": timeout_ttr,
            "speedup": speedup,
            "speedup_floor": DETECTOR_TTR_SPEEDUP_FLOOR,
            "detector_suspicions": detector.suspicions,
            "detector_false_suspicions": detector.false_suspicions,
            "detector_pushed_failovers": detector.pushed_failovers,
        },
    )
    assert speedup >= DETECTOR_TTR_SPEEDUP_FLOOR
