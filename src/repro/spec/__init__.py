"""The multi-shot transaction certification specification (paper Section 2).

* :mod:`repro.spec.history` — ``certify``/``decide`` histories, streamed
  to their listeners and fingerprinted as they are recorded;
* :mod:`repro.spec.incremental` — decides whether a history is *correct
  with respect to a certification function f*, i.e. whether its committed
  projection has a legal linearization: an event-subscribing checker that
  reports a violation at the event that introduces it, in amortized
  near-constant time per event (the batch O(txns^2) construction is the
  test oracle, in ``tests/helpers.py``);
* :mod:`repro.spec.invariants` — checks the key protocol invariants of
  Figure 3 against a snapshot of replica states (used heavily in tests),
  with an :class:`InvariantMonitor` streaming the history-derived part.
"""

from repro.spec.history import History, HistorySubscription
from repro.spec.incremental import CheckResult, IncrementalTCSChecker
from repro.spec.invariants import InvariantMonitor, InvariantViolation, check_invariants

__all__ = [
    "History",
    "HistorySubscription",
    "CheckResult",
    "IncrementalTCSChecker",
    "InvariantMonitor",
    "InvariantViolation",
    "check_invariants",
]
