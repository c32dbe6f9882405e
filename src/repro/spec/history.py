"""TCS histories.

A history is a sequence of ``certify(t, l)`` and ``decide(t, d)`` actions
such that every transaction is certified at most once and every decide
responds to exactly one preceding certify (Section 2).  Clients record their
interactions with the service into a shared :class:`History`, which the
checker and the metrics layer consume.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.types import Decision, TxnId


# The fingerprint's text is ``repr`` of a canonical form of each payload:
#
# * ``set``/``frozenset`` iterate in ``PYTHONHASHSEED`` order, so they render
#   as ``('set', [...])`` over the *sorted* texts of their elements, and a
#   ``dict`` as ``('dict', [...])`` over its sorted ``(repr(key), text)``
#   pairs (keys print through their own ``repr``: they are ids here);
# * ``list`` and ``tuple`` (named tuples too) both render as a plain tuple:
#   a payload means the same whether a client built it from a list or a
#   tuple, and the digests pinned in ``tests/golden_*.json`` say so;
# * a dataclass instance renders as ``('ClassName', (('field', text), ...))``
#   in field order; a field declared with ``metadata={"canonical": "set"}``
#   holds a set in canonical form (``TransactionPayload``'s read and write
#   sets are tuples sorted by object id) and renders by the set rule above,
#   whatever its container, so the text is the one its frozenset had;
# * anything else is a leaf and renders through its own ``__repr__``, which
#   must not print an address: a type that inherits ``object.__repr__`` is
#   refused with ``TypeError`` when :meth:`History.digest` meets one, because
#   two processes would otherwise disagree on the digest without a word.
#
# ``tests/test_history_digest.py`` keeps the recursive definition of this
# form (build the canonical tuples, ``repr`` them) as a bit-for-bit oracle.
# Here the text is emitted directly by a renderer compiled once per *exact*
# value type, the idiom of ``runtime/wire.py``'s field sizers.
class _Renderers(Dict[type, Callable[[Any], str]]):
    """Renderers by exact value type, compiled on first sight of the type:
    ``_RENDERERS[type(value)](value)`` is the canonical text of ``value``."""

    def __missing__(self, cls: type) -> Callable[[Any], str]:
        renderer = self[cls] = _compile_renderer(cls)
        return renderer


_RENDERERS = _Renderers()

# The leaves whose tuples ``repr`` already renders canonically.
_PLAIN_LEAVES = frozenset({str, int, float, bool, type(None)})


def _is_plain(values: Iterable[Any]) -> bool:
    """True when ``values`` holds only plain leaves and tuples of them, to
    any depth: ``repr`` of such a tree *is* its canonical text."""
    for value in values:
        cls = type(value)
        if cls not in _PLAIN_LEAVES and not (cls is tuple and _is_plain(value)):
            return False
    return True


def _render_tuple(value: tuple) -> str:
    return repr(value) if _is_plain(value) else _render_sequence(value)


def _render_sequence(value: Iterable[Any]) -> str:
    texts = [_RENDERERS[type(v)](v) for v in value]
    if len(texts) == 1:
        return f"({texts[0]},)"
    return f"({', '.join(texts)})"


def _render_set(value: Iterable[Any]) -> str:
    if _is_plain(value):
        texts = sorted(map(repr, value))
    else:
        texts = sorted([_RENDERERS[type(v)](v) for v in value])
    return f"('set', {texts!r})"


def _render_dict(value: Dict[Any, Any]) -> str:
    pairs = sorted([(repr(k), _RENDERERS[type(v)](v)) for k, v in value.items()])
    return f"('dict', {pairs!r})"


def _dataclass_renderer(cls: type) -> Callable[[Any], str]:
    """The template ``('Name', (('field', %s), ...))`` with the field names
    read once, filled with the fields' texts; a field marked as a set in
    canonical form renders by the set rule."""
    fields_of = dataclasses.fields(cls)
    names = tuple(f.name for f in fields_of)
    as_set = frozenset(f.name for f in fields_of if f.metadata.get("canonical") == "set")
    fields = ", ".join(f"({name!r}, %s)" for name in names)
    if len(names) == 1:
        fields += ","
    template = f"({repr(cls.__name__).replace('%', '%%')}, ({fields}))"

    def render(value: Any) -> str:
        texts = []
        for name in names:
            field = getattr(value, name)
            if name in as_set:
                texts.append(_render_set(field))
            else:
                texts.append(_RENDERERS[type(field)](field))
        return template % tuple(texts)

    return render


def _compile_renderer(cls: type) -> Callable[[Any], str]:
    """The renderer for values of exactly type ``cls``: the first matching
    rule, in this order (a named tuple is a sequence, an ``Enum`` is a leaf
    even with a ``str`` or ``int`` mixin)."""
    if issubclass(cls, (set, frozenset)):
        return _render_set
    if issubclass(cls, dict):
        return _render_dict
    if cls is tuple:
        return _render_tuple
    if issubclass(cls, (list, tuple)):
        return _render_sequence
    if dataclasses.is_dataclass(cls):
        return _dataclass_renderer(cls)
    if cls.__repr__ is object.__repr__:
        raise TypeError(
            f"cannot fingerprint a payload value of type "
            f"{cls.__module__}.{cls.__qualname__}: it inherits object.__repr__, "
            "which prints an address, so the history digest would differ "
            "between processes; give the type a deterministic __repr__"
        )
    return repr


@dataclass(frozen=True, slots=True)
class Event:
    """One action of a history."""

    kind: str  # "certify" | "decide"
    txn: TxnId
    time: float
    seq: int
    payload: Any = None
    decision: Optional[Decision] = None


class History:
    """An append-only TCS history with the derived relations the spec uses."""

    def __init__(self) -> None:
        self.events: List[Event] = []
        self._certified: Dict[TxnId, Event] = {}
        self._decided: Dict[TxnId, Event] = {}
        # Contradictory decide events observed for the same transaction.
        # A correct protocol never produces these (Invariant 4b); the broken
        # RDMA variant used for the Figure 4a ablation does, and the checker
        # reports them rather than the recorder raising mid-simulation.
        self.contradictions: List[Tuple[TxnId, Decision, Decision]] = []
        # Completion callbacks; the cluster drivers' decision watchers hook
        # in here so that waiting for decisions is O(1) per event instead of
        # a full-history rescan.
        self._certify_listeners: List[Callable[[TxnId], None]] = []
        self._decide_listeners: List[Callable[[TxnId, Decision], None]] = []
        self._contradiction_listeners: List[
            Callable[[TxnId, Decision, Decision], None]
        ] = []

    # ------------------------------------------------------------------
    # listeners
    # ------------------------------------------------------------------
    def subscribe(
        self,
        on_certify: Optional[Callable[[TxnId], None]] = None,
        on_decide: Optional[Callable[[TxnId, Decision], None]] = None,
        on_contradiction: Optional[Callable[[TxnId, Decision, Decision], None]] = None,
    ) -> "HistorySubscription":
        """Register the given callbacks and return one closeable handle:
        ``on_certify(txn)`` whenever a new transaction is certified,
        ``on_decide(txn, decision)`` on each transaction's *first* decide,
        and ``on_contradiction(txn, first, second)`` when a *contradictory*
        decide is recorded for an already-decided transaction (Invariant 4b
        violations; only the broken ablation protocol produces these).
        Each kind's callbacks run in registration order.

        This is the one way in: the online checker, the invariant monitor,
        decision watchers and the store's executor consume histories through
        it instead of rescanning ``events``; the handle is a context manager
        so subscriptions do not leak on long-lived histories.
        """
        return HistorySubscription(self, on_certify, on_decide, on_contradiction)

    def watch(self, txns: Optional[Sequence[TxnId]] = None) -> "DecisionWatcher":
        """A :class:`DecisionWatcher` over ``txns`` (default: every certified
        transaction, including ones certified after the watcher is created)."""
        return DecisionWatcher(self, txns)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record_certify(self, txn: TxnId, payload: Any, time: float) -> Event:
        if txn in self._certified:
            raise ValueError(f"transaction {txn!r} certified twice")
        event = Event(kind="certify", txn=txn, time=time, seq=len(self.events), payload=payload)
        self.events.append(event)
        self._certified[txn] = event
        for listener in self._certify_listeners:
            listener(txn)
        return event

    def record_decide(
        self, txn: TxnId, decision: Decision, time: float, payload: Any = None
    ) -> Event:
        """Record a decision.  ``payload`` is normally None (the payload rides
        the certify event); snapshot reads certify a placeholder marker and
        attach their versioned read-only payload here, once the serving
        replica has determined which versions were observed."""
        if txn not in self._certified:
            raise ValueError(f"decide for unknown transaction {txn!r}")
        if txn in self._decided:
            previous = self._decided[txn].decision
            if previous is not decision:
                self.contradictions.append((txn, previous, decision))
                for listener in self._contradiction_listeners:
                    listener(txn, previous, decision)
            return self._decided[txn]
        event = Event(
            kind="decide",
            txn=txn,
            time=time,
            seq=len(self.events),
            payload=payload,
            decision=decision,
        )
        self.events.append(event)
        self._decided[txn] = event
        for listener in self._decide_listeners:
            listener(txn, decision)
        return event

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def certified(self) -> List[TxnId]:
        return list(self._certified)

    def payload_of(self, txn: TxnId) -> Any:
        return self._certified[txn].payload

    def decided_payload_of(self, txn: TxnId) -> Any:
        """The payload attached to the decide event, if any (snapshot reads)."""
        event = self._decided.get(txn)
        return event.payload if event else None

    def effective_payload_of(self, txn: TxnId) -> Any:
        """The payload the checkers should certify against: the decide-time
        payload when one was attached (snapshot reads resolve their observed
        versions only at decide time), the certify-time payload otherwise."""
        decided = self.decided_payload_of(txn)
        return decided if decided is not None else self._certified[txn].payload

    def decision_of(self, txn: TxnId) -> Optional[Decision]:
        event = self._decided.get(txn)
        return event.decision if event else None

    def decided(self) -> Dict[TxnId, Decision]:
        return {txn: event.decision for txn, event in self._decided.items()}

    def committed(self) -> List[TxnId]:
        """Transactions that committed, in decide order."""
        return [
            event.txn
            for event in self.events
            if event.kind == "decide" and event.decision is Decision.COMMIT
        ]

    def pending(self) -> Set[TxnId]:
        return set(self._certified) - set(self._decided)

    def digest(self) -> str:
        """A SHA-256 fingerprint of the full event sequence.

        Two histories digest equal iff they recorded the same actions, on
        the same transactions with the same payloads and decisions, in the
        same order at the same virtual times — the byte-identity contract
        process fan-out (``--jobs``) is held to.  Stable across processes
        and ``PYTHONHASHSEED`` values (unordered payload containers are
        canonicalized first), so digests can be compared between a serial
        parent and pool workers, or across machines.  Every call is a full
        pass over ``events``: nothing is cached or folded in at record time,
        so the time of a call measures the fingerprint (the benchmark times
        one).
        """
        fingerprint = hashlib.sha256()
        update = fingerprint.update
        # One ``update`` per event: the text of a whole run is never held.
        for event in self.events:
            payload = event.payload
            decision = event.decision
            update(
                (
                    f"({event.kind!r}, {event.txn!r}, {event.time!r}, {event.seq!r}, "
                    f"{_RENDERERS[type(payload)](payload)}, "
                    f"{None if decision is None else decision.name!r})"
                ).encode()
            )
        return fingerprint.hexdigest()

    def __len__(self) -> int:
        return len(self.events)


class HistorySubscription:
    """A closeable bundle of history listeners (see :meth:`History.subscribe`).

    It appends its callbacks to the history's listener lists and removes
    them on :meth:`close`; each kind's listeners run in registration order.
    """

    def __init__(
        self,
        history: History,
        on_certify: Optional[Callable[[TxnId], None]] = None,
        on_decide: Optional[Callable[[TxnId, Decision], None]] = None,
        on_contradiction: Optional[Callable[[TxnId, Decision, Decision], None]] = None,
    ) -> None:
        self._history = history
        self._certify_fn = on_certify
        self._decide_fn = on_decide
        self._contradiction_fn = on_contradiction
        if on_certify is not None:
            history._certify_listeners.append(on_certify)
        if on_decide is not None:
            history._decide_listeners.append(on_decide)
        if on_contradiction is not None:
            history._contradiction_listeners.append(on_contradiction)

    def close(self) -> None:
        history = self._history
        if self._certify_fn is not None:
            history._certify_listeners.remove(self._certify_fn)
        if self._decide_fn is not None:
            history._decide_listeners.remove(self._decide_fn)
        if self._contradiction_fn is not None:
            history._contradiction_listeners.remove(self._contradiction_fn)
        self._certify_fn = self._decide_fn = self._contradiction_fn = None

    def __enter__(self) -> "HistorySubscription":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class DecisionWatcher(HistorySubscription):
    """O(1)-per-event completion tracking for a set of transactions.

    Instead of rescanning the whole history after every fired event (the
    old ``run_until_decided`` predicate, O(events x txns) overall), a
    watcher subscribes to the history's decide events and keeps a counter
    of outstanding transactions, turning the wait into O(events).

    With ``txns=None`` the watcher tracks *every* certified transaction,
    including transactions certified while the watcher is open (it also
    subscribes to certify events), which matches the semantics of waiting
    for the full history to become complete.

    A watcher is a :class:`HistorySubscription`: always close it (or use
    ``with``) so the listeners do not accumulate on long-lived histories.
    """

    def __init__(self, history: History, txns: Optional[Sequence[TxnId]] = None) -> None:
        self._waiting: Set[TxnId] = set()
        if txns is None:
            self._waiting.update(history.pending())
        else:
            for txn in txns:
                if history.decision_of(txn) is None:
                    self._waiting.add(txn)
        super().__init__(
            history,
            on_certify=self._on_certify if txns is None else None,
            on_decide=self._on_decide,
        )

    def _on_certify(self, txn: TxnId) -> None:
        self._waiting.add(txn)

    def _on_decide(self, txn: TxnId, decision: Decision) -> None:
        self._waiting.discard(txn)

    @property
    def outstanding(self) -> int:
        """Number of tracked transactions still awaiting a decision."""
        return len(self._waiting)

    def is_done(self) -> bool:
        return not self._waiting
