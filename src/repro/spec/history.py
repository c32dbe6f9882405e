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
from itertools import count, repeat
from operator import getitem
from types import MappingProxyType
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

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
    """One action of a history, as :attr:`History.events` builds it."""

    kind: str  # "certify" | "decide"
    txn: TxnId
    time: float
    seq: int
    payload: Any = None
    decision: Optional[Decision] = None


# Which of the two maps an event comes from: one byte per event.
_CERTIFY, _DECIDE = 0, 1


class History:
    """An append-only TCS history with the derived relations the spec uses.

    The record keeps each fact once, flat, and no per-event object:

    * ``_certified`` maps each transaction to its payload, in certify order;
    * ``_decided`` maps each decided transaction to its (first) decision, in
      decide order;
    * ``_decide_payloads`` holds the payloads attached to decide events
      (snapshot reads resolve their observed versions only at decide time);
    * ``_kinds`` holds one byte per event saying which map the next event
      comes from, and ``_times`` its virtual time.

    The event sequence is the merge of the two maps in ``_kinds`` order;
    :meth:`digest` walks it, and :attr:`events` builds it as :class:`Event`
    values on demand (replay into a checker attached late, and tests).
    """

    def __init__(self) -> None:
        self._certified: Dict[TxnId, Any] = {}
        self._decided: Dict[TxnId, Decision] = {}
        self._decide_payloads: Dict[TxnId, Any] = {}
        self._kinds = bytearray()
        self._times: List[float] = []
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
    def record_certify(self, txn: TxnId, payload: Any, time: float) -> None:
        certified = self._certified
        if txn in certified:
            raise ValueError(f"transaction {txn!r} certified twice")
        certified[txn] = payload
        self._kinds.append(_CERTIFY)
        self._times.append(time)
        for listener in self._certify_listeners:
            listener(txn)

    def record_decide(
        self, txn: TxnId, decision: Decision, time: float, payload: Any = None
    ) -> None:
        """Record a decision.  ``payload`` is normally None (the payload rides
        the certify event); snapshot reads certify a placeholder marker and
        attach their versioned read-only payload here, once the serving
        replica has determined which versions were observed."""
        if txn not in self._certified:
            raise ValueError(f"decide for unknown transaction {txn!r}")
        decided = self._decided
        if txn in decided:
            previous = decided[txn]
            if previous is not decision:
                self.contradictions.append((txn, previous, decision))
                for listener in self._contradiction_listeners:
                    listener(txn, previous, decision)
            return
        decided[txn] = decision
        if payload is not None:
            self._decide_payloads[txn] = payload
        self._kinds.append(_DECIDE)
        self._times.append(time)
        for listener in self._decide_listeners:
            listener(txn, decision)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def certified(self) -> List[TxnId]:
        return list(self._certified)

    def payload_of(self, txn: TxnId) -> Any:
        return self._certified[txn]

    def decided_payload_of(self, txn: TxnId) -> Any:
        """The payload attached to the decide event, if any (snapshot reads)."""
        return self._decide_payloads.get(txn)

    def decision_of(self, txn: TxnId) -> Optional[Decision]:
        return self._decided.get(txn)

    def decided(self) -> Mapping[TxnId, Decision]:
        """Each decided transaction's decision, in decide order: a read-only
        view of the record, not a copy."""
        return MappingProxyType(self._decided)

    def pending(self) -> Set[TxnId]:
        return self._certified.keys() - self._decided.keys()

    def _rows(self) -> Iterator[Tuple[int, float, int, Tuple[TxnId, Any]]]:
        """``(kind, time, seq, (txn, payload or decision))`` of each event in
        record order: the merge of the two maps that ``_kinds`` spells.
        Built of C iterators, so a pass costs one call, not one per event."""
        # Indexed by an event's kind byte: _CERTIFY is 0, _DECIDE is 1.
        maps = (iter(self._certified.items()), iter(self._decided.items()))
        entries = map(next, map(getitem, repeat(maps), self._kinds))
        return zip(self._kinds, self._times, count(), entries)

    @property
    def events(self) -> List[Event]:
        """The events in record order, built on each access (O(events)):
        for replay and for tests, never on a run's hot path."""
        payloads = self._decide_payloads
        return [
            Event("certify", txn, time, seq, value)
            if kind == _CERTIFY
            else Event("decide", txn, time, seq, payloads.get(txn), value)
            for kind, time, seq, (txn, value) in self._rows()
        ]

    def digest(self) -> str:
        """A SHA-256 fingerprint of the full event sequence.

        Two histories digest equal iff they recorded the same actions, on
        the same transactions with the same payloads and decisions, in the
        same order at the same virtual times — the byte-identity contract
        process fan-out (``--jobs``) is held to.  Stable across processes
        and ``PYTHONHASHSEED`` values (unordered payload containers are
        canonicalized first), so digests can be compared between a serial
        parent and pool workers, or across machines.  Every call is a full
        pass over the record: nothing is cached or folded in at record
        time, so the time of a call measures the fingerprint (the benchmark
        times one).  It builds no per-run container: a run's memory peaks
        here.  An event's text is ``repr`` of ``(kind, txn, time, seq,
        payload, decision name)``, its payload in canonical form.
        """
        fingerprint = hashlib.sha256()
        update = fingerprint.update
        payloads = self._decide_payloads
        # One ``update`` per event: the text of a whole run is never held.
        for kind, time, seq, (txn, value) in self._rows():
            if kind == _CERTIFY:
                text = (
                    f"('certify', {txn!r}, {time!r}, {seq!r}, "
                    f"{_RENDERERS[type(value)](value)}, None)"
                )
            else:
                payload = payloads[txn] if txn in payloads else None
                text = (
                    f"('decide', {txn!r}, {time!r}, {seq!r}, "
                    f"{_RENDERERS[type(payload)](payload)}, {value.name!r})"
                )
            update(text.encode())
        return fingerprint.hexdigest()

    def __len__(self) -> int:
        return len(self._kinds)


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
