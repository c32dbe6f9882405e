"""TCS histories.

A history is a sequence of ``certify(t, l)`` and ``decide(t, d)`` actions
such that every transaction is certified at most once and every decide
responds to exactly one preceding certify (Section 2).  Clients record their
interactions with the service into a shared :class:`History`, which hands
each action to its listeners (the online checker, the invariant monitor,
decision watchers) as it is recorded and folds it into a running
fingerprint; the metrics layer reads the decisions it keeps.
"""

from __future__ import annotations

import dataclasses
from types import MappingProxyType
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

try:  # the interpreter's own SHA-256: hashlib would load OpenSSL's libcrypto
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.11
    except ImportError:  # an interpreter built without the module
        from hashlib import sha256

from repro.core.serializability import SnapshotRead, TransactionPayload
from repro.core.types import Decision, TxnId


# The listeners' signatures (see History.subscribe).
CertifyListener = Callable[[TxnId, Any, float], None]
DecideListener = Callable[[TxnId, Decision, Any, float], None]
ContradictionListener = Callable[[TxnId, Decision, Decision], None]


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
#   refused with ``TypeError`` when a payload holding one is recorded,
#   because two processes would otherwise disagree on the digest without a
#   word.
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
    any depth: ``repr`` of such a tree *is* its canonical text.  Two levels
    of tuples are walked in place (a read set's pairs and their versions),
    deeper ones by recursion."""
    for value in values:
        cls = type(value)
        if cls is tuple:
            for inner in value:
                cls = type(inner)
                if cls is tuple:
                    for leaf in inner:
                        cls = type(leaf)
                        if cls not in _PLAIN_LEAVES and not (cls is tuple and _is_plain(leaf)):
                            return False
                elif cls not in _PLAIN_LEAVES:
                    return False
        elif cls not in _PLAIN_LEAVES:
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


def _dataclass_template(cls: type) -> str:
    """The text ``('Name', (('field', %s), ...))`` of a dataclass instance,
    a ``%`` template of its fields' texts in field order."""
    fields = [f"({field.name!r}, %s)" for field in dataclasses.fields(cls)]
    body = ", ".join(fields) + ("," if len(fields) == 1 else "")
    return f"({repr(cls.__name__).replace('%', '%%')}, ({body}))"


def _dataclass_renderer(cls: type) -> Callable[[Any], str]:
    """The template with the field names read once, filled with the
    fields' texts; a field marked as a set in canonical form renders by the
    set rule."""
    fields_of = dataclasses.fields(cls)
    names = tuple(f.name for f in fields_of)
    as_set = frozenset(f.name for f in fields_of if f.metadata.get("canonical") == "set")
    template = _dataclass_template(cls)

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


# The two payload types of every run, whose fields are known, render
# without the field walk: a payload's two sets are sets in canonical form,
# and the marker holds a tuple of object ids.  The walk gives the same text
# (``tests/test_history_digest.py`` holds both to the recursive definition).
_PAYLOAD_TEXT = _dataclass_template(TransactionPayload)
_MARKER_TEXT = _dataclass_template(SnapshotRead)


def _render_transaction_payload(value: TransactionPayload) -> str:
    version = value.commit_version
    return _PAYLOAD_TEXT % (
        _render_set(value.read_set),
        _render_set(value.write_set),
        _RENDERERS[type(version)](version),
    )


def _render_snapshot_read(value: SnapshotRead) -> str:
    objects = value.objects
    return _MARKER_TEXT % (_RENDERERS[type(objects)](objects),)


_RENDERERS[TransactionPayload] = _render_transaction_payload
_RENDERERS[SnapshotRead] = _render_snapshot_read

# The text of a decision in an event: ``repr`` of its name, read once
# (``Enum.name`` is a property, a Python call per read).
_DECISION_TEXT = {decision: repr(decision.name) for decision in Decision}


class History:
    """An append-only TCS history, consumed as a stream.

    Every event goes to the history's listeners as it is recorded, and its
    canonical text is folded into a running SHA-256 (:meth:`digest`).  The
    record keeps only what the spec's queries read back:

    * ``_pending`` — each certified transaction not yet decided, in
      certify order (the value is None: a payload goes to the listeners,
      not into the record); its first decide moves it to ``_decided``;
    * ``_decided`` — each decided transaction's (first) decision, in decide
      order;
    * ``contradictions`` — the contradictory decides;
    * ``_events`` — the number of events, which is also the next event's
      sequence number.

    No event, payload or time is kept, so nothing can be replayed: a
    consumer that needs every event (the online checker, the invariant
    monitor, a test's recorder) subscribes before the first one, and
    :meth:`subscribe` refuses it afterwards.
    """

    def __init__(self) -> None:
        self._pending: Dict[TxnId, None] = {}
        self._decided: Dict[TxnId, Decision] = {}
        self._events = 0
        self._fingerprint = sha256()
        # Contradictory decide events observed for the same transaction.
        # A correct protocol never produces these (Invariant 4b); the broken
        # RDMA variant used for the Figure 4a ablation does, and the checker
        # reports them rather than the recorder raising mid-simulation.
        self.contradictions: List[Tuple[TxnId, Decision, Decision]] = []
        # Completion callbacks; the cluster drivers' decision watchers hook
        # in here so that waiting for decisions is O(1) per event instead of
        # a full-history rescan.
        self._certify_listeners: List[CertifyListener] = []
        self._decide_listeners: List[DecideListener] = []
        self._contradiction_listeners: List[ContradictionListener] = []

    # ------------------------------------------------------------------
    # listeners
    # ------------------------------------------------------------------
    def subscribe(
        self,
        on_certify: Optional[CertifyListener] = None,
        on_decide: Optional[DecideListener] = None,
        on_contradiction: Optional[ContradictionListener] = None,
        every_event: bool = False,
    ) -> "HistorySubscription":
        """Register the given callbacks and return one closeable handle:
        ``on_certify(txn, payload, time)`` whenever a new transaction is
        certified, ``on_decide(txn, decision, payload, time)`` on each
        transaction's *first* decide (``payload`` is the decide-time
        payload, None unless a snapshot read attached one), and
        ``on_contradiction(txn, first, second)`` when a *contradictory*
        decide is recorded for an already-decided transaction (Invariant 4b
        violations; only the broken ablation protocol produces these).
        Each kind's callbacks run in registration order.

        This is the one way in: the online checker, the invariant monitor,
        decision watchers and the store's executor consume histories through
        it; the handle is a context manager so subscriptions do not leak on
        long-lived histories.  A consumer that must see ``every_event``
        raises ``RuntimeError`` once the history holds one: the history
        keeps no events to replay.
        """
        if every_event and self._events:
            raise RuntimeError(
                f"the history already holds {self._events} event(s) and keeps "
                "none to replay: a consumer of every event must subscribe "
                "before the first is recorded"
            )
        return HistorySubscription(self, on_certify, on_decide, on_contradiction)

    def watch(self, txns: Optional[Sequence[TxnId]] = None) -> "DecisionWatcher":
        """A :class:`DecisionWatcher` over ``txns`` (default: every certified
        transaction, including ones certified after the watcher is created)."""
        return DecisionWatcher(self, txns)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    # An event's text is ``repr`` of ``(kind, txn, time, seq, payload,
    # decision name)``, its payload in canonical form, rendered once, here.
    def record_certify(self, txn: TxnId, payload: Any, time: float) -> None:
        pending = self._pending
        if txn in pending or txn in self._decided:
            raise ValueError(f"transaction {txn!r} certified twice")
        seq = self._events
        self._fingerprint.update(
            f"('certify', {txn!r}, {time!r}, {seq!r}, "
            f"{_RENDERERS[type(payload)](payload)}, None)".encode()
        )
        pending[txn] = None
        self._events = seq + 1
        for listener in self._certify_listeners:
            listener(txn, payload, time)

    def record_decide(
        self, txn: TxnId, decision: Decision, time: float, payload: Any = None
    ) -> None:
        """Record a decision.  ``payload`` is normally None (the payload rides
        the certify event); snapshot reads certify a placeholder marker and
        attach their versioned read-only payload here, once the serving
        replica has determined which versions were observed."""
        decided = self._decided
        if txn in decided:
            previous = decided[txn]
            if previous is not decision:
                self.contradictions.append((txn, previous, decision))
                for listener in self._contradiction_listeners:
                    listener(txn, previous, decision)
            return
        pending = self._pending
        if txn not in pending:
            raise ValueError(f"decide for unknown transaction {txn!r}")
        seq = self._events
        self._fingerprint.update(
            f"('decide', {txn!r}, {time!r}, {seq!r}, "
            f"{_RENDERERS[type(payload)](payload)}, {_DECISION_TEXT[decision]})".encode()
        )
        del pending[txn]
        decided[txn] = decision
        self._events = seq + 1
        for listener in self._decide_listeners:
            listener(txn, decision, payload, time)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def certified(self) -> List[TxnId]:
        """Every certified transaction: the decided ones in decide order,
        then the pending ones in certify order."""
        return [*self._decided, *self._pending]

    def decision_of(self, txn: TxnId) -> Optional[Decision]:
        return self._decided.get(txn)

    def decided(self) -> Mapping[TxnId, Decision]:
        """Each decided transaction's decision, in decide order: a read-only
        view of the record, not a copy."""
        return MappingProxyType(self._decided)

    def pending(self) -> Set[TxnId]:
        return set(self._pending)

    def digest(self) -> str:
        """A SHA-256 fingerprint of the event sequence recorded so far.

        Two histories digest equal iff they recorded the same actions, on
        the same transactions with the same payloads and decisions, in the
        same order at the same virtual times.  Stable across processes
        and ``PYTHONHASHSEED`` values (unordered payload containers are
        canonicalized first), so digests can be compared between
        interpreters, commits or machines.  Each event was folded
        in as it was recorded, so a call copies the running hash: O(1), and
        the history keeps reading events after it.

        The hash is the interpreter's built-in SHA-256 (``_sha2`` on 3.12+,
        ``_sha256`` on 3.11), as ``random.py`` uses ``_sha512``: ``hashlib``
        loads OpenSSL's libcrypto, about 3.5 MB of every process's peak RSS.
        The bytes hashed and the digest are the same; ``hashlib`` stands in
        only where the interpreter lacks the module.
        """
        return self._fingerprint.copy().hexdigest()

    def __len__(self) -> int:
        return self._events


class HistorySubscription:
    """A closeable bundle of history listeners (see :meth:`History.subscribe`).

    It appends its callbacks to the history's listener lists and removes
    them on :meth:`close`; each kind's listeners run in registration order.
    """

    def __init__(
        self,
        history: History,
        on_certify: Optional[CertifyListener] = None,
        on_decide: Optional[DecideListener] = None,
        on_contradiction: Optional[ContradictionListener] = None,
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

    def _on_certify(self, txn: TxnId, payload: Any, time: float) -> None:
        self._waiting.add(txn)

    def _on_decide(self, txn: TxnId, decision: Decision, payload: Any, time: float) -> None:
        self._waiting.discard(txn)

    @property
    def outstanding(self) -> int:
        """Number of tracked transactions still awaiting a decision."""
        return len(self._waiting)

    def is_done(self) -> bool:
        return not self._waiting
