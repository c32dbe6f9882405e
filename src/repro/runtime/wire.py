"""Bytes-on-wire accounting for every simulated message type.

The bandwidth-aware link model (a :class:`repro.runtime.network.NetworkSpec`
with ``bandwidth > 0``) charges each message a serialization time
proportional to its wire size.  This module owns that size:
:func:`wire_size` maps a message instance to a deterministic byte count
built from a fixed per-message header plus a recursive estimate of its
payload fields.

A message's size follows from its class.  Every message is a dataclass and
costs one header plus the recursive size of its fields, by a sizer compiled
on first sight of its exact class, so a new message class is sized without
being listed anywhere.  Two classes carry a rule of their own
(``_MESSAGE_RULES``):

* **a batch costs the sum of its parts plus one header** — a ``Batch``
  envelope of 32 ``Prepare`` messages carries the same payload bytes as 32
  individual sends but saves 31 headers (and, on the link, 31 per-message
  overheads), so batch-size sweeps show a real latency/throughput knee
  instead of batching being free.  One rule sizes the envelope whatever it
  carries; a ``Batch`` nested in a message (the 2PC baseline replicates
  one as a Paxos value) is a field, sized by the field rule;
* **an RDMA write costs its frame plus the message it carries** — the
  NIC-level ``RdmaWrite`` is a frame header and a write id around a full
  protocol message.

Those classes, and the ``TransactionPayload`` whose sizes are memoised, are
named by qualified name, not imported: this module imports only the
standard library, so ``runtime.network`` can depend on it without a cycle
with the protocol modules (which themselves import the runtime), and sizing
loads no stack a run does not send.  A top-level message that is not a
dataclass raises :class:`TypeError` naming its class, alone or inside a
batch.
"""

from __future__ import annotations

import dataclasses
import functools
from enum import Enum
from typing import Any, Callable, Dict

# Fixed per-message envelope: type tag, source/destination addressing and
# framing.  Charged once per top-level message and once per nested
# sub-message inside a batch.
HEADER_BYTES = 20.0

# Cost of one scalar field (numbers, enum tags, per-container length
# prefixes).  Strings and byte strings cost their length instead.
SCALAR_BYTES = 8.0

# Immutable payloads are re-sized inside every message that carries them
# (CertifyRequest -> Prepare -> Accept -> RdmaWrite x replicas, all within
# a few delays), so their sizes are memoised — in a bounded LRU, because a
# run creates payloads without end while only the in-flight ones recur.
_PAYLOAD_MEMO_ENTRIES = 1024
_PAYLOAD = "repro.core.serializability.TransactionPayload"

_Sizer = Callable[[Any], float]


class _Sizers(Dict[type, _Sizer]):
    """Sizers by *exact* type, each compiled by ``compile_sizer`` on first
    sight of its type: one dict lookup per value instead of an
    ``isinstance`` ladder."""

    def __init__(self, compile_sizer: Callable[[type], _Sizer]) -> None:
        super().__init__()
        self.compile_sizer = compile_sizer

    def __missing__(self, cls: type) -> _Sizer:
        sizer = self[cls] = self.compile_sizer(cls)
        return sizer


def _qualified_name(cls: type) -> str:
    return f"{cls.__module__}.{cls.__qualname__}"


def _field_size(value: Any) -> float:
    """Recursive size of one payload field (no header)."""
    cls = type(value)
    if cls is str:  # the commonest field by far (ids, keys): skip the dispatch
        return float(len(value))
    return _FIELD_SIZERS[cls](value)


def _size_nothing(value: Any) -> float:
    return 0.0


def _size_scalar(value: Any) -> float:
    return SCALAR_BYTES


def _size_length(value: Any) -> float:
    return float(len(value))


def _size_mapping(value: Any) -> float:
    return SCALAR_BYTES + sum(
        [_field_size(k) + _field_size(v) for k, v in value.items()]
    )


def _size_sequence(value: Any) -> float:
    return SCALAR_BYTES + sum(map(_field_size, value))


def _size_object(value: Any) -> float:
    if hasattr(value, "__dict__"):
        return SCALAR_BYTES + sum(map(_field_size, vars(value).values()))
    # Opaque sentinel objects (e.g. BOTTOM) cost one scalar.
    return SCALAR_BYTES


def _dataclass_fields_sizer(cls: type, base: float) -> _Sizer:
    """``base`` plus the recursive size of every dataclass field of
    ``cls``, with the field names read once."""
    names = tuple(f.name for f in dataclasses.fields(cls))

    def sizer(value: Any) -> float:
        return base + sum([_field_size(getattr(value, name)) for name in names])

    return sizer


def _compile_field_sizer(cls: type) -> _Sizer:
    """The sizer for field values of exactly type ``cls``: the first
    matching rule, in this order (an ``Enum`` with a ``str`` or ``int``
    mixin is a scalar, a named tuple is a sequence, a
    ``TransactionPayload`` is sized by arithmetic behind the memo)."""
    if cls is type(None):
        return _size_nothing
    if issubclass(cls, (Enum, bool, int, float)):
        return _size_scalar
    if issubclass(cls, (str, bytes)):
        return _size_length
    if issubclass(cls, dict):
        return _size_mapping
    if issubclass(cls, (tuple, list, set, frozenset)):
        return _size_sequence
    if dataclasses.is_dataclass(cls):
        if _qualified_name(cls) == _PAYLOAD:
            # Equal payloads have equal sizes (equality is field equality
            # and the size is a function of the field values), so the memo
            # may key on the payload itself.
            return functools.lru_cache(_PAYLOAD_MEMO_ENTRIES)(_size_transaction_payload)
        return _dataclass_fields_sizer(cls, SCALAR_BYTES)
    return _size_object


# The usual shapes of a payload's elements, as exact element types:
# ``tuple(map(type, x)) == shape`` checks them and the length at once.
_READ_SHAPE = (str, tuple)  # (object id, version)
_VERSION_SHAPE = (int, str)  # (counter, tiebreak)


def _size_transaction_payload(payload: Any) -> float:
    """A ``TransactionPayload`` sized by arithmetic: what the field walk
    (``_dataclass_fields_sizer``) returns for it, without the walk.  Reads
    of the shape ``(str, (int, str))``, writes keyed by a ``str`` and an
    ``(int, str)`` commit version are costed in place; anything else goes
    through ``_field_size``.  Every term is an integer-valued float
    (scalars and lengths), so the sum is exact in any order."""
    # The payload and its two sets cost a scalar each.
    size = 3 * SCALAR_BYTES
    for element in payload.read_set:
        if type(element) is tuple and tuple(map(type, element)) == _READ_SHAPE:
            obj, version = element
            if tuple(map(type, version)) == _VERSION_SHAPE:
                # Two tuples and the counter, plus the two strings.
                size += 3 * SCALAR_BYTES + len(obj) + len(version[1])
                continue
        size += _field_size(element)
    for element in payload.write_set:
        if type(element) is tuple and len(element) == 2 and type(element[0]) is str:
            obj, value = element
            size += SCALAR_BYTES + len(obj)
            size += SCALAR_BYTES if type(value) is int else _field_size(value)
        else:
            size += _field_size(element)
    version = payload.commit_version
    if type(version) is tuple and tuple(map(type, version)) == _VERSION_SHAPE:
        return size + 2 * SCALAR_BYTES + len(version[1])
    return size + _field_size(version)


def _size_batch(batch: Any) -> float:
    """One header plus the *payload* bytes of every item — coalescing saves
    the per-item headers (and, on the link, the per-message serialization
    overhead), never payload bytes."""
    return HEADER_BYTES + sum([wire_size(item) - HEADER_BYTES for item in batch.items])


def _size_rdma_write(frame: Any) -> float:
    """A frame header and the write id, plus the full size of the protocol
    message the write carries."""
    return HEADER_BYTES + SCALAR_BYTES + wire_size(frame.payload)


# The message classes with a rule of their own, by qualified name; every
# other message costs a header plus its dataclass fields.
_MESSAGE_RULES: Dict[str, _Sizer] = {
    "repro.runtime.process.Batch": _size_batch,
    "repro.runtime.rdma.RdmaWrite": _size_rdma_write,
}


def _compile_message_sizer(cls: type) -> _Sizer:
    """The sizer for top-level messages of exactly type ``cls``."""
    name = _qualified_name(cls)
    rule = _MESSAGE_RULES.get(name)
    if rule is not None:
        return rule
    if not dataclasses.is_dataclass(cls):
        raise TypeError(f"message type {name} has no wire size: a message is a dataclass")
    return _dataclass_fields_sizer(cls, HEADER_BYTES)


_SIZERS = _Sizers(_compile_message_sizer)
_FIELD_SIZERS = _Sizers(_compile_field_sizer)


def wire_size(message: Any) -> float:
    """Deterministic byte size of ``message`` on the wire.

    Raises :class:`TypeError` when ``message`` is not a dataclass, or is a
    batch with an item that is not one.
    """
    return _SIZERS[type(message)](message)
