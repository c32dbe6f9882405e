"""Bytes-on-wire accounting for every simulated message type.

The bandwidth-aware link model (a :class:`repro.runtime.network.NetworkSpec`
with ``bandwidth > 0``) charges each message a serialization time
proportional to its wire size.  This module owns that size:
:func:`wire_size` maps a message instance to a deterministic byte count
built from a fixed per-message header plus a recursive estimate of its
payload fields.

Two properties matter more than the absolute byte values:

* **batches cost the sum of their parts plus one header** — a ``Batch``
  envelope of 32 ``Prepare`` messages carries the same payload bytes as 32
  individual sends but saves 31 headers (and, on the link, 31 per-message
  overheads), so batch-size sweeps show a real latency/throughput knee
  instead of batching being free.  One rule sizes the transport's envelope
  whatever it carries, and the baseline's ``CommandBatch`` Paxos value;
* **unregistered message types fail loudly** — ``wire_size`` raises
  :class:`TypeError` for a top-level message class nobody registered, so a
  newly added protocol message breaks the unit-test battery instead of
  silently costing 0 bytes on the wire.

The registry is built lazily, one stack at a time: this module imports only
the standard library at import time so ``runtime.network`` can depend on it
without creating a cycle with the protocol modules (which themselves
import the runtime).  The core protocol's messages are registered on the
first sizing; the RDMA and the 2PC-over-Paxos messages when a message of
that stack is first sized, so a run imports no stack it does not send.
"""

from __future__ import annotations

import dataclasses
import functools
from enum import Enum
from typing import Any, Callable, Dict, Optional, Set

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

_SIZERS: Dict[type, Callable[[Any], float]] = {}
# Field sizers by *exact* value type, compiled on first sight of the type
# (see :func:`_compile_field_sizer`): one dict lookup per field instead of
# an ``isinstance`` ladder.
_FIELD_SIZERS: Dict[type, Callable[[Any], float]] = {}
# The stack registrations already run (see ``_register_stack_of``).
_REGISTERED: Set[Callable[[], None]] = set()


def _field_size(value: Any) -> float:
    """Recursive size of one payload field (no header)."""
    cls = type(value)
    if cls is str:  # the commonest field by far (ids, keys): skip the dispatch
        return float(len(value))
    sizer = _FIELD_SIZERS.get(cls)
    if sizer is None:
        sizer = _FIELD_SIZERS[cls] = _compile_field_sizer(cls)
    return sizer(value)


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


def _dataclass_fields_sizer(cls: type, base: float) -> Callable[[Any], float]:
    """``base`` plus the recursive size of every dataclass field of
    ``cls``, with the field names read once."""
    names = tuple(f.name for f in dataclasses.fields(cls))

    def sizer(value: Any) -> float:
        return base + sum([_field_size(getattr(value, name)) for name in names])

    return sizer


def _compile_field_sizer(cls: type) -> Callable[[Any], float]:
    """The sizer for field values of exactly type ``cls``: the first
    matching rule, in this order (an ``Enum`` with a ``str`` or ``int``
    mixin is a scalar, a named tuple is a sequence)."""
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


def _batch_sizer(attr: str) -> Callable[[Any], float]:
    """Batch wrappers cost one header plus the *payload* bytes of every
    element — coalescing saves the per-element headers (and, on the link,
    the per-message serialization overhead), never payload bytes."""

    def sizer(message: Any) -> float:
        payloads = sum(
            [wire_size(part) - HEADER_BYTES for part in getattr(message, attr)]
        )
        return HEADER_BYTES + payloads

    return sizer


def _register(cls: type, sizer: Optional[Callable[[Any], float]] = None) -> None:
    """Register a message class; by default it costs a header plus the
    recursive size of every dataclass field."""
    _SIZERS[cls] = sizer or _dataclass_fields_sizer(cls, HEADER_BYTES)


def _register_core() -> None:
    """The message-passing protocol, the transport envelope and the
    payload memo every stack uses."""
    from repro.core import messages as core
    from repro.core.serializability import TransactionPayload
    from repro.runtime.process import Batch

    # Equal payloads have equal sizes (equality is field equality and the
    # size is a function of the field values), so the memo may key on the
    # payload itself.
    _FIELD_SIZERS[TransactionPayload] = functools.lru_cache(_PAYLOAD_MEMO_ENTRIES)(
        _size_transaction_payload
    )

    # The transport envelope of every batched path; an unregistered item
    # inside one raises like an unregistered top-level message.
    _register(Batch, _batch_sizer("items"))

    for cls in (
        core.CertifyRequest,
        core.TxnDecision,
        core.ReadRequest,
        core.ReadReply,
        core.CsLeaseRequest,
        core.CsLeaseGrant,
        core.Heartbeat,
        core.SuspicionReport,
        core.CsViewChange,
        core.Prepare,
        core.PrepareAck,
        core.Accept,
        core.AcceptAck,
        core.SlotDecision,
        core.Probe,
        core.ProbeAck,
        core.NewConfig,
        core.NewState,
        core.ConfigChange,
        core.CsGetLast,
        core.CsGet,
        core.CsCompareAndSwap,
        core.CsReply,
    ):
        _register(cls)


def _register_rdma() -> None:
    """The RDMA protocol (distinct classes from core's same-named ones)
    and the NIC-level frames."""
    from repro.rdma import messages as rdma
    from repro.runtime import rdma as rdma_runtime

    for cls in (
        rdma.Accept,
        rdma.SlotDecision,
        rdma.ConfigPrepare,
        rdma.ConfigPrepareAck,
        rdma.NewConfig,
        rdma.NewState,
        rdma.Connect,
        rdma.ConnectAck,
    ):
        _register(cls)

    # An RdmaWrite carries a full protocol message as its payload, so it
    # costs a frame header plus that message's size.
    def _rdma_write_sizer(frame: Any) -> float:
        return HEADER_BYTES + SCALAR_BYTES + wire_size(frame.payload)

    _register(rdma_runtime.RdmaWrite, _rdma_write_sizer)
    _register(rdma_runtime.RdmaAck)


def _register_baseline() -> None:
    """The 2PC-over-Paxos baseline."""
    from repro.baselines import paxos, twopc

    for cls in (
        paxos.RsmCommand,
        paxos.RsmResponse,
        paxos.Phase1a,
        paxos.Phase1b,
        paxos.Phase2a,
        paxos.Phase2b,
        paxos.Chosen,
        paxos.ForwardedCommand,
        twopc.PrepareCommand,
        twopc.DecideCommand,
    ):
        _register(cls)
    _register(twopc.CommandBatch, _batch_sizer("commands"))


# The modules whose message classes the RDMA or the baseline stack
# registers; every other class is the core stack's, registered first.
_STACK_OF_MODULE: Dict[str, Callable[[], None]] = {
    "repro.rdma.messages": _register_rdma,
    "repro.runtime.rdma": _register_rdma,
    "repro.baselines.paxos": _register_baseline,
    "repro.baselines.twopc": _register_baseline,
}


def _register_stack_of(cls: type) -> None:
    """Register the core stack, and the stack ``cls`` belongs to, unless
    already done (this imports that stack's message modules)."""
    for register in (_register_core, _STACK_OF_MODULE.get(cls.__module__, _register_core)):
        if register not in _REGISTERED:
            _REGISTERED.add(register)
            register()


def is_registered(cls: type) -> bool:
    """True when ``cls`` has an explicit wire-size entry (exact type, not
    via inheritance — every new message class must be registered itself)."""
    _register_stack_of(cls)
    return cls in _SIZERS


def wire_size(message: Any) -> float:
    """Deterministic byte size of ``message`` on the wire.

    Raises :class:`TypeError` for an unregistered top-level message type:
    the unit-test battery enumerates every message module, so forgetting to
    register a new type is a test failure, not a free message.
    """
    sizer = _SIZERS.get(type(message))
    if sizer is None:
        _register_stack_of(type(message))
        sizer = _SIZERS.get(type(message))
    if sizer is None:
        raise TypeError(
            f"no wire size registered for message type "
            f"{type(message).__module__}.{type(message).__qualname__}; "
            "register it in repro.runtime.wire"
        )
    return sizer(message)
