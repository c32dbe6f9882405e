"""Actor-style processes with crash-stop failures.

Every protocol role in the reproduction (shard replica, transaction
coordinator/client, configuration service, Paxos acceptor, ...) is a
:class:`Process`.  A process reacts to delivered messages by dispatching to
``on_<message-type>`` handler methods, mirroring the "when received ..."
clauses of the paper's pseudocode.

The paper's protocols exchange one message per transaction; coalescing them
is a transport matter this module owns.  :class:`Batch` is the one envelope
every batched path puts on the wire (the sender side is
:class:`repro.core.batching.MessageBatcher`).  :meth:`Process.on_batch`
unpacks it: each item goes to the ``on_<type>`` handler it would have
reached alone, so a protocol handler cannot tell whether it runs batched.
A handler that answers with :meth:`Process.reply` instead of
:meth:`Process.send` has its answers to the envelope's sender leave as one
envelope too (a leader's vote vector, a follower's aggregated ack).  The
envelope lives here rather than with the protocol messages because
``Process`` builds that reply.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Any, Callable, Iterable, List, Optional, Tuple, TYPE_CHECKING

from repro.runtime.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.network import Network


_CAMEL_RE = re.compile(r"(?<!^)(?=[A-Z])")


@functools.cache
def _handler_name_of(message_type: type) -> str:
    """``on_<snake_case>`` for a CamelCase message class (``PrepareAck`` ->
    ``on_prepare_ack``), derived once per class.

    Only the *name* is memoised; :meth:`Process.handle` still looks the
    method up on the receiving instance at every dispatch, so a handler
    overridden in a subclass or patched onto one instance is honoured.
    """
    return "on_" + _CAMEL_RE.sub("_", message_type.__name__).lower()


@dataclass(frozen=True)
class Batch:
    """Transport envelope: messages for one destination sent as one.

    Every item is a complete message of the unbatched protocol, in the
    order the protocol produced it; the envelope carries no state of its
    own.  On the wire it costs one header plus the items' payload bytes
    (:mod:`repro.runtime.wire`).
    """

    items: Tuple[Any, ...]


class Process:
    """Base class for simulated processes.

    Subclasses implement ``on_<message>`` methods for every message type they
    handle.  Unhandled messages raise, which surfaces protocol wiring bugs
    immediately in tests.
    """

    def __init__(self, pid: str) -> None:
        self.pid = pid
        self.crashed = False
        self.network: Optional["Network"] = None
        self.rdma = None  # type: ignore[assignment]  # set by RdmaManager.install
        # While an envelope is being unpacked: who sent it, and the answers
        # ``reply`` has collected for them so far.
        self._replying_to: Optional[str] = None
        self._replies: List[Any] = []

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach(self, network: "Network") -> None:
        self.network = network

    @property
    def scheduler(self):
        assert self.network is not None, f"{self.pid} is not attached to a network"
        return self.network.scheduler

    @property
    def now(self) -> float:
        return self.scheduler.now

    # ------------------------------------------------------------------
    # sending and timers
    # ------------------------------------------------------------------
    def send(self, dst: str, message: Any, weak: bool = False) -> None:
        """Send a message over the reliable FIFO network.

        ``weak`` marks background traffic (heartbeats) whose deliveries must
        not keep the simulation alive; see :meth:`Network.send`.  A crashed
        process sends nothing.
        """
        assert self.network is not None
        if not self.crashed:
            self.network.send(self.pid, dst, message, weak)

    def send_all(self, dsts: Iterable[str], message: Any, weak: bool = False) -> None:
        """Send the same message to every destination (excluding none).

        Deliveries that land at the same virtual time share one scheduler
        event (see :meth:`Network.send_many`), so prefer this over a manual
        send loop for fan-outs.
        """
        assert self.network is not None
        if not self.crashed:
            self.network.send_many(self.pid, dsts, message, weak)

    def reply(self, dst: str, message: Any) -> None:
        """Answer ``dst``'s message: inside an envelope from ``dst`` the
        answer joins the one envelope sent back when unpacking ends; anywhere
        else (an unbatched message, a re-dispatched stashed one, an answer to
        someone other than the envelope's sender) this is :meth:`send`."""
        if dst == self._replying_to:
            self._replies.append(message)
        else:
            self.send(dst, message)

    def set_timer(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule a local callback; it is suppressed if the process crashed."""

        def fire() -> None:
            if not self.crashed:
                fn(*args)

        return self.scheduler.schedule(delay, fire)

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------
    def deliver(self, message: Any, sender: str) -> None:
        """Entry point used by the network; dispatches to handlers."""
        if self.crashed:
            return
        # RDMA traffic is handled by the NIC-level manager without involving
        # the "CPU" (i.e. regardless of protocol state); see runtime.rdma.
        if self.rdma is not None and self.rdma.intercept(message, sender):
            return
        self.handle(message, sender)

    def handle(self, message: Any, sender: str) -> None:
        """Dispatch a message to its ``on_<type>`` handler."""
        method = getattr(self, _handler_name_of(type(message)), None)
        if method is None:
            raise self._no_handler(message)
        method(message, sender)

    def _no_handler(self, message: Any) -> NotImplementedError:
        return NotImplementedError(
            f"{type(self).__name__}({self.pid}) has no handler for "
            f"{type(message).__name__}"
        )

    def on_batch(self, msg: Batch, sender: str) -> None:
        """Unpack an envelope: every item, in order, through its ordinary
        handler, then one envelope back with whatever the handlers answered
        through :meth:`reply` (nothing when they answered nothing)."""
        replies = self._replies = []
        self._replying_to = sender
        try:
            # Envelopes are filled per message kind, so the handler is
            # resolved once per run of same-typed items, not per item.
            kind = method = None
            for item in msg.items:
                if type(item) is not kind:
                    kind = type(item)
                    method = getattr(self, _handler_name_of(kind), None)
                    if method is None:
                        raise self._no_handler(item)
                method(item, sender)
        finally:
            self._replying_to = None
        if replies:
            self.send(sender, Batch(tuple(replies)))

    # ------------------------------------------------------------------
    # failures
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Crash-stop this process."""
        self.crashed = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "crashed" if self.crashed else "up"
        return f"<{type(self).__name__} {self.pid} {status}>"
