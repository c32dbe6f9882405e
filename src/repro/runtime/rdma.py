"""Simulated one-sided RDMA communication primitive (Section 5).

The paper assumes an RDMA primitive with the following interface:

* ``send-rdma(m, pj)`` — reliably write message ``m`` into a memory region
  of ``pj`` without involving ``pj``'s CPU;
* ``ack-rdma(m, pj)`` — the sender is acknowledged by the *receiver's NIC*
  once the message has reached the receiver's memory, again without CPU
  involvement; after the ack, the receiver is guaranteed to eventually
  deliver ``m`` even if the sender crashes;
* ``deliver-rdma(m, pj)`` — the receiver's application is notified later,
  when it polls its circular buffers;
* ``open(pi)`` / ``close(pi)`` — grant / revoke ``pi``'s access to the
  caller's memory; after ``close`` completes, ``pi`` can no longer
  send-rdma to the caller;
* ``flush()`` — block until every message already acked by the caller's NIC
  has been delivered to the caller's application.

We do not have RDMA NICs, so we simulate the primitive: each process owns an
:class:`RdmaManager` holding per-sender bounded circular buffers.  Incoming
``RdmaWrite`` frames are handled at NIC level — i.e. *before* and
*independently of* the process's protocol state — which reproduces the
property the Figure 4a counter-example depends on: a process cannot refuse
an RDMA write from a sender it has not closed, even if it has moved to a
newer epoch.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, Optional, Set, Tuple

from repro.runtime.process import Process


@dataclass(frozen=True)
class RdmaWrite:
    """NIC-level frame carrying an application message to remote memory."""

    write_id: int
    payload: Any


@dataclass(frozen=True)
class RdmaAck:
    """NIC-level acknowledgement that a write reached remote memory."""

    write_id: int


@dataclass(slots=True)
class _PendingDelivery:
    payload: Any
    sender: str
    delivered: bool = False


class RdmaManager:
    """Per-process RDMA endpoint: buffers, access control and NIC acks.

    Install on a process with :meth:`install`; afterwards the process can use
    :meth:`send`, :meth:`open`, :meth:`close`, :meth:`multiclose` and
    :meth:`flush`, mirroring the primitive of Section 5.
    """

    def __init__(
        self,
        process: Process,
        buffer_capacity: int = 4096,
        poll_delay: float = 0.0,
    ) -> None:
        self.process = process
        self.buffer_capacity = buffer_capacity
        self.poll_delay = poll_delay
        # Senders currently granted access to our memory.
        self.access_granted: Set[str] = set()
        # Per-sender circular buffers of messages acked but not yet polled:
        # a poll or a flush releases delivered writes off the head, and a
        # full buffer rejects new writes (see ``_on_write``).
        self.buffers: Dict[str, Deque[_PendingDelivery]] = {}
        # Outstanding writes issued by *this* process, keyed by write id.
        self._next_write_id = 0
        self._on_ack: Dict[int, Tuple[str, Any, Callable[[Any, str], None]]] = {}
        self.writes_sent = 0
        self.writes_acked = 0
        self.writes_rejected_remotely = 0

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    @classmethod
    def install(cls, process: Process, **kwargs: Any) -> "RdmaManager":
        manager = cls(process, **kwargs)
        process.rdma = manager
        return manager

    # ------------------------------------------------------------------
    # sender side
    # ------------------------------------------------------------------
    def send(
        self,
        dst: str,
        message: Any,
        on_ack: Optional[Callable[[Any, str], None]] = None,
    ) -> int:
        """send-rdma: write ``message`` into ``dst``'s memory.

        ``on_ack(message, dst)`` fires when the remote NIC acknowledges the
        write (ack-rdma).  If the destination has closed the connection the
        write is silently lost and no ack ever arrives.
        """
        write_id = self._next_write_id
        self._next_write_id += 1
        self.writes_sent += 1
        if on_ack is not None:
            self._on_ack[write_id] = (dst, message, on_ack)
        self.process.send(dst, RdmaWrite(write_id=write_id, payload=message))
        return write_id

    # ------------------------------------------------------------------
    # receiver side (NIC level)
    # ------------------------------------------------------------------
    def open(self, peer: str) -> None:
        """Grant ``peer`` access to this process's memory region."""
        self.access_granted.add(peer)
        self.buffers.setdefault(peer, deque())

    def close(self, peer: str) -> None:
        """Revoke ``peer``'s access; subsequent writes from it are rejected."""
        self.access_granted.discard(peer)

    def multiclose(self, peers) -> None:
        """Close a set of connections (Figure 8, lines 163-166)."""
        for peer in list(peers):
            self.close(peer)

    @property
    def connections(self) -> Set[str]:
        """Peers currently granted access (the ``connections`` variable)."""
        return set(self.access_granted)

    def flush(self) -> None:
        """Deliver every message already acked by our NIC (Figure 8, line 142)."""
        for sender, buffer in self.buffers.items():
            while buffer:
                pending = buffer.popleft()
                if pending.delivered:
                    continue
                pending.delivered = True
                self.process.handle(pending.payload, pending.sender)

    # ------------------------------------------------------------------
    # interception of NIC-level frames
    # ------------------------------------------------------------------
    def intercept(self, message: Any, sender: str) -> bool:
        """Handle NIC-level frames; return True if the frame was consumed."""
        if isinstance(message, RdmaWrite):
            self._on_write(message, sender)
            return True
        if isinstance(message, RdmaAck):
            self._on_remote_ack(message, sender)
            return True
        return False

    def _on_write(self, frame: RdmaWrite, sender: str) -> None:
        if sender not in self.access_granted:
            # Access revoked (or never granted): the write bounces and the
            # sender never receives an ack for it.
            self.writes_rejected_remotely += 1
            return
        buffer = self.buffers.setdefault(sender, deque())
        if len(buffer) >= self.buffer_capacity:
            # Full circular buffer: the sender cannot make progress until the
            # receiver polls; modelled as a silently dropped (unacked) write.
            self.writes_rejected_remotely += 1
            return
        pending = _PendingDelivery(payload=frame.payload, sender=sender)
        buffer.append(pending)
        # NIC acks without involving our CPU.
        self.process.network.send(self.process.pid, sender, RdmaAck(frame.write_id))
        # The application is notified later, when it polls the buffer.
        self.process.scheduler.schedule(self.poll_delay, self._poll_one, pending)

    def _poll_one(self, pending: _PendingDelivery) -> None:
        if pending.delivered or self.process.crashed:
            return
        pending.delivered = True
        # Release the buffer's head of polled writes, so that it holds only
        # what has not been delivered and its capacity bounds exactly that.
        buffer = self.buffers[pending.sender]
        while buffer and buffer[0].delivered:
            buffer.popleft()
        self.process.handle(pending.payload, pending.sender)

    def _on_remote_ack(self, ack: RdmaAck, sender: str) -> None:
        self.writes_acked += 1
        entry = self._on_ack.pop(ack.write_id, None)
        if entry is None:
            return
        dst, message, callback = entry
        callback(message, dst)
