"""Simulation runtime substrate.

The paper assumes an asynchronous message-passing system of crash-stop
processes connected by reliable FIFO channels (Section 3), optionally
extended with RDMA (Section 5).  This package provides that substrate as a
deterministic discrete-event simulation:

* :mod:`repro.runtime.events` — the virtual-time event scheduler;
* :mod:`repro.runtime.network` — reliable FIFO point-to-point channels
  configured by a delay model (:class:`LatencySpec`) and a link model
  (:class:`NetworkSpec`), with partitions and message accounting;
* :mod:`repro.runtime.process` — the actor-style process model with
  crash-stop failures and timers;
* :mod:`repro.runtime.rdma` — the one-sided RDMA communication primitive
  (send-rdma / ack-rdma / deliver-rdma / open / close / flush).
"""

from repro.runtime.events import Scheduler, Event
from repro.runtime.network import LatencySpec, MessageStats, Network, NetworkSpec
from repro.runtime.process import Process
from repro.runtime.rdma import RdmaManager, RdmaWrite, RdmaAck

__all__ = [
    "Scheduler",
    "Event",
    "Network",
    "LatencySpec",
    "NetworkSpec",
    "MessageStats",
    "Process",
    "RdmaManager",
    "RdmaWrite",
    "RdmaAck",
]
