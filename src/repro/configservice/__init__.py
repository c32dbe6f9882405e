"""External configuration service (CS).

The paper assumes a reliable external service storing the configurations of
all shards and providing ``compare_and_swap``, ``get_last`` and ``get``
operations; in practice it is realised with Paxos-style replication over
``2f + 1`` small processes (ZooKeeper-style).  This repository provides the
model the paper proves against and no replicated realisation:

* :class:`repro.configservice.service.ConfigurationService` — a reliable
  single-process CS.  It stores sequences of configurations by key: one
  sequence per shard for the message-passing protocol, and the single
  system-wide sequence of the RDMA protocol under the key ``"*"``.
"""

from repro.configservice.service import ConfigurationService

__all__ = ["ConfigurationService"]
