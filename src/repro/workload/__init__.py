"""Synthetic workload generators.

The paper reports no experimental workloads (it is a theory paper) and
FaRM's production traces are proprietary, so the benchmark harness drives
the protocols with synthetic workloads that exercise the same code paths
with tunable contention and shard spans:

* :class:`UniformKeyGenerator` / :class:`ZipfianKeyGenerator` — key-access
  skew, over the key space whose version-zero seeds :class:`KeySpaceSeeds`
  answers without building them;
* :class:`ReadWriteWorkload` — YCSB-style read/write transactions with a
  configurable multi-shard span;
* :class:`BankWorkload` — the classic balance-transfer workload used by the
  examples and the contention benchmarks.
"""

from repro.workload.generators import (
    KeySpaceSeeds,
    UniformKeyGenerator,
    ZipfianKeyGenerator,
    TransactionSpec,
    ReadWriteWorkload,
    BankWorkload,
)

__all__ = [
    "KeySpaceSeeds",
    "UniformKeyGenerator",
    "ZipfianKeyGenerator",
    "TransactionSpec",
    "ReadWriteWorkload",
    "BankWorkload",
]
