"""Code that was deleted stays deleted.

These designs left the tree, and nothing may grow back by accident:

* the windowed shard-group engine (a run partitioned into groups of
  shards on their own heaps): a run executes on the one serial event heap;
* the process pool that fanned whole runs out over worker processes, with
  its ``--jobs`` flag and ``ExecSpec.jobs``: every run executes serially,
  in the process that asked for it;
* the RDMA stack's own ``NewState`` message: both stacks send the one in
  ``repro.core.messages``;
* second copies of four mechanisms: the batcher's ``FlushTimer`` wrapper
  (and ``Scheduler.call_at_instant_end``, its one caller's primitive) — a
  batch schedules and cancels its own flush event; the baseline's
  ``CommandBatch`` and the batcher's ``wrap`` parameter — the baseline
  replicates a transport ``Batch``; ``VoteIndex.copy`` — a Paxos snapshot
  carries the settled summary; and the coordinators' parallel vote maps
  (``CoordinatorEntry.slots`` / ``vote_epochs``, ``TwoPCCoordinator``'s
  ``_unsent`` queues) — one record of each vote, and a command's shard and
  kind read off its leader and type;
* two entry points nothing called: ``Process.on_attach`` and
  ``TransactionDirectory.get``;
* per-transaction copies of what a decided transaction no longer needs:
  ``CoordinatorEntry.decided_at`` — the entry lives only until the
  decision, whose stamps go into the coordinator's columns — and
  ``TxnInfo.txn`` — the directory's key is the transaction, and a record
  is shared by every transaction of the same client and shard set.
"""

import importlib.util
import inspect

import pytest

import repro.scenarios as scenarios
from repro.analysis import metrics as metrics_module
from repro.baselines import twopc
from repro.baselines.cluster import BaselineCluster
from repro.cluster import Cluster, ClusterBase
from repro.core.batching import MessageBatcher
from repro.core.certification import VoteIndex
from repro.core.coordinator import CoordinatorEntry
from repro.core.directory import TransactionDirectory, TxnInfo
from repro.core.serializability import KeyHashSharding, SerializabilityScheme
from repro.rdma import messages as rdma_messages
from repro.runtime import events
from repro.runtime.events import Event, Scheduler
from repro.runtime.network import LatencySpec, Network
from repro.runtime.process import Process
from repro.scenarios import ExecSpec
from repro.scenarios.__main__ import main as scenarios_main

GONE_MODULES = ["repro.runtime.parallel", "repro.scenarios.executor"]

GONE = [
    (Event, "weight"),
    (Network, "install_groups"),
    (Network, "min_cross_group_delay"),
    (LatencySpec, "min_delay"),
    (ClusterBase, "_group_partition"),
    (Cluster, "_server_shards"),
    (BaselineCluster, "_server_shards"),
    (Scheduler, "peek_time"),
    (ExecSpec, "describe"),
    (ExecSpec, "jobs"),
    (metrics_module, "SpeedupReport"),
    (scenarios, "run_scenarios"),
    (scenarios, "run_repetitions"),
    (rdma_messages, "NewState"),
    (events, "FlushTimer"),
    (Scheduler, "call_at_instant_end"),
    (twopc, "CommandBatch"),
    (VoteIndex, "copy"),
    (type(SerializabilityScheme(KeyHashSharding(["s"])).make_vote_index("s")), "copy"),
    (CoordinatorEntry, "slots"),
    (CoordinatorEntry, "vote_epochs"),
    (twopc.TwoPCCoordinator, "_send_command"),
    (Process, "on_attach"),
    (TransactionDirectory, "get"),
    (CoordinatorEntry, "decided_at"),
    (TxnInfo, "txn"),
]


@pytest.mark.parametrize("module", GONE_MODULES)
def test_the_module_stays_deleted(module):
    assert importlib.util.find_spec(module) is None


@pytest.mark.parametrize(
    "owner,name", GONE, ids=[f"{owner.__name__}.{name}" for owner, name in GONE]
)
def test_the_name_stays_deleted(owner, name):
    assert not hasattr(owner, name)


def test_the_batcher_takes_no_wrap():
    assert "wrap" not in inspect.signature(MessageBatcher.__init__).parameters


def test_the_baseline_coordinator_keeps_no_unsent_queues():
    (coordinator,) = BaselineCluster(num_shards=2).coordinators
    assert not hasattr(coordinator, "_unsent")


def test_cluster_constructor_takes_no_groups():
    assert "groups" not in inspect.signature(ClusterBase.__init__).parameters
    assert not hasattr(Cluster(num_shards=2), "exec_groups")


def test_run_until_takes_no_time_limit_or_check_interval():
    assert list(inspect.signature(Scheduler.run_until).parameters) == [
        "self",
        "predicate",
        "max_events",
    ]


@pytest.mark.parametrize(
    "argv",
    [["run", "steady-state", "bank-transfers"], ["sweep", "steady-state"]],
    ids=["run", "sweep"],
)
def test_the_jobs_flag_is_an_argparse_error(argv, capsys):
    with pytest.raises(SystemExit) as refused:
        scenarios_main(argv + ["--jobs", "2"])
    assert refused.value.code == 2
    assert "error: unrecognized arguments: --jobs 2" in capsys.readouterr().err
