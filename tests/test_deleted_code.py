"""Code that was deleted stays deleted.

Two designs left the tree, and nothing may grow back by accident:

* the windowed shard-group engine (a run partitioned into groups of
  shards on their own heaps): a run executes on the one serial event heap;
* the process pool that fanned whole runs out over worker processes, with
  its ``--jobs`` flag and ``ExecSpec.jobs``: every run executes serially,
  in the process that asked for it.
"""

import importlib.util
import inspect

import pytest

import repro.scenarios as scenarios
from repro.analysis import metrics as metrics_module
from repro.baselines.cluster import BaselineCluster
from repro.cluster import Cluster, ClusterBase
from repro.runtime.events import Event, Scheduler
from repro.runtime.network import LatencySpec, Network
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
]


@pytest.mark.parametrize("module", GONE_MODULES)
def test_the_module_stays_deleted(module):
    assert importlib.util.find_spec(module) is None


@pytest.mark.parametrize(
    "owner,name", GONE, ids=[f"{owner.__name__}.{name}" for owner, name in GONE]
)
def test_the_name_stays_deleted(owner, name):
    assert not hasattr(owner, name)


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
