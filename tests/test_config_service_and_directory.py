"""Unit tests for the configuration service and the transaction directory."""

from dataclasses import dataclass

import pytest

from repro.configservice.service import ConfigurationService
from repro.core.directory import TransactionDirectory
from repro.core.messages import (
    ConfigChange,
    CsCompareAndSwap,
    CsGet,
    CsGetLast,
    CsLeaseGrant,
    CsLeaseRequest,
    CsReply,
    CsViewChange,
    SuspicionReport,
)
from repro.core.types import Configuration, GlobalConfiguration
from repro.runtime.events import Scheduler
from repro.runtime.network import Network
from repro.runtime.process import Process


class Recorder(Process):
    """Collects every message it receives."""

    def __init__(self, pid):
        super().__init__(pid)
        self.messages = []

    def handle(self, message, sender):
        self.messages.append((message, sender))


def build_cs():
    scheduler = Scheduler()
    network = Network(scheduler)
    cs = ConfigurationService()
    network.register(cs)
    requester = Recorder("requester")
    network.register(requester)
    return scheduler, network, cs, requester


def replies_of(recorder):
    return [m for m, _ in recorder.messages if isinstance(m, CsReply)]


def test_get_last_returns_installed_configuration():
    scheduler, network, cs, requester = build_cs()
    config = Configuration(epoch=1, members=("a", "b"), leader="a")
    cs.install_initial("s0", config)
    requester.send(cs.pid, CsGetLast(shard="s0", request_id=1))
    scheduler.run()
    reply = replies_of(requester)[0]
    assert reply.ok and reply.config == config


def test_get_last_unknown_shard_not_ok():
    scheduler, network, cs, requester = build_cs()
    requester.send(cs.pid, CsGetLast(shard="nope", request_id=1))
    scheduler.run()
    assert not replies_of(requester)[0].ok


def test_get_specific_epoch():
    scheduler, network, cs, requester = build_cs()
    c1 = Configuration(epoch=1, members=("a", "b"), leader="a")
    cs.install_initial("s0", c1)
    c2 = Configuration(epoch=2, members=("b", "c"), leader="b")
    requester.send(cs.pid, CsCompareAndSwap(shard="s0", expected_epoch=1, config=c2, request_id=1))
    scheduler.run()
    requester.send(cs.pid, CsGet(shard="s0", epoch=1, request_id=2))
    requester.send(cs.pid, CsGet(shard="s0", epoch=2, request_id=3))
    requester.send(cs.pid, CsGet(shard="s0", epoch=3, request_id=4))
    scheduler.run()
    replies = {r.request_id: r for r in replies_of(requester)}
    assert replies[2].config == c1
    assert replies[3].config == c2
    assert not replies[4].ok


def test_compare_and_swap_succeeds_only_on_matching_epoch():
    scheduler, network, cs, requester = build_cs()
    cs.install_initial("s0", Configuration(epoch=1, members=("a",), leader="a"))
    good = Configuration(epoch=2, members=("b",), leader="b")
    stale = Configuration(epoch=3, members=("c",), leader="c")
    requester.send(cs.pid, CsCompareAndSwap(shard="s0", expected_epoch=1, config=good, request_id=1))
    requester.send(cs.pid, CsCompareAndSwap(shard="s0", expected_epoch=1, config=stale, request_id=2))
    scheduler.run()
    replies = {r.request_id: r for r in replies_of(requester)}
    assert replies[1].ok
    assert not replies[2].ok
    assert cs.last_configuration("s0") == good
    assert cs.cas_attempts == 2 and cs.cas_successes == 1


def test_compare_and_swap_requires_higher_epoch():
    scheduler, network, cs, requester = build_cs()
    cs.install_initial("s0", Configuration(epoch=5, members=("a",), leader="a"))
    same_epoch = Configuration(epoch=5, members=("b",), leader="b")
    requester.send(
        cs.pid, CsCompareAndSwap(shard="s0", expected_epoch=5, config=same_epoch, request_id=1)
    )
    scheduler.run()
    assert not replies_of(requester)[0].ok


def test_successful_cas_broadcasts_config_change_to_other_shards():
    scheduler, network, cs, requester = build_cs()
    cs.install_initial("s0", Configuration(epoch=1, members=("a", "b"), leader="a"))
    other_member = Recorder("x")
    network.register(other_member)
    cs.install_initial("s1", Configuration(epoch=1, members=("x",), leader="x"))
    new_config = Configuration(epoch=2, members=("b", "c"), leader="b")
    requester.send(
        cs.pid, CsCompareAndSwap(shard="s0", expected_epoch=1, config=new_config, request_id=1)
    )
    scheduler.run()
    changes = [m for m, _ in other_member.messages if isinstance(m, ConfigChange)]
    assert len(changes) == 1
    assert changes[0].shard == "s0" and changes[0].epoch == 2 and changes[0].leader == "b"


def test_global_configuration_service_cas_and_get():
    scheduler = Scheduler()
    network = Network(scheduler)
    cs = ConfigurationService()
    network.register(cs)
    requester = Recorder("requester")
    network.register(requester)
    initial = GlobalConfiguration(epoch=1, members={"s0": ("a",)}, leaders={"s0": "a"})
    cs.install_initial("*", initial)
    new = GlobalConfiguration(epoch=2, members={"s0": ("b",)}, leaders={"s0": "b"})
    requester.send(cs.pid, CsCompareAndSwap(shard="*", expected_epoch=1, config=new, request_id=1))
    requester.send(cs.pid, CsGetLast(shard="*", request_id=2))
    requester.send(cs.pid, CsGet(shard="*", epoch=1, request_id=3))
    scheduler.run()
    replies = {r.request_id: r for r in replies_of(requester)}
    assert replies[1].ok
    assert replies[2].config == new
    assert replies[3].config == initial
    # A CAS against a stale epoch fails.
    requester.send(cs.pid, CsCompareAndSwap(shard="*", expected_epoch=1, config=new, request_id=4))
    scheduler.run()
    assert not {r.request_id: r for r in replies_of(requester)}[4].ok


def build_global_cs():
    """A service holding one system-wide record under ``"*"``; every member
    is a Recorder so what the service sends it can be inspected."""
    scheduler = Scheduler()
    network = Network(scheduler)
    cs = ConfigurationService()
    network.register(cs)
    initial = GlobalConfiguration(
        epoch=1,
        members={"shard-1": ("x", "y"), "shard-0": ("a", "b", "c")},
        leaders={"shard-1": "x", "shard-0": "a"},
    )
    cs.install_initial("*", initial)
    procs = {pid: Recorder(pid) for pid in ("a", "b", "c", "x", "y", "outsider")}
    for proc in procs.values():
        network.register(proc)
    return scheduler, cs, initial, procs


def received(recorder, kind):
    return [m for m, _ in recorder.messages if isinstance(m, kind)]


@pytest.mark.parametrize(
    "requester, shard, epoch, granted",
    [
        ("a", "shard-0", 1, True),  # leaders[shard] at the matching epoch
        ("x", "shard-1", 1, True),
        ("b", "shard-0", 1, False),  # a member, but not the leader
        ("a", "shard-0", 0, False),  # stale epoch
        ("a", "shard-1", 1, False),  # leader of another shard
        ("a", "shard-9", 1, False),  # unknown shard
    ],
)
def test_lease_against_a_global_record(requester, shard, epoch, granted):
    scheduler, cs, _initial, procs = build_global_cs()
    procs[requester].send(
        cs.pid, CsLeaseRequest(shard=shard, duration=5.0, request_id=1, epoch=epoch)
    )
    scheduler.run()
    (grant,) = received(procs[requester], CsLeaseGrant)
    assert grant.ok is granted
    assert grant.expires_at == (6.0 if granted else float("-inf"))


def test_lease_refused_for_a_leader_deposed_by_a_newer_global_record():
    scheduler, cs, _initial, procs = build_global_cs()
    new = GlobalConfiguration(
        epoch=2,
        members={"shard-0": ("b", "c"), "shard-1": ("x", "y")},
        leaders={"shard-0": "b", "shard-1": "x"},
    )
    procs["b"].send(cs.pid, CsCompareAndSwap(shard="*", expected_epoch=1, config=new, request_id=1))
    scheduler.run()
    for requester, epoch in (("a", 1), ("a", 2), ("b", 2)):
        procs[requester].send(
            cs.pid, CsLeaseRequest(shard="shard-0", duration=5.0, request_id=2, epoch=epoch)
        )
    scheduler.run()
    assert [g.ok for g in received(procs["a"], CsLeaseGrant)] == [False, False]
    assert [g.ok for g in received(procs["b"], CsLeaseGrant)] == [True]


def test_suspicion_against_a_global_record_goes_to_that_shards_first_survivor():
    scheduler, cs, initial, procs = build_global_cs()
    # A non-member's report, and a report about a non-member, are ignored.
    procs["outsider"].send(cs.pid, SuspicionReport(shard="shard-0", epoch=1, suspect="a"))
    procs["x"].send(cs.pid, SuspicionReport(shard="shard-0", epoch=1, suspect="a"))
    procs["b"].send(cs.pid, SuspicionReport(shard="shard-0", epoch=1, suspect="x"))
    procs["b"].send(cs.pid, SuspicionReport(shard="shard-0", epoch=0, suspect="a"))  # stale
    scheduler.run()
    assert cs.suspicion_reports == 0 and cs.view_changes == 0
    # A confirmed one: shard-0's leader is suspected, so its first survivor
    # (configuration order) drives the change — not shard-1's, which the
    # record lists first.
    procs["c"].send(cs.pid, SuspicionReport(shard="shard-0", epoch=1, suspect="a"))
    scheduler.run()
    assert cs.suspicion_reports == 1 and cs.view_changes == 1
    (change,) = received(procs["b"], CsViewChange)
    # The order carries the record acted on: the global one, which a
    # get_last of the reconfiguration key would return.
    assert change == CsViewChange(shard="shard-0", epoch=1, config=initial, suspects=("a",))
    assert not any(received(procs[p], CsViewChange) for p in ("a", "c", "x", "y"))


def test_install_log_gains_one_row_per_shard_of_a_global_record_in_sorted_order():
    scheduler, cs, _initial, procs = build_global_cs()
    assert cs.install_log == [(0.0, "shard-0", 1), (0.0, "shard-1", 1)]
    new = GlobalConfiguration(
        epoch=2,
        members={"shard-1": ("x",), "shard-0": ("b", "c")},
        leaders={"shard-1": "x", "shard-0": "b"},
    )
    cs.subscribe("outsider")
    procs["b"].send(cs.pid, CsCompareAndSwap(shard="*", expected_epoch=1, config=new, request_id=1))
    scheduler.run()
    assert cs.install_log[2:] == [(1.0, "shard-0", 2), (1.0, "shard-1", 2)]
    # Subscribers get one CONFIG_CHANGE per shard, in the same order; the
    # members do not (they learn the record from CONFIG_PREPARE).
    changes = received(procs["outsider"], ConfigChange)
    assert [(c.shard, c.epoch, c.leader) for c in changes] == [
        ("shard-0", 2, "b"),
        ("shard-1", 2, "x"),
    ]
    assert not any(received(procs[p], ConfigChange) for p in ("a", "b", "c", "x", "y"))


def test_client_get_last_of_one_shard_is_answered_with_the_global_record():
    scheduler, cs, initial, procs = build_global_cs()
    procs["outsider"].send(cs.pid, CsGetLast(shard="shard-0", request_id=7))
    scheduler.run()
    (reply,) = received(procs["outsider"], CsReply)
    assert reply.ok and reply.config == initial
    assert cs.shard_configuration("shard-1") == Configuration(1, ("x", "y"), "x")
    assert cs.shard_configuration("shard-9") is None


# ----------------------------------------------------------------------
# transaction directory
# ----------------------------------------------------------------------
def test_directory_register_and_query():
    directory = TransactionDirectory()
    directory.register("t1", client="client-0", shards=["s0", "s1"])
    assert directory.known("t1")
    assert directory.client_of("t1") == "client-0"
    assert directory.shards_of("t1") == frozenset({"s0", "s1"})
    assert len(directory) == 1
    assert not directory.known("missing")


def test_directory_idempotent_registration():
    directory = TransactionDirectory()
    directory.register("t1", client="c", shards=["s0"])
    directory.register("t1", client="c", shards=["s0"])
    assert len(directory) == 1


def test_directory_rejects_conflicting_registration():
    directory = TransactionDirectory()
    directory.register("t1", client="c", shards=["s0"])
    with pytest.raises(ValueError):
        directory.register("t1", client="other", shards=["s0"])


def test_directory_shares_one_record_per_client_and_shard_set():
    """Transactions of one client over one shard set share a record (and
    its shard set); the transaction itself is only the key."""
    directory = TransactionDirectory()
    first = directory.register("t1", client="c", shards=["s0", "s1"])
    assert directory.register("t2", client="c", shards=("s1", "s0")) is first
    other = directory.register("t3", client="d", shards={"s0", "s1"})
    assert other is not first and other.shards is first.shards
    assert directory.register("t4", client="c", shards=["s0"]) is not first
    assert not hasattr(first, "txn")
    with pytest.raises(ValueError):
        directory.register("t2", client="c", shards=["s0"])
