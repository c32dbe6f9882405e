"""Unit tests for core protocol types."""

from dataclasses import fields

import pytest

from repro.core.messages import CsReply
from repro.core.types import (
    BOTTOM,
    GLOBAL_SHARD,
    Configuration,
    Decision,
    GlobalConfiguration,
    Phase,
    Status,
)
from repro.runtime.wire import wire_size


def test_decision_meet_operator():
    assert Decision.COMMIT.meet(Decision.COMMIT) is Decision.COMMIT
    assert Decision.COMMIT.meet(Decision.ABORT) is Decision.ABORT
    assert Decision.ABORT.meet(Decision.COMMIT) is Decision.ABORT
    assert Decision.ABORT.meet(Decision.ABORT) is Decision.ABORT


def test_decision_and_operator_is_meet():
    assert (Decision.COMMIT & Decision.ABORT) is Decision.ABORT
    assert (Decision.COMMIT & Decision.COMMIT) is Decision.COMMIT


def test_meet_all_empty_is_commit():
    assert Decision.meet_all([]) is Decision.COMMIT


def test_meet_all_aborts_if_any_abort():
    assert Decision.meet_all([Decision.COMMIT, Decision.ABORT, Decision.COMMIT]) is Decision.ABORT
    assert Decision.meet_all([Decision.COMMIT] * 5) is Decision.COMMIT


def test_bottom_is_a_singleton_with_repr():
    from repro.core.types import _Bottom

    assert _Bottom() is BOTTOM
    assert repr(BOTTOM) == "⊥"


def test_configuration_leader_must_be_member():
    with pytest.raises(ValueError):
        Configuration(epoch=1, members=("a", "b"), leader="c")


def test_configuration_rejects_duplicate_members():
    with pytest.raises(ValueError):
        Configuration(epoch=1, members=("a", "a"), leader="a")


def test_configuration_followers():
    config = Configuration(epoch=1, members=("a", "b", "c"), leader="b")
    assert config.followers == ("a", "c")


def test_global_configuration_validates_leaders():
    with pytest.raises(ValueError):
        GlobalConfiguration(epoch=1, members={"s": ("a",)}, leaders={"s": "b"})


def test_global_configuration_queries():
    config = GlobalConfiguration(
        epoch=2,
        members={"s0": ("a", "b"), "s1": ("c", "d")},
        leaders={"s0": "a", "s1": "c"},
    )
    assert set(config.all_processes()) == {"a", "b", "c", "d"}
    slices = config.by_shard(GLOBAL_SHARD)
    assert [shard for shard, each in slices.items() if "d" in each.members] == ["s1"]
    assert not any("zz" in each.members for each in slices.values())
    assert slices["s0"].followers == ("b",)
    assert slices["s1"] == Configuration(epoch=2, members=("c", "d"), leader="c")


def test_configuration_followers_are_cached_but_not_a_field():
    """``followers`` is computed once per record, and is no dataclass field:
    the wire sizer counts fields, and a ``CsReply`` carries a record."""
    def record():
        return Configuration(epoch=1, members=("a", "b", "c"), leader="b")

    cached = record()
    assert cached.followers == ("a", "c") and cached.followers is cached.followers
    assert "followers" not in {each.name for each in fields(Configuration)}
    assert cached == record()
    sizes = {wire_size(CsReply(1, ok=True, config=each)) for each in (record(), cached)}
    assert len(sizes) == 1


def test_enums_have_expected_values():
    assert Phase.START.value == "start"
    assert Phase.PREPARED.value == "prepared"
    assert Phase.DECIDED.value == "decided"
    assert Status.LEADER.value == "leader"
    assert Status.FOLLOWER.value == "follower"
    assert Status.RECONFIGURING.value == "reconfiguring"
