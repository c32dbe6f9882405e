"""Unit tests for core protocol types."""

import pytest

from repro.core.types import (
    BOTTOM,
    Configuration,
    Decision,
    GlobalConfiguration,
    Phase,
    Status,
)


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
    assert config.shard_of("d") == "s1"
    assert config.shard_of("zz") is None
    assert config.followers("s0") == ("b",)


def test_enums_have_expected_values():
    assert Phase.START.value == "start"
    assert Phase.PREPARED.value == "prepared"
    assert Phase.DECIDED.value == "decided"
    assert Status.LEADER.value == "leader"
    assert Status.FOLLOWER.value == "follower"
    assert Status.RECONFIGURING.value == "reconfiguring"
