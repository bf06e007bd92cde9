"""Replayed state reconstruction and commit-block rollback (t-tilde)."""

import pytest

from repro.core import ABSENT, EffectiveState, ReplayState


def test_writes_build_state():
    state = ReplayState()
    state.apply_write(0, "x", None, 1)
    state.apply_write(1, "y", None, 2)
    state.apply_write(0, "x", 1, 3)
    assert state.get("x") == 3
    assert state.get("y") == 2
    assert state.get("z", "default") == "default"
    assert len(state) == 2


def test_effective_without_blocks_is_raw():
    state = ReplayState()
    state.apply_write(0, "x", None, 1)
    effective = state.effective(0)
    assert effective["x"] == 1
    assert "x" in effective
    assert dict(effective.items_with_prefix("x")) == {"x": 1}


def test_open_block_rolls_back_for_other_threads():
    state = ReplayState()
    state.apply_write(0, "x", None, "committed")
    state.begin_block(1)
    state.apply_write(1, "x", "committed", "provisional")
    # thread 1's own commit sees its writes
    assert state.effective(1)["x"] == "provisional"
    # any other thread's commit sees the pre-block value
    assert state.effective(0)["x"] == "committed"
    assert state.effective(None)["x"] == "committed"
    state.end_block(1)
    # once the block closes, the writes are permanent
    assert state.effective(0)["x"] == "provisional"


def test_rollback_of_first_write_to_fresh_location():
    state = ReplayState()
    state.begin_block(2)
    state.apply_write(2, "fresh", None, 10)
    other = state.effective(0)
    assert "fresh" not in other
    with pytest.raises(KeyError):
        other["fresh"]
    assert other.get("fresh", "absent") == "absent"
    assert state.effective(2)["fresh"] == 10


def test_undo_keeps_oldest_value_across_multiple_writes():
    state = ReplayState()
    state.apply_write(0, "x", None, "original")
    state.begin_block(0)
    state.apply_write(0, "x", "original", "first")
    state.apply_write(0, "x", "first", "second")
    assert state.effective(1)["x"] == "original"
    assert state.effective(0)["x"] == "second"


def test_open_block_locs_excludes_committing_thread():
    state = ReplayState()
    state.begin_block(0)
    state.begin_block(1)
    state.apply_write(0, "a", None, 1)
    state.apply_write(1, "b", None, 2)
    assert state.open_block_locs(excluding_tid=0) == {"b"}
    assert state.open_block_locs(excluding_tid=1) == {"a"}
    assert state.open_block_locs() == {"a", "b"}


def test_nested_block_errors():
    state = ReplayState()
    state.begin_block(0)
    with pytest.raises(ValueError):
        state.begin_block(0)
    state.end_block(0)
    with pytest.raises(ValueError):
        state.end_block(0)


def test_effective_iteration_merges_overlay():
    state = ReplayState()
    state.apply_write(0, "keep", None, 1)
    state.begin_block(1)
    state.apply_write(1, "hidden", None, 2)
    effective = state.effective(0)
    assert set(effective) == {"keep"}
    assert len(effective) == 1
    raw = state.raw()
    assert set(raw) == {"keep", "hidden"}


# -- coarse-grained replay (section 6.2) -----------------------------------------


def test_replay_routine_mutates_state_and_reports_writes():
    def add_pair(target, payload):
        key, value = payload
        target[f"table[{key}]"] = value

    state = ReplayState({"table.add": add_pair})
    written = state.apply_replay(0, "table.add", ("k", 7))
    assert written == {"table[k]"}
    assert state.get("table[k]") == 7


def test_replay_routine_unknown_tag():
    state = ReplayState()
    with pytest.raises(KeyError):
        state.apply_replay(0, "nope", None)


def test_replay_inside_block_is_rolled_back():
    def set_loc(target, payload):
        target["loc"] = payload

    def del_loc(target, payload):
        del target["loc"]

    state = ReplayState({"set": set_loc, "del": del_loc})
    state.apply_replay(0, "set", "before")
    state.begin_block(1)
    state.apply_replay(1, "set", "during")
    assert state.effective(0)["loc"] == "before"
    assert state.effective(1)["loc"] == "during"
    state.end_block(1)

    state.begin_block(2)
    state.apply_replay(2, "del", None)
    assert state.effective(0)["loc"] == "during"
    assert "loc" not in state.effective(2)


def test_effective_fast_path_without_blocks():
    """No open blocks => no overlay is built; semantics are unchanged."""
    state = ReplayState()
    state.apply_write(0, "x", None, 1)
    effective = state.effective(0)
    assert effective.overlay_size == 0
    assert effective["x"] == 1 and len(effective) == 1


def test_effective_fast_path_when_only_own_block_open():
    state = ReplayState()
    state.begin_block(0)
    state.apply_write(0, "x", None, 1)
    # the committing thread's own block never rolls back
    own = state.effective(0)
    assert own.overlay_size == 0
    assert own["x"] == 1
    # ...but anyone else's commit still pays for the rollback overlay
    other = state.effective(1)
    assert other.overlay_size == 1
    assert "x" not in other


def test_fast_path_overlay_is_never_polluted():
    """The shared empty overlay must stay empty across unrelated commits
    with and without blocks in between."""
    state = ReplayState()
    state.apply_write(0, "x", None, 1)
    first = state.effective(0)
    state.begin_block(1)
    state.apply_write(1, "x", 1, 2)
    assert state.effective(0)["x"] == 1  # slow path, rolls back
    state.end_block(1)
    second = state.effective(0)
    assert first.overlay_size == 0 and second.overlay_size == 0
    assert second["x"] == 2


def test_register_replay_after_construction():
    state = ReplayState()
    state.register_replay("touch", lambda target, payload: target.__setitem__("t", payload))
    state.apply_replay(0, "touch", 5)
    assert state.get("t") == 5


@pytest.mark.parametrize(
    "overlay",
    [
        {},  # no open commit block: the base dict alone
        {"m[1]": "old", "m[3]": "older"},  # shadows base keys
        {"m[2]": ABSENT, "x": ABSENT},  # rolls writes back to never-written
        {"m[9]": "gone-now", "n[0]": 5},  # overlay-only keys
        {"m[0]": ABSENT, "m[1]": "old", "m[7]": "new", "y": 0},
    ],
)
@pytest.mark.parametrize("prefix", ["m[", "m", "x", "n[", "", "zz"])
def test_items_with_prefix_matches_mapping_scan(overlay, prefix):
    base = {"m[0]": 0, "x": "x0", "m[1]": 1, "m[2]": 2, "n[0]": 0, "m[3]": 3}
    state = EffectiveState(base, overlay)
    expected = [(k, state[k]) for k in state if k.startswith(prefix)]
    assert list(state.items_with_prefix(prefix)) == expected
