"""Aggregation and table helpers: honest mean, table alignment."""

from repro.harness import fmt, mean, render_table


# -- mean ---------------------------------------------------------------------


def test_mean_skips_none_and_reports_empty_as_none():
    assert mean([1.0, None, 3.0]) == 2.0
    assert mean([None, None]) is None
    assert mean([]) is None
    assert mean(iter([2.0, 4.0])) == 3.0  # any iterable, single pass


# -- table rendering ----------------------------------------------------------


def test_fmt_pads_and_rounds():
    assert fmt(None, width=5) == "    -"
    assert fmt(1.23456, width=8) == "   1.235"
    assert fmt(42, width=4) == "  42"


def test_render_table_right_aligns_numeric_columns_golden():
    table = render_table(
        "golden",
        ("name", "runs", "ms"),
        [
            ("short", 7, 1.5),
            ("a-much-longer-name", 1234, None),
        ],
    )
    assert table == "\n".join([
        "== golden ==",
        "name               | runs | ms   ",
        "-" * 33,
        "short              |    7 | 1.500",
        "a-much-longer-name | 1234 |     -",
    ])


def test_render_table_keeps_string_columns_left_aligned():
    table = render_table(
        "mixed", ("col",), [("x",), (10,)],
    )
    # one string cell makes the whole column textual: everything left-aligned
    lines = table.splitlines()
    assert lines[-1].startswith("10 ") or lines[-1] == "10 "


def test_render_table_all_none_column_stays_left_aligned():
    table = render_table("nones", ("v",), [(None,), (None,)])
    # nothing to align as numbers; the placeholder hugs the left edge
    for line in table.splitlines()[3:]:
        assert line.startswith("-")


def test_render_table_booleans_are_not_numeric():
    table = render_table("flags", ("ok",), [(True,), (False,)])
    assert "True" in table and "False" in table
    assert table.splitlines()[-1].startswith("False")
