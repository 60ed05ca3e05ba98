"""The summary arithmetic of tools/bench_pairs.py on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_parse_seeds():
    assert bench_pairs.parse_seeds("1-3,7,10-11") == [1, 2, 3, 7, 10, 11]
    assert bench_pairs.parse_seeds("104729") == [104729]


def test_quartiles_of_fixed_runs():
    # statistics.quantiles' default (exclusive) method: positions (n+1)/4 and 3(n+1)/4
    q = bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0])
    assert (q["median"], q["q1"], q["q3"]) == (3.0, 1.5, 4.5)
    assert q["runs"] == [4.0, 1.0, 3.0, 2.0, 5.0]
    assert bench_pairs.quartiles([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5, "runs": [2.5]}


def test_summary_of_a_lower_is_better_metric():
    parent = [10.0, 12.0, 11.0, 13.0]
    change = [9.0, 12.0, 10.0, 9.5]
    s = bench_pairs.summarize(parent, change, "lower")
    assert s["change_wins_pairs"] == "3/4"  # the tie in pair 2 counts for neither side
    assert s["parent"]["median"] == 11.5 and s["change"]["median"] == 9.75
    assert (s["parent"]["q1"], s["parent"]["q3"]) == (10.25, 12.75)
    assert s["median_change_rel"] == pytest.approx(-1.75 / 11.5)
    assert s["parent_iqr_rel"] == pytest.approx(2.5 / 11.5)
    assert s["clears_parent_iqr"] is False  # 1.75 apart against a parent Q3 - Q1 of 2.5


def test_summary_of_a_higher_is_better_metric():
    s = bench_pairs.summarize([0.5, 0.5, 0.5], [0.6, 0.6, 0.4], "higher")
    assert s["change_wins_pairs"] == "2/3"
    assert s["median_change_rel"] == pytest.approx(0.2)
    assert s["parent_iqr_rel"] == 0.0
    assert s["clears_parent_iqr"] is True


def test_summary_needs_paired_runs():
    with pytest.raises(ValueError):
        bench_pairs.summarize([1.0, 2.0], [1.0], "lower")
    with pytest.raises(ValueError):
        bench_pairs.summarize([], [], "lower")
