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
    s = bench_pairs.summarize(parent, change, "lower", 0.25)
    assert s["change_wins_pairs"] == "3/4"  # the tie in pair 2 counts for neither side
    assert s["parent"]["median"] == 11.5 and s["change"]["median"] == 9.75
    assert (s["parent"]["q1"], s["parent"]["q3"]) == (10.25, 12.75)
    assert s["median_change_rel"] == pytest.approx(-1.75 / 11.5)
    assert s["parent_iqr_rel"] == pytest.approx(2.5 / 11.5)
    assert s["clears_parent_iqr"] is False  # 1.75 apart against a parent Q3 - Q1 of 2.5
    assert s["verdict"] == "within_bound"  # spread 0.217 within the 0.25 bound, and the median fell


def test_summary_of_a_higher_is_better_metric():
    s = bench_pairs.summarize([0.5, 0.5, 0.5], [0.6, 0.6, 0.4], "higher", 0.05)
    assert s["change_wins_pairs"] == "2/3"
    assert s["median_change_rel"] == pytest.approx(0.2)
    assert s["parent_iqr_rel"] == 0.0
    assert s["clears_parent_iqr"] is True
    assert s["verdict"] == "within_bound"


def test_summary_needs_paired_runs():
    with pytest.raises(ValueError):
        bench_pairs.summarize([1.0, 2.0], [1.0], "lower", 0.25)
    with pytest.raises(ValueError):
        bench_pairs.summarize([], [], "lower", 0.25)


@pytest.mark.parametrize("parent, change, better, bound, want", [
    # parent spread (Q3 - Q1) / median = 2.5 / 11.5 = 0.217
    ([10.0, 12.0, 11.0, 13.0], [10.0, 12.5, 11.5, 13.0], "lower", 0.25, "within_bound"),
    ([10.0, 12.0, 11.0, 13.0], [14.0, 15.0, 14.5, 16.0], "lower", 0.25, "worse"),  # median +28% > 0.25
    ([10.0, 12.0, 11.0, 13.0], [10.0, 12.5, 11.5, 13.0], "lower", 0.1, "unresolved"),
    # a spread wider than the bound, but every change run beats every parent run
    ([10.0, 12.0, 11.0, 13.0], [5.0, 6.0, 5.5, 9.9], "lower", 0.1, "within_bound"),
    # higher is better: a 10% lower median against a 0.05 bound, from a tight parent
    ([0.8, 0.8, 0.8, 0.8], [0.72, 0.72, 0.72, 0.9], "higher", 0.05, "worse"),
    ([0.8, 0.8, 0.8, 0.8], [0.79, 0.78, 0.8, 0.9], "higher", 0.05, "within_bound"),
])
def test_verdict_against_the_bound(parent, change, better, bound, want):
    assert bench_pairs.summarize(parent, change, better, bound)["verdict"] == want
