"""The comparison arithmetic of tools/decision_diff.py on fixed numbers."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
sys.path.insert(0, str(TOOLS))  # decision_diff imports bench_pairs from its own directory
_spec = importlib.util.spec_from_file_location("decision_diff", TOOLS / "decision_diff.py")
decision_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(decision_diff)


def record(scores, objective, iterations=(3, 4), gaps=(1e-9, 2e-8), live=(1, 2), stored=(1, 2), train_s=0.5,
           peak_mib=10.0):
    return {"scores": scores, "objective": list(objective), "iterations": list(iterations),
            "gaps": list(gaps), "live_atoms": list(live), "stored_atoms": list(stored), "train_s": train_s,
            "peak_mib": peak_mib}


def test_relative_change_of_fixed_scores():
    parent = [[2.0, -4.0], [1.0, 0.5]]
    change = [[2.0, -4.0 + 2e-12], [1.0 - 1e-12, 0.5]]
    # the largest |change - parent| over the largest |parent|
    assert decision_diff.relative_change(parent, change) == pytest.approx(2e-12 / 4.0, rel=1e-3)
    assert decision_diff.relative_change(parent, parent) == 0.0
    assert decision_diff.relative_change([[0.0]], [[1.0]]) == 0.0
    with pytest.raises(ValueError, match="shape"):
        decision_diff.relative_change([1.0, 2.0], [1.0])


def test_max_objective_change_is_per_class():
    # class 1 moves by 1e-3 of 10, class 2 by 1e-3 of 0.5
    assert decision_diff.max_objective_change([10.0, 0.5], [10.001, 0.501]) == pytest.approx(2e-3)


def test_compare_keeps_both_sides():
    parent = record(np.ones((2, 2)).tolist(), [5.0, 4.0])
    change = record(np.full((2, 2), 1.5).tolist(), [5.0, 4.0], iterations=(3, 5), live=(1, 1), stored=(1, 1),
                    train_s=0.25)
    s = decision_diff.compare(parent, change)
    assert s["decision_rel"] == 0.5 and s["objective_rel"] == 0.0
    assert s["same_iterations"] is False
    assert (s["iterations_parent"], s["iterations_change"]) == ([3, 4], [3, 5])
    assert (s["stored_atoms_parent"], s["stored_atoms_change"]) == ([1, 2], [1, 1])
    text = decision_diff.render("fixed", s)
    assert "max |df| / max |f| 5.00e-01" in text and "(differ)" in text
    assert "predicted-class changes 0 of 2 rows" in text
    # each side's training seconds, as its worker timed them
    assert (s["train_s_parent"], s["train_s_change"]) == (0.5, 0.25)
    assert "training seconds parent 0.500 change 0.250" in text


def test_class_changes_count_rows_whose_argmax_moves():
    # three rows, three classes: only row 1 moves its argmax (column 0 to 2);
    # row 2's scores move but its argmax does not
    parent = [[0.1, -1.0, -2.0], [0.5, 0.0, 0.4], [-1.0, 2.0, 0.0]]
    change = [[0.1, -1.0, -2.0], [0.5, 0.0, 0.6], [-1.0, 1.5, 0.5]]
    assert decision_diff.class_changes(parent, change) == 1
    assert decision_diff.class_changes(parent, parent) == 0
    s = decision_diff.compare(record(parent, [5.0, 4.0]), record(change, [5.0, 4.0]))
    assert "predicted-class changes 1 of 3 rows" in decision_diff.render("fixed", s)


def test_compare_keeps_each_sides_traced_peak():
    parent = record(np.ones((2, 2)).tolist(), [5.0, 4.0], peak_mib=37.7)
    change = record(np.ones((2, 2)).tolist(), [5.0, 4.0], peak_mib=34.52)
    s = decision_diff.compare(parent, change)
    assert (s["peak_mib_parent"], s["peak_mib_change"]) == (37.7, 34.52)
    assert "traced peak MiB parent 37.7 change 34.5" in decision_diff.render("fixed", s)


def test_worker_traces_a_second_training(monkeypatch):
    # the worker on this tree and one tiny configuration: it times one
    # training and reports the tracemalloc peak of another, which holds at
    # least the two domain Grams of 48 source and 24 target rows (6 classes)
    monkeypatch.setattr(decision_diff, "CONFIGS", {"tiny": (8, 4, {"t_max": 2})})
    rec = decision_diff.train_side(decision_diff.REPO)["tiny"]
    assert rec["train_s"] > 0
    assert rec["peak_mib"] >= 8 * (48**2 + 24**2) / 2**20
