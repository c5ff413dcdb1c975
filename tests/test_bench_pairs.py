"""tools/bench_pairs.py's summary of alternating benchmark pairs, on synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

BETTER = {"items_per_ref_s": "higher", "setup_s": "lower"}


def run(rate, setup, correct=True):
    return {"correct": correct, "attempted": 10, "failed": 0, "metrics": {
        "items_per_ref_s": {"value": rate, "unit": "1/s"},
        "setup_s": {"value": setup, "unit": "s"},
    }}


def test_quartiles_are_the_exclusive_method():
    assert bench_pairs.quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == {
        "q1": 2.75, "median": 5.5, "q3": 8.25,
    }
    assert bench_pairs.quartiles([3.0]) == {"q1": 3.0, "median": 3.0, "q3": 3.0}


def test_wins_follow_each_metrics_direction_and_ties_count_for_neither():
    parent = [run(100, 0.5), run(100, 0.5), run(100, 0.5)]
    change = [run(120, 0.6), run(100, 0.4), run(90, 0.5)]
    summary = bench_pairs.summarize(parent, change, BETTER)
    assert summary["items_per_ref_s"]["change_wins"] == 1
    assert summary["setup_s"]["change_wins"] == 1
    rates = summary["items_per_ref_s"]
    assert rates["better"] == "higher" and rates["pairs"] == 3
    assert rates["parent_runs"] == [100, 100, 100]
    assert rates["change_runs"] == [120, 100, 90]
    assert rates["change"] == {"q1": 90, "median": 100, "q3": 120}


def test_a_run_with_no_result_wins_nothing_and_is_kept_as_none():
    parent = [run(100, 0.5), run(100, 0.5)]
    change = [{}, run(130, 0.4)]
    rates = bench_pairs.summarize(parent, change, BETTER)["items_per_ref_s"]
    assert rates["change_wins"] == 1
    assert rates["change_runs"] == [None, 130]
    assert rates["change"] == {"q1": 130, "median": 130, "q3": 130}
    empty = bench_pairs.summarize([{}], [{}], BETTER)["setup_s"]
    assert empty["parent"] is None and empty["change"] is None and empty["change_wins"] == 0


def test_unpaired_runs_are_rejected():
    with pytest.raises(ValueError, match="pair"):
        bench_pairs.summarize([run(1, 1)], [], BETTER)
