"""tools/bench_pairs.py's summary of alternating benchmark pairs, on synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "items_per_ref_s", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
]


def run(rate, setup, correct=True, rss=30.0):
    return {"correct": correct, "attempted": 10, "failed": 0, "metrics": {
        "items_per_ref_s": {"value": rate, "unit": "1/s"},
        "setup_s": {"value": setup, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }}


def test_quartiles_are_the_exclusive_method():
    assert bench_pairs.quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == {
        "q1": 2.75, "median": 5.5, "q3": 8.25,
    }
    assert bench_pairs.quartiles([3.0]) == {"q1": 3.0, "median": 3.0, "q3": 3.0}


def test_wins_follow_each_metrics_direction_and_ties_count_for_neither():
    parent = [run(100, 0.5), run(100, 0.5), run(100, 0.5)]
    change = [run(120, 0.6), run(100, 0.4), run(90, 0.5)]
    summary = bench_pairs.summarize(parent, change, END_TO_END)
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
    rates = bench_pairs.summarize(parent, change, END_TO_END)["items_per_ref_s"]
    assert rates["change_wins"] == 1
    assert rates["change_runs"] == [None, 130]
    assert rates["change"] == {"q1": 130, "median": 130, "q3": 130}
    empty = bench_pairs.summarize([{}], [{}], END_TO_END)["setup_s"]
    assert empty["parent"] is None and empty["change"] is None and empty["change_wins"] == 0


def test_unpaired_runs_are_rejected():
    with pytest.raises(ValueError, match="pair"):
        bench_pairs.summarize([run(1, 1)], [], END_TO_END)


@pytest.mark.parametrize("rss_growth, flagged", [(1.09, False), (1.11, True)])
def test_a_median_past_its_bound_is_flagged(rss_growth, flagged):
    """peak_rss_mb may grow by 10%: +9% passes and +11% is flagged, while a
    25% faster change flags nothing."""
    parent = [run(100, 0.5, rss=30.0 + k / 10) for k in range(5)]
    change = [run(125, 0.5, rss=(30.0 + k / 10) * rss_growth) for k in range(5)]
    summary = bench_pairs.summarize(parent, change, END_TO_END)
    assert summary["peak_rss_mb"]["past_bound"] is flagged
    assert summary["peak_rss_mb"]["bound"] == 0.1
    assert not summary["items_per_ref_s"]["past_bound"] and not summary["setup_s"]["past_bound"]


def test_a_throughput_loss_past_its_bound_is_flagged():
    """items_per_ref_s is better higher: a 30% drop is past its 25% bound."""
    parent = [run(100 + k, 0.5) for k in range(5)]
    change = [run((100 + k) * 0.7, 0.5) for k in range(5)]
    summary = bench_pairs.summarize(parent, change, END_TO_END)
    assert summary["items_per_ref_s"]["past_bound"]
    assert summary["items_per_ref_s"]["change_wins"] == 0
    assert not summary["setup_s"]["past_bound"] and not summary["peak_rss_mb"]["past_bound"]
    assert not bench_pairs.summarize([{}], [run(1, 1)], END_TO_END)["items_per_ref_s"]["past_bound"]


def test_workload_record_keeps_each_sides_median_wall_time():
    runs = {"parent": [run(100, 0.5), run(100, 0.5), run(100, 0.5)],
            "change": [run(150, 0.5), run(150, 0.5), run(150, 0.5, correct=False)]}
    walls = {"parent": [30.0, 32.0, 31.0], "change": [34.0, 33.5, 40.0]}
    record = bench_pairs.workload_record(0, runs, walls, END_TO_END)
    assert record["median_wall_s"] == {"parent": 31.0, "change": 34.0}
    assert record["all_correct"] is False
    assert record["failed"] == {"parent": 0, "change": 0}
    assert record["metrics"]["items_per_ref_s"]["change_wins"] == 3
