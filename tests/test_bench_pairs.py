import importlib.util
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "round_s", "better": "lower", "bound": 0.25},
    {"name": "peak_alloc_mb", "better": "lower", "bound": 0.1},
    {"name": "points_per_s", "better": "higher", "bound": 0.25},
]


def canned_runs(parent, change, metric="round_s"):
    runs = []
    for seed, (p, c) in enumerate(zip(parent, change)):
        runs.append({"side": "parent", "seed": seed, "metrics": {metric: p}})
        runs.append({"side": "change", "seed": seed, "metrics": {metric: c}})
    return runs


def test_quartiles_follow_statistics_quantiles():
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((1.5, 3.0, 4.5))
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_summary_of_a_clear_gain():
    parent = [0.80, 0.85, 0.78, 0.83, 0.86, 0.79, 0.81, 0.84, 0.82, 0.80]
    change = [0.55, 0.54, 0.56, 0.53, 0.57, 0.55, 0.54, 0.56, 0.55, 0.90]
    s = bench_pairs.summarize(canned_runs(parent, change), END_TO_END)["round_s"]
    assert s["pairs"] == 10
    assert (s["wins"], s["losses"]) == (9, 1)
    assert s["parent"]["median"] == pytest.approx(0.815)
    assert s["change"]["median"] == pytest.approx(0.55)
    assert (s["parent"]["q1"], s["parent"]["q3"]) == pytest.approx((0.7975, 0.8425))
    assert s["parent_iqr"] == pytest.approx(0.045)
    assert s["median_gain"] == pytest.approx(0.265)
    assert s["relative_gain"] == pytest.approx(0.265 / 0.815)
    assert s["gain_claimable"]


def test_ties_count_for_neither_side_and_block_a_claim():
    parent = [1.0, 1.0, 2.0, 3.0]
    change = [1.0, 0.5, 1.0, 2.0]
    s = bench_pairs.summarize(canned_runs(parent, change), END_TO_END)["round_s"]
    assert (s["wins"], s["losses"]) == (3, 0)
    assert not s["gain_claimable"]  # 3 of 4 pairs is below nine tenths


def test_gain_inside_the_parent_spread_is_not_claimable():
    parent = [1.0, 1.4, 0.8, 1.2, 1.1]
    change = [0.95, 1.35, 0.75, 1.15, 1.05]
    s = bench_pairs.summarize(canned_runs(parent, change), END_TO_END)["round_s"]
    assert s["wins"] == 5
    assert s["median_gain"] == pytest.approx(0.05)
    assert not s["gain_claimable"]


def test_higher_is_better_metrics_flip_the_comparison():
    parent = [10.0 + k for k in range(10)]
    runs = canned_runs(parent, [p + 10.0 for p in parent], metric="points_per_s")
    s = bench_pairs.summarize(runs, END_TO_END)["points_per_s"]
    assert s["wins"] == 10
    assert s["median_gain"] == pytest.approx(10.0)
    assert s["gain_claimable"]


def test_fewer_than_ten_pairs_claim_nothing():
    s = bench_pairs.summarize(canned_runs([1.0] * 9, [0.5] * 9), END_TO_END)["round_s"]
    assert s["wins"] == 9
    assert not s["gain_claimable"]


def test_metrics_a_run_lacks_and_unpaired_seeds_are_skipped():
    runs = canned_runs([1.0, 2.0], [0.5, 1.0])
    runs.append({"side": "parent", "seed": 99, "metrics": {"round_s": 5.0}})
    summary = bench_pairs.summarize(runs, END_TO_END)
    assert set(summary) == {"round_s"}
    assert summary["round_s"]["pairs"] == 2


def test_every_change_run_against_every_parent_run():
    # The no-regression reading: every change run better than every parent
    # run, or every one worse, or neither; it holds whatever the bound.
    def reading(parent, change, metric="round_s"):
        runs = canned_runs(parent, change, metric)
        return bench_pairs.summarize(runs, END_TO_END)[metric]["every_change_run"]

    parent = [198.5378, 198.5381, 198.5375, 198.5380, 198.5379]
    assert reading(parent, [p - 0.5 for p in parent], "peak_alloc_mb") == "better"
    assert reading(parent, [p + 0.001 for p in parent], "peak_alloc_mb") == "worse"
    # One change run at the parent's best already overlaps.
    assert reading([1.0, 1.2, 1.1], [0.9, 1.0, 0.8]) == "neither"
    assert reading([1.0, 1.2, 1.1], [1.3, 1.25, 1.21]) == "worse"
    # Higher-is-better metrics flip the comparison.
    assert reading([10.0, 11.0], [12.0, 11.5], "points_per_s") == "better"
    assert reading([10.0, 11.0], [9.0, 9.5], "points_per_s") == "worse"
