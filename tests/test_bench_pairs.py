"""The verdicts of scripts/bench_pairs.py on fixed paired samples."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))

from bench_pairs import main, verdict  # noqa: E402

# parent quartiles 99.375..100.625 (IQR 1.25) around a median of 100
PARENT = [98.0, 99.0, 99.5, 100.0, 100.0, 100.0, 100.0, 100.5, 101.0, 102.0]


def test_nine_of_ten_wins_with_a_gap_above_the_iqr_is_a_claim():
    change = [p + 5.0 for p in PARENT[:9]] + [PARENT[9] - 1.0]
    v = verdict(PARENT, change, "higher", 0.25)
    assert (v["wins"], v["pairs"]) == (9, 10)
    assert v["gain"] > v["parent_iqr"] == pytest.approx(1.25)
    assert v["claim"] and v["regression"] == "ok"


def test_a_change_with_more_failed_units_is_not_a_claim():
    change = [p + 5.0 for p in PARENT]
    assert verdict(PARENT, change, "higher", 0.25, parent_failed=1, change_failed=1)["claim"]
    v = verdict(PARENT, change, "higher", 0.25, parent_failed=0, change_failed=1)
    assert v["wins"] == 10 and v["gain"] > v["parent_iqr"]
    assert not v["claim"] and v["failed"] == (0, 1)


def test_workload_all_is_rejected_before_any_run(capsys):
    # perfbench names each metric "<workload>.<metric>" for --workload all
    with pytest.raises(SystemExit) as exc:
        main(["--parent", "HEAD", "--workload", "all", "--pairs", "1"])
    assert exc.value.code == 2 and "one workload" in capsys.readouterr().err


def test_eight_of_ten_wins_is_not_a_claim():
    change = [p + 5.0 for p in PARENT[:8]] + [p - 1.0 for p in PARENT[8:]]
    v = verdict(PARENT, change, "higher", 0.25)
    assert v["wins"] == 8 and v["gain"] > v["parent_iqr"]
    assert not v["claim"]


def test_a_gap_inside_the_parent_iqr_is_not_a_claim():
    v = verdict(PARENT, [p + 1.0 for p in PARENT], "higher", 0.25)
    assert v["wins"] == 10 and 0 < v["gain"] < v["parent_iqr"]
    assert not v["claim"]


def test_lower_is_better_counts_decreases():
    v = verdict(PARENT, [p - 5.0 for p in PARENT], "lower", 0.25)
    assert v["wins"] == 10 and v["claim"] and v["regression"] == "ok"


@pytest.mark.parametrize("better,change,expected", [
    ("higher", 70.0, "REGRESSED"), ("higher", 80.0, "ok"),
    ("lower", 130.0, "REGRESSED"), ("lower", 120.0, "ok"),
])
def test_a_metric_worse_than_its_bound_is_flagged(better, change, expected):
    v = verdict(PARENT, [change] * len(PARENT), better, 0.25)
    assert v["regression"] == expected and not v["claim"]


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    parent = [80.0, 90.0, 100.0, 110.0, 120.0]  # IQR 30% of the median
    assert verdict(parent, [60.0] * 5, "higher", 0.25)["regression"] == "unresolved"
    assert verdict(parent, [115.0] * 5, "higher", 0.25)["regression"] == "unresolved"
    # unless every run of the change reads better than every run of the parent
    assert verdict(parent, [121.0] * 5, "higher", 0.25)["regression"] == "ok"
    assert verdict(parent, [79.0] * 5, "lower", 0.25)["regression"] == "ok"


def test_unpaired_samples_are_rejected():
    with pytest.raises(ValueError):
        verdict([1.0, 2.0], [1.0], "higher", 0.1)
