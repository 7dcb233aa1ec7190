"""The arithmetic of tools/ab.py, the paired benchmark comparison, on
fixed lists."""

import importlib.util
import math
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab.py"
_SPEC = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)


def test_medians_quartiles_and_wins():
    # pair 2 is a tie and counts for neither side; pair 3 the parent won
    s = ab.summarise([1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 2.0, 3.5, 3.0, 4.0],
                     0.2)
    assert (s["parent"], s["iqr"], s["change"], s["rel"], s["won"]) == (
        3.0, 2.0, 3.0, 0.0, 3)
    assert s["verdict"] == "unresolved"  # IQR 2/3 of the median > 20%
    assert s["change_iqr"] == 1.5  # quartiles 2.0 and 3.5


@pytest.mark.parametrize("change, bound, rel, verdict", [
    ([12.0, 12.0, 12.0, 12.0], 0.1, 0.2, "worse"),
    ([12.0, 12.0, 12.0, 12.0], 0.25, 0.2, "within"),
    ([10.0, 10.0, 10.0, 10.0], 0.0, 0.0, "within"),
    ([8.0, 9.0, 11.0, 12.0], 0.1, 0.0, "within"),
], ids=["worse", "inside-bound", "equal", "spread-change"])
def test_verdict_against_bound(change, bound, rel, verdict):
    s = ab.summarise([10.0, 10.0, 10.0, 10.0], change, bound)
    assert s["iqr"] == 0.0
    assert s["rel"] == pytest.approx(rel)
    assert s["verdict"] == verdict
    assert s["won"] == sum(c < 10.0 for c in change)


def test_one_pair_and_zero_median():
    s = ab.summarise([2.0], [1.0], 0.2)
    assert (s["iqr"], s["change_iqr"], s["rel"], s["won"], s["verdict"]) == (
        0.0, 0.0, -0.5, 1, "within")
    s = ab.summarise([0.0, 0.0], [0.0, 1.0], 0.2)
    assert math.isnan(s["rel"]) and s["verdict"] == "unresolved"



@pytest.mark.parametrize("change, gain", [
    ([5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 21.0], True),
    ([5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 21.0, 22.0], False),
    ([5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 19.0, 21.0], False),
    ([10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0], False),
], ids=["nine-tenths", "eight-tenths", "tie", "inside-iqr"])
def test_gain_needs_nine_tenths_and_more_than_the_iqr(change, gain):
    # parent 11..20: median 15.5, IQR 4.5.  The first three changes sit
    # 6.0 below at the median and win 9, 8 and 8 pairs (the third ties one,
    # which counts for neither side); the last wins all 10 pairs but sits
    # only 1.0 below, inside the parent's IQR
    s = ab.summarise([11.0 + i for i in range(10)], change, 0.5)
    assert s["iqr"] == 4.5
    assert s["gain"] is gain


@pytest.mark.parametrize("change, verdict, gain", [
    ([1.0, 2.0, 3.0, 4.0], "within", True),
    ([9.0, 15.0, 25.0, 35.0], "unresolved", False),
], ids=["every-run-better", "every-pair-won"])
def test_spread_parent_resolved_only_when_every_change_run_is_better(
        change, verdict, gain):
    # the parent's IQR is 60% of its median, past the 20% bound; the
    # second change wins every pair but its slowest run is slower than the
    # parent's fastest
    s = ab.summarise([10.0, 20.0, 30.0, 40.0], change, 0.2)
    assert s["iqr"] / s["parent"] == pytest.approx(0.6)
    assert s["won"] == 4
    assert (s["verdict"], s["gain"]) == (verdict, gain)
