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
