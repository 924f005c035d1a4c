import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _metric(parent: list[float], change: list[float]) -> dict:
    return {"parent": bench_pairs.summary(parent), "change": bench_pairs.summary(change)}


# parent runs 100..109: median 104.5, q1 102.25, q3 106.75, so q3 - q1 = 4.5
PARENT = [100.0 + i for i in range(10)]


@pytest.mark.parametrize("change, beyond, met", [
    # every pair won and the median past q3, yet only 3.5 above the
    # parent's median: short of the IQR width
    ([v + 3.5 for v in PARENT], True, False),
    ([110.0] * 10, True, True),
    # a wide enough gap in the median, yet only 8 of 10 pairs won
    ([110.0] * 8 + [0.0, 0.0], True, False),
    ([90.0] * 10, False, False),
])
def test_claim_rule_needs_nine_tenths_of_the_pairs_and_a_gap_past_the_iqr(change, beyond, met):
    metric = _metric(PARENT, change)
    assert bench_pairs.beyond_iqr(metric, "higher") is beyond
    assert bench_pairs.claim_rule_met(metric, "higher") is met
    # the same runs, negated, where lower is better
    flipped = _metric([-v for v in PARENT], [-v for v in change])
    assert bench_pairs.beyond_iqr(flipped, "lower") is beyond
    assert bench_pairs.claim_rule_met(flipped, "lower") is met
