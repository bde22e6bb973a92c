import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

LOWER = {"name": "trial_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25}
HIGHER = {"name": "trials_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}


@pytest.mark.parametrize("metric,change,within", [
    # parent median 4.0: a lower-is-better metric may rise to 5.0, a
    # higher-is-better one fall to 3.0
    (LOWER, [4.8, 5.0, 5.2], True),
    (LOWER, [5.0, 5.1, 5.2], False),
    (LOWER, [1.0, 1.0, 1.0], True),
    (HIGHER, [2.8, 3.0, 3.2], True),
    (HIGHER, [2.8, 2.9, 3.2], False),
    (HIGHER, [9.0, 9.0, 9.0], True),
])
def test_summarize_within_bound(metric, change, within):
    s = bench_pairs.summarize(metric, [3.0, 4.0, 5.0], change)
    assert s["parent_median"] == 4.0 and s["bound"] == 0.25
    assert s["within_bound"] is within


def test_summarize_wins_and_spread():
    s = bench_pairs.summarize(LOWER, [4.0, 4.0, 6.0, 6.0], [3.0, 5.0, 5.0, 7.0])
    assert s["change_wins"] == 2  # 3 < 4 and 5 < 6
    assert s["parent_quartiles"] == [4.0, 6.0] and s["parent_median"] == s["change_median"] == 5.0
    assert s["change_over_parent"] == 1.0 and not s["median_gap_exceeds_parent_iqr"]
