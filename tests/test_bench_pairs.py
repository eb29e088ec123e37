"""The pair summary of scripts/bench_pairs.py: the parent's interquartile
range and when a claimed gain counts as resolved."""

import importlib.util
import statistics
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


def load_script():
    """Import the script by path, writing no bytecode next to it."""
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def runs_of(parent, change):
    """Pairs whose every metric reads `parent[k]` and `change[k]`."""
    metrics = load_script().METRICS
    return [
        {"parent": dict.fromkeys(metrics, p), "change": dict.fromkeys(metrics, c)}
        for p, c in zip(parent, change)
    ]


PARENT = [0.50, 0.52, 0.54, 0.56, 0.58, 0.60, 0.62, 0.64, 0.66, 0.68]


@pytest.mark.parametrize(
    "change, lower_in, resolved",
    [
        # 0.2 lower in every pair, past the parent's IQR of 0.11
        ([p - 0.2 for p in PARENT], 10, True),
        # lower in every pair, but the medians only 0.05 apart
        ([p - 0.05 for p in PARENT], 10, False),
        # far lower in 8 pairs, higher in 2
        ([p - 0.3 for p in PARENT[:8]] + [p + 0.01 for p in PARENT[8:]], 8, False),
        # far lower in 9 pairs
        ([p - 0.3 for p in PARENT[:9]] + [PARENT[9] + 0.01], 9, True),
    ],
)
def test_gain_resolved_needs_nine_of_ten_and_a_gap_past_the_parent_iqr(
    change, lower_in, resolved
):
    summary = load_script().summarize(runs_of(PARENT, change))
    q1, _, q3 = statistics.quantiles(PARENT, n=4)
    for metric in summary.values():
        assert metric["parent_iqr"] == pytest.approx(q3 - q1)
        assert metric["change_lower_in"] == lower_in
        assert metric["pairs"] == 10
        assert metric["gain_resolved"] is resolved


def test_one_pair_has_no_spread():
    summary = load_script().summarize(runs_of([0.5], [0.4]))
    assert summary["wall_s"]["parent_iqr"] == 0.0
    assert summary["wall_s"]["gain_resolved"] is True
