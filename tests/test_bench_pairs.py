"""The pair summary of scripts/bench_pairs.py: the parent's interquartile
range and when a claimed gain counts as resolved; and its memory probe."""

import importlib.util
import json
import os
import statistics
import subprocess
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


def test_classify_memory_probe_keeps_its_passes(tmp_path):
    # no pairs: only the probe, once per checkout, both this one
    root = SCRIPT.parents[1]
    out = tmp_path / "pairs.json"
    subprocess.run(
        [sys.executable, str(SCRIPT), "--parent", str(root), "--change", str(root),
         "--workloads", "", "--seed", "1", "--memory-passes", "2",
         "--memory-workload", "classify", "--out", str(out)],
        cwd=root, capture_output=True, timeout=600, check=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    report = json.loads(out.read_text())
    assert report["pairs"] == {}
    for side in ("parent", "change"):
        probe = report["memory"][side]
        assert probe["workload"] == "classify"
        assert list(probe["tracemalloc_peak_mib"]) == ["run_pass"]
        assert probe["tracemalloc_peak_mib"]["run_pass"] > 0
        rss = probe["maxrss_mb_after_kept_pass"]
        assert len(rss) == 2 and 0 < rss[0] <= rss[1]
