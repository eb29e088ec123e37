"""Smoke test of scripts/score_batch_rss.py, which drives the grid runner
(`_Runner(config)` and its one-cell `grid()`) directly, so a runner change
that breaks it fails here rather than at its next manual run."""

import importlib.util
import math
import sys
from pathlib import Path

from illumest import cbc

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "score_batch_rss.py"


def load_script():
    """Import the script by path, writing no bytecode next to it."""
    spec = importlib.util.spec_from_file_location("score_batch_rss", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_measure_runs_on_small_scenes(tmp_path, monkeypatch):
    # measure() sets cbc.BATCH_ROWS; restore it for the tests that follow
    monkeypatch.setattr(cbc, "BATCH_ROWS", cbc.BATCH_ROWS)
    r = load_script().measure(32, 2048, tmp_path)
    assert r["side"] == 32 and r["cap"] == 2048
    # six 32x32 scenes split into test scenes of 8x8 pixels after downsampling
    assert r["test_pixels"] and all(n == 64 for n in r["test_pixels"])
    assert math.isfinite(r["mean_error_deg"]) and r["mean_error_deg"] >= 0
    assert r["peak_rss_mb"] >= r["rss_before_grid_mb"] > 0 and r["grid_s"] > 0
    assert len(r["report_sha256"]) == 64
    # the same cell and data give the same report bytes
    assert load_script().measure(32, 2048, tmp_path / "again")["report_sha256"] == r["report_sha256"]
