"""Smoke test of scripts/sweep_stages.py on this checkout. Its probe patches
module globals of illumest, so it runs in a subprocess, never in the test
process."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STAGES = (
    "fits", "training_features", "test_features", "unit", "feature_cells", "prefix_cells",
    "summaries", "builds", "scores", "projection_to_bytes", "Projection.__post_init__",
    "gray_world", "relight",
)


CLASSIFY_STAGES = ("block_features", "feature_cells", "_cell_runs", "score_rest", "valid_pixels")


def sweep_stages(*args):
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "sweep_stages.py"), "--checkout", ".", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    (report,) = json.loads(done.stdout).values()
    return report


def test_every_stage_reports_calls():
    report = sweep_stages("--passes", "1")
    assert set(report) == {"pass", *STAGES}
    for stage, timing in report.items():
        # no case is relit: gray world takes each case as its scene's rows times an SPD
        calls = timing["calls"] == 0 if stage == "relight" else timing["calls"] > 0
        assert calls and len(timing["ms"]) == 1 and timing["ms"][0] >= 0, stage
    assert report["gray_world"]["calls"] == 8 * 28  # grid_hist's 8 test scenes, 28 lights
    # a projection's digest is made once, so no projection is serialized twice
    assert report["projection_to_bytes"]["calls"] <= report["Projection.__post_init__"]["calls"]


def test_classify_mode_times_each_request_stage_in_every_round():
    report = sweep_stages("--mode", "classify", "--size", "smoke", "--rounds", "2",
                          "--passes", "2")
    assert set(report) == {"pass", *CLASSIFY_STAGES}
    requests = report["pass"]["calls"]
    assert requests > 0
    for stage, timing in report.items():
        # each request passes every stage once, but gathers no valid pixels:
        # its image is featurized from its whole cube; two rounds of two passes each
        calls = 0 if stage == "valid_pixels" else requests
        assert timing["calls"] == calls and len(timing["ms"]) == 4, stage
        assert all(ms >= 0 for ms in timing["ms"]), stage
