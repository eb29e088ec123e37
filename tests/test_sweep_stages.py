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
    "summaries", "builds", "scores",
)


def test_every_stage_reports_calls():
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "sweep_stages.py"), "--checkout", ".",
         "--passes", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    (report,) = json.loads(done.stdout).values()
    assert set(report) == {"pass", *STAGES}
    for stage, timing in report.items():
        assert timing["calls"] > 0 and len(timing["ms"]) == 1 and timing["ms"][0] >= 0, stage
