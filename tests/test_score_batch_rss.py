"""Smoke test of scripts/score_batch_rss.py, which drives `run_noise`, one
`run_grid` cell per method and the pca fit matrix through public calls, so a
change that breaks it fails here rather than at its next manual run."""

import importlib.util
import sys
from pathlib import Path

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


def test_measure_runs_on_small_scenes(tmp_path):
    script = load_script()
    manifest = script.write_dataset(32, tmp_path)
    noise = script.measure(manifest, "noise")
    # six 32x32 scenes split into two test scenes of 8x8 pixels after downsampling
    assert noise["test_pixels"] and all(n == 64 for n in noise["test_pixels"])
    assert noise["noise_maxrss_mb"] > 0 and noise["noise_s"] > 0 and noise["noise_peak_mib"] > 0
    fit = script.measure(manifest, "fit")
    assert fit["fit_peak_mib"] > 0 and fit["fit_rows"] > 0
    # the matrix alone, above its scenes, holds at least its rows
    assert fit["fit_peak_mib"] > fit["chroma_peak_mib"] >= fit["fit_rows"] * 31 * 8 / script.MIB
    # the same data give the same report bytes and fit matrix
    assert script.measure(manifest, "noise")["report_sha256"] == noise["report_sha256"]
    assert script.measure(manifest, "fit")["fit_sha256"] == fit["fit_sha256"]
    assert all(len(r[k]) == 64 for r, k in ((noise, "report_sha256"), (fit, "fit_sha256")))


def test_grid_cells_run_on_small_scenes(tmp_path):
    script = load_script()
    manifest = script.write_dataset(32, tmp_path)
    assert script.GRID_METHODS == ("nnmf", "pca")
    for method in script.GRID_METHODS:
        cell = script.grid_config(manifest, method)
        assert (cell.methods, cell.d_primes, cell.bins) == ((method,), (5,), (20,))
        assert cell.nnmf_max_iter == 20
        path = f"grid_{method}"
        grid = script.measure(manifest, path)
        assert set(grid) == {f"{path}_peak_mib", f"{path}_sha256"}
        assert grid[f"{path}_peak_mib"] > 0 and len(grid[f"{path}_sha256"]) == 64
        # the same data give the same report bytes
        assert script.measure(manifest, path)[f"{path}_sha256"] == grid[f"{path}_sha256"]
