"""Memory of the paths that relight pixels, on large scenes, per checkout.

Run from the repository root:

    python scripts/score_batch_rss.py [--sides 256,512] [--checkouts ../parent,.]

For each scene side the script writes one synthetic dataset (31 bands; six
scenes at side 256, three at 512 and above, so two or one test scenes) that
every checkout reads. Per checkout it runs, each in a fresh interpreter on
that checkout's sources, the two paths that relight pixels under one
candidate at a time:

- `run_noise` on one cell (pca, d' = 3, B = 20, the default noise levels and
  eval downsample of 4), which featurizes every noisy test case. An untraced
  run gives its wall time, ru_maxrss and the sha256 of its report CSV
  followed by its raw CSV; a second, traced run gives its tracemalloc peak.
- the pca fit matrix (`training_chromaticities` of the training scenes at the
  fit downsample of 8): its tracemalloc peak and the sha256 of its rows, and
  the peak of `training_chromaticities` alone, above the scenes it is given.

It also runs one `run_grid` cell per method, nnmf and pca (d' = 5, B = 20,
`nnmf_max_iter` 20), each in its own interpreter: a sweep's fit, training
and test features and model, traced, with the sha256 of its report CSV
followed by its raw CSV.

Checkouts whose reports and fit matrices agree print the same shas.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIB = 1 << 20
GRID_METHODS = ("nnmf", "pca")


def write_dataset(side: int, work: Path) -> Path:
    """The side's synthetic dataset under `work`, written by this checkout;
    returns its manifest."""
    sys.path.insert(0, str(ROOT / "src"))
    import illumest

    n_scenes = 6 if side < 512 else 3
    manifest, _ = illumest.synth_dataset(
        work, n_scenes, illumest.SpectralAxis(), base_seed=1, width=side, height=side
    )
    return manifest


def config(manifest: Path):
    from illumest import evaluation
    from illumest.bundled import bundled_illuminant_manifest

    return evaluation.GridConfig(
        dataset=manifest,
        illuminants=bundled_illuminant_manifest(),
        methods=("pca",),
        d_primes=(3,),
        bins=(20,),
        noise_method="pca",
        noise_d_prime=3,
        noise_bins=20,
    )


def grid_config(manifest: Path, method: str):
    cell = dict(methods=(method,), d_primes=(5,), bins=(20,), nnmf_max_iter=20)
    return replace(config(manifest), **cell)


def report_sha256(report) -> str:
    """The sha256 of a report's CSV followed by its raw CSV."""
    with tempfile.TemporaryDirectory() as out:
        report.write_csv(Path(out) / "report.csv")
        report.write_raw_csv(Path(out) / "report_raw.csv")
        csvs = b"".join((Path(out) / name).read_bytes() for name in ("report.csv", "report_raw.csv"))
    return hashlib.sha256(csvs).hexdigest()


def traced_peak_mib(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / MIB
    finally:
        tracemalloc.stop()


def measure(manifest: Path, path: str) -> dict:
    """Measure `path` ("noise", "fit", or "grid_" and a method of
    GRID_METHODS) in this interpreter, with whichever illumest it imports."""
    from illumest import evaluation
    from illumest.io import read_scube
    from illumest.spectral import downsample

    cfg = config(manifest)
    if path.startswith("grid_"):
        reports = []
        grid = grid_config(manifest, path.removeprefix("grid_"))
        peak = traced_peak_mib(lambda: reports.append(evaluation.run_grid(grid)))
        return {f"{path}_peak_mib": round(peak, 2), f"{path}_sha256": report_sha256(reports[0])}
    if path == "fit":
        rows = []
        peak = traced_peak_mib(lambda: rows.append(evaluation._Runner(cfg).fit_matrix.rows))
        runner = evaluation._Runner(cfg)
        images = [downsample(read_scube(p), cfg.downsample_fit) for p in runner.train_paths]
        chroma = traced_peak_mib(lambda: evaluation.training_chromaticities(images, runner.proj_set))
        return {
            "fit_peak_mib": round(peak, 2),
            "chroma_peak_mib": round(chroma, 2),
            "fit_rows": len(rows[0]),
            "fit_sha256": hashlib.sha256(rows[0].tobytes()).hexdigest(),
        }
    start = time.perf_counter()
    report = evaluation.run_noise(cfg)
    noise_s = time.perf_counter() - start
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    peak = traced_peak_mib(lambda: evaluation.run_noise(cfg))
    return {
        "noise_s": round(noise_s, 3),
        "noise_maxrss_mb": round(maxrss, 1),
        "noise_peak_mib": round(peak, 2),
        "test_pixels": [len(img.valid_pixels()) for img in evaluation._Runner(cfg).test_eval],
        "report_sha256": report_sha256(report),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sides", default="256,512")
    parser.add_argument("--checkouts", default=".", help="comma-separated checkout roots")
    parser.add_argument("--one", nargs=3, help=argparse.SUPPRESS)  # checkout, manifest, path
    args = parser.parse_args(argv)
    if args.one:
        checkout, manifest, path = args.one
        sys.path.insert(0, str(Path(checkout).resolve() / "src"))
        print(json.dumps(measure(Path(manifest), path)))
        return 0
    grids = [f"grid_{method}" for method in GRID_METHODS]
    print(
        f"{'side':>5} {'checkout':>12} {'test px':>13} {'noise s':>8} {'maxrss':>9} "
        f"{'noise peak':>11} {'fit peak':>10} {'chroma':>10} {'nnmf grid':>10} {'pca grid':>10}  "
        "report sha256 / fit sha256 / nnmf and pca grid report sha256"
    )
    for side in (int(s) for s in args.sides.split(",")):
        with tempfile.TemporaryDirectory() as work:
            manifest = write_dataset(side, Path(work))
            for checkout in args.checkouts.split(","):
                r = {}
                for path in ("noise", "fit", *grids):
                    done = subprocess.run(
                        [sys.executable, __file__, "--one", checkout, str(manifest), path],
                        capture_output=True, text=True, check=True,
                    )
                    r.update(json.loads(done.stdout.strip().splitlines()[-1]))
                print(
                    f"{side:5d} {checkout:>12} {str(r['test_pixels']):>13} {r['noise_s']:8.3f} "
                    f"{r['noise_maxrss_mb']:7.1f}MB {r['noise_peak_mib']:8.2f}MiB "
                    f"{r['fit_peak_mib']:7.2f}MiB {r['chroma_peak_mib']:7.2f}MiB "
                    + " ".join(f"{r[g + '_peak_mib']:7.2f}MiB" for g in grids)
                    + f"  {r['report_sha256'][:16]} / {r['fit_sha256'][:16]} / "
                    + " ".join(r[g + "_sha256"][:16] for g in grids)
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
