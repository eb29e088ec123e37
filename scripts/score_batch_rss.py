"""Peak memory of relit stacks on large scenes, by batch-row cap.

Run from the repository root:  python scripts/score_batch_rss.py [--sides 256,512]

For each scene side the script writes a small synthetic dataset (31 bands;
six scenes at side 256, three at 512 and above, so two or one test scenes)
and runs the grid runner on one cell (ill_pca, d' = 3, B = 20) at the
default eval downsample of 4, once per `cbc.BATCH_ROWS` value: the fit,
training features, model build and the per-scene test features the sweep
holds while it scores. "RSS before" is taken after the runner has loaded
its scenes. "report sha256" hashes the cell's report CSV followed by its
raw CSV, so that the report bytes of two source trees can be compared.
Each measurement runs in a fresh interpreter, so the reported peak RSS
(ru_maxrss) is that run's own. "uncapped" relights the training pixels and
each test scene under all 28 candidates in one call: those stacks and their
chromaticity copies grow 28x with the pixel count, which is what the cap
prevents.
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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CAPS = (2048, 8192, 32768, None)


def measure(side: int, cap, work: Path) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import illumest
    from illumest import cbc, evaluation, spectral
    from illumest.bundled import bundled_illuminant_manifest

    cbc.BATCH_ROWS = cap if cap is not None else 1 << 62
    n_scenes = 6 if side < 512 else 3
    manifest, _ = illumest.synth_dataset(
        work, n_scenes, spectral.SpectralAxis(), base_seed=1, width=side, height=side
    )
    config = evaluation.GridConfig(
        dataset=manifest,
        illuminants=bundled_illuminant_manifest(),
        methods=("ill_pca",),
        d_primes=(3,),
        bins=(20,),
    )
    runner = evaluation._Runner(config)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    start = time.perf_counter()
    report = runner.grid()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    grid_s = time.perf_counter() - start
    (row,) = report.rows
    report.write_csv(work / "report.csv")
    report.write_raw_csv(work / "report_raw.csv")
    csvs = (work / "report.csv").read_bytes() + (work / "report_raw.csv").read_bytes()
    return {
        "side": side,
        "cap": cap,
        "test_pixels": [len(img.valid_pixels()) for img in runner.test_eval],
        "rss_before_grid_mb": round(before, 1),
        "peak_rss_mb": round(peak, 1),
        "grid_s": round(grid_s, 3),
        "mean_error_deg": row.summary.mean,
        "report_sha256": hashlib.sha256(csvs).hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sides", default="256,512")
    parser.add_argument("--one", nargs=2, help=argparse.SUPPRESS)  # side, cap
    args = parser.parse_args(argv)
    if args.one:
        side, cap = int(args.one[0]), None if args.one[1] == "none" else int(args.one[1])
        with tempfile.TemporaryDirectory() as work:
            print(json.dumps(measure(side, cap, Path(work))))
        return 0
    print(
        f"{'side':>5} {'cap':>9} {'test px':>12} {'RSS before':>11} {'peak RSS':>9} "
        f"{'grid s':>7}  report sha256"
    )
    for side in (int(s) for s in args.sides.split(",")):
        for cap in CAPS:
            done = subprocess.run(
                [sys.executable, __file__, "--one", str(side), str(cap).lower()],
                capture_output=True, text=True, check=True,
            )
            r = json.loads(done.stdout.strip().splitlines()[-1])
            label = "uncapped" if cap is None else str(cap)
            print(
                f"{side:5d} {label:>9} {str(r['test_pixels']):>12} "
                f"{r['rss_before_grid_mb']:9.1f}MB {r['peak_rss_mb']:7.1f}MB {r['grid_s']:7.3f}"
                f"  {r['report_sha256']}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
