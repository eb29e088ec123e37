"""Peak memory of relit stacks on large scenes, by batch-row cap.

Run from the repository root:  python scripts/score_batch_rss.py [--sides 256,512]

For each scene side the script writes a small synthetic dataset (31 bands;
six scenes at side 256, three at 512 and above, so two or one test scenes),
builds one ill_pca model (d' = 3, B = 20) from the grid runner's inputs and
scores every test case with `_Runner.evaluate_model` at the default eval
downsample of 4, once per `cbc.BATCH_ROWS` value. Training features and
scoring share that cap, so "RSS before" (after the model build) moves with
it as well as the peak.
Each measurement runs in a fresh interpreter, so the reported peak RSS
(ru_maxrss) is that run's own. "uncapped" relights the training pixels and
each test scene under all 28 candidates in one call: those stacks and their
chromaticity copies grow 28x with the pixel count, which is what the cap
prevents.
"""

from __future__ import annotations

import argparse
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
    from illumest.projections import fit_ill_pca

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
    proj = fit_ill_pca(runner.proj_set, 3)
    model = cbc.build_model(runner.train_eval, runner.full, proj, 20)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    start = time.perf_counter()
    summary, _ = runner.evaluate_model(model, None)
    return {
        "side": side,
        "cap": cap,
        "test_pixels": [len(img.valid_pixels()) for img in runner.test_eval],
        "rss_before_eval_mb": round(before, 1),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "eval_s": round(time.perf_counter() - start, 3),
        "mean_error_deg": summary.mean,
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
    print(f"{'side':>5} {'cap':>9} {'test px':>12} {'RSS before':>11} {'peak RSS':>9} {'eval s':>7}")
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
                f"{r['rss_before_eval_mb']:9.1f}MB {r['peak_rss_mb']:7.1f}MB {r['eval_s']:7.3f}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
