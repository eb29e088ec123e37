"""In-process stage times of warm grid_hist passes, per checkout.

Run from the repository root:

    python scripts/sweep_stages.py --checkout ../parent --checkout . --seed 11 --passes 5

Each checkout runs in a fresh interpreter on its own sources and bench inputs:
one warm `run_grid` + `run_noise` pass, then --passes timed passes. Wrappers at
the sites the sweep resolves sum each pass's time and calls in: the fits
(`evaluation.fit_*`), `training_features`, `_Runner.test_features`, the
conversion to unit coordinates (`unit_coordinates`, or `unit_features` in
older checkouts) as the `unit` stage, and the binning fold, which is
`cbc.feature_cells` plus, where the checkout has it, the time spent inside the
`prefix_cells` generators the sweep steps (its calls count the prefixes they
yield), and the report rows' summaries as the `summaries` stage: the one
`summarize_rows` call per report, or in older checkouts the per-row
`summarize` calls. Two stages are inclusive, each holding the stages it
calls: `builds`, the sweep's `build_model` calls, and `scores`, its `classify`
calls. Prints one JSON object: per checkout and stage, each pass's
milliseconds and calls.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

FIT_KINDS = ("rgb", "rand", "pca", "ill_pca", "nnmf", "lda")


def probe(checkout: Path, seed: int, passes: int) -> dict:
    """Runs inside a fresh interpreter on `checkout`'s sources."""
    sys.path[:0] = [str(checkout / "src"), str(checkout / "bench")]
    import workloads
    from illumest import cbc, evaluation

    totals: dict = {}

    def add(stage, seconds, calls=1):
        ms, n = totals.get(stage, (0.0, 0))
        totals[stage] = (ms + 1e3 * seconds, n + calls)

    def timed(owner, name, stage):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                add(stage, time.perf_counter() - start)

        setattr(owner, name, wrapper)

    def timed_generator(owner, name, stage):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            steps = original(*args, **kwargs)
            try:
                while True:
                    start = time.perf_counter()
                    item = next(steps, None)
                    add(stage, time.perf_counter() - start, item is not None)
                    if item is None:
                        return
                    yield item
            finally:
                steps.close()

        setattr(owner, name, wrapper)

    for kind in FIT_KINDS:
        timed(evaluation, f"fit_{kind}", "fits")
    timed(evaluation, "training_features", "training_features")
    timed(evaluation._Runner, "test_features", "test_features")
    for name in ("unit_coordinates", "unit_features"):
        if hasattr(evaluation, name):
            timed(evaluation, name, "unit")
    timed(cbc, "feature_cells", "feature_cells")
    if hasattr(evaluation, "prefix_cells"):
        timed_generator(evaluation, "prefix_cells", "prefix_cells")
    summary = "summarize_rows" if hasattr(evaluation, "summarize_rows") else "summarize"
    timed(evaluation, summary, "summaries")
    timed(evaluation, "build_model", "builds")
    timed(evaluation, "classify", "scores")
    with tempfile.TemporaryDirectory() as tmp:
        workload = workloads.make_workload("grid_hist", workloads.make_inputs(Path(tmp), seed))
        workload.setup()
        config = workload.config
        evaluation.run_grid(config)
        evaluation.run_noise(config)
        out: dict = {}
        for _ in range(passes):
            totals.clear()
            start = time.perf_counter()
            evaluation.run_grid(config)
            evaluation.run_noise(config)
            add("pass", time.perf_counter() - start)
            for stage, (ms, calls) in totals.items():
                out.setdefault(stage, {"ms": [], "calls": calls})["ms"].append(round(ms, 2))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, action="append", required=True)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--passes", type=int, default=5)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        print(json.dumps(probe(args.checkout[0], args.seed, args.passes)))
        return 0
    report = {}
    for checkout in args.checkout:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe", "--checkout",
             str(checkout.resolve()), "--seed", str(args.seed), "--passes", str(args.passes)],
            capture_output=True, text=True, timeout=900, check=True,
        )
        report[str(checkout)] = json.loads(done.stdout.strip().splitlines()[-1])
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
