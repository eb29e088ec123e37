"""In-process stage times of warm grid_hist or classify passes, per checkout.

Run from the repository root:

    python scripts/sweep_stages.py --checkout ../parent --checkout . --seed 11 --passes 5
    python scripts/sweep_stages.py --mode classify --checkout ../parent --checkout . \
        --rounds 6 --passes 60

Each checkout runs in a fresh interpreter on its own sources and bench inputs,
once per round, the checkouts in turn and their order reversed every other
round. In the grid mode (the default) a run makes one warm `run_grid` +
`run_noise` pass, then --passes timed passes. Wrappers at
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
calls. The projection work is two stages named after their functions, each
counted wherever it is called: `projection_to_bytes` (a projection's file
bytes, which its digest hashes) and `Projection.__post_init__` (the checks of
each projection made).

The classify mode sets up the classify workload (its model and its requests,
224 at the full size) and classifies every request once to warm up. Each
timed pass then classifies every request twice: once unwrapped, timed whole
as the `pass` stage, and once with wrappers on `cbc.block_features` (which
featurizes the request), the binning (`cbc.feature_cells`), `cbc._cell_runs`
and `cbc.score`. `score_rest` is what `score` spends outside those three
stages. `valid_pixels` is the time and calls of `SpectralImage.valid_pixels`
in the wrapped pass, inside `block_features` where it gathers a request's
valid pixels; a checkout that takes no gather reports 0 calls.

--size smoke runs either mode on the bench self-test's small scenes.
Prints one JSON object: per checkout and stage, each pass's milliseconds
(every round's passes in turn) and calls.
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


class Stages:
    """Per-stage sums of milliseconds and calls, fed by wrappers at module sites."""

    def __init__(self):
        self.totals: dict = {}

    def add(self, stage, seconds, calls=1):
        ms, n = self.totals.get(stage, (0.0, 0))
        self.totals[stage] = (ms + 1e3 * seconds, n + calls)

    def timed(self, owner, name, stage):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.add(stage, time.perf_counter() - start)

        setattr(owner, name, wrapper)

    def record(self, out: dict) -> None:
        """Append this pass's sums to `out` and start the next pass."""
        for stage, (ms, calls) in self.totals.items():
            out.setdefault(stage, {"ms": [], "calls": calls})["ms"].append(round(ms, 2))
        self.totals.clear()


def probe(checkout: Path, seed: int, passes: int, size: str) -> dict:
    """Runs inside a fresh interpreter on `checkout`'s sources."""
    sys.path[:0] = [str(checkout / "src"), str(checkout / "bench")]
    import workloads
    from illumest import cbc, evaluation, projections

    stages = Stages()
    add, timed = stages.add, stages.timed

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
    timed(projections, "projection_to_bytes", "projection_to_bytes")
    timed(projections.Projection, "__post_init__", "Projection.__post_init__")
    with tempfile.TemporaryDirectory() as tmp:
        inputs = workloads.make_inputs(Path(tmp), seed, getattr(workloads, size.upper()))
        workload = workloads.make_workload("grid_hist", inputs)
        workload.setup()
        config = workload.config
        evaluation.run_grid(config)
        evaluation.run_noise(config)
        out: dict = {}
        for _ in range(passes):
            stages.totals.clear()
            start = time.perf_counter()
            evaluation.run_grid(config)
            evaluation.run_noise(config)
            add("pass", time.perf_counter() - start)
            stages.record(out)
    return out


def probe_classify(checkout: Path, seed: int, passes: int, size: str) -> dict:
    """Runs inside a fresh interpreter on `checkout`'s sources."""
    sys.path[:0] = [str(checkout / "src"), str(checkout / "bench")]
    import workloads
    from illumest import cbc, spectral

    stages = Stages()
    with tempfile.TemporaryDirectory() as tmp:
        inputs = workloads.make_inputs(Path(tmp), seed, getattr(workloads, size.upper()))
        workload = workloads.make_workload("classify", inputs)
        workload.setup()
    model, requests = workload.model, [radiance for *_, radiance in workload.requests]
    classify = cbc.classify
    for radiance in requests:
        classify(model, radiance)
    inner = ("block_features", "feature_cells", "_cell_runs")
    sites = [(cbc, name) for name in (*inner, "score")] + [(spectral.SpectralImage, "valid_pixels")]
    originals = {site: getattr(*site) for site in sites}
    out: dict = {}
    for _ in range(passes):
        start = time.perf_counter()
        for radiance in requests:
            classify(model, radiance)
        stages.add("pass", time.perf_counter() - start, len(requests))
        stages.add("valid_pixels", 0.0, 0)  # reported even where no request gathers
        for owner, name in sites:
            stages.timed(owner, name, name)
        for radiance in requests:
            classify(model, radiance)
        for (owner, name), original in originals.items():
            setattr(owner, name, original)
        ms, calls = stages.totals.pop("score")
        stages.add("score_rest", (ms - sum(stages.totals[n][0] for n in inner)) / 1e3, calls)
        stages.record(out)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, action="append", required=True)
    parser.add_argument("--mode", choices=tuple(PROBES), default="grid")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--passes", type=int, default=5)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        print(json.dumps(PROBES[args.mode](args.checkout[0], args.seed, args.passes, args.size)))
        return 0
    report: dict = {str(checkout): {} for checkout in args.checkout}
    for round_ in range(args.rounds):
        for checkout in args.checkout[:: -1 if round_ % 2 else 1]:
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--probe", "--mode", args.mode,
                 "--checkout", str(checkout.resolve()), "--seed", str(args.seed),
                 "--passes", str(args.passes), "--size", args.size],
                capture_output=True, text=True, timeout=900, check=True,
            )
            stages = report[str(checkout)]
            for stage, timing in json.loads(done.stdout.strip().splitlines()[-1]).items():
                stages.setdefault(stage, {"ms": [], "calls": timing["calls"]})
                stages[stage]["ms"] += timing["ms"]
    print(json.dumps(report, indent=1))
    return 0


PROBES = {"grid": probe, "classify": probe_classify}


if __name__ == "__main__":
    sys.exit(main())
