"""Alternating benchmark pairs of two checkouts, plus their in-process memory.

Run from the repository root:

    python scripts/bench_pairs.py --parent ../parent --change . \
        --workloads grid_hist:10,grid_nnmf:5,classify:5 --seed 11 --out BENCH.json

For each workload, pair k runs `bench/run.py --workload W --seed S --seconds
10 --trace 0` once in each checkout, each a fresh process, the parent first
in odd pairs and the change first in even ones. Per metric it records every
run, each side's median and quartiles (statistics.quantiles, n=4), the
parent's interquartile range and how many pairs the change won, with the
pass counts, `failed` and the report sha256 of every run. `gain_resolved`
holds when the change read lower in at least 9 of every 10 pairs and its
median sits below the parent's by more than the parent's interquartile
range. With --memory-passes K it also runs, once per checkout in a fresh
interpreter on that checkout's sources, one warm pass of --memory-workload
(grid_hist: `run_grid` + `run_noise`, the default; grid_nnmf: `run_grid`) on
the seed's inputs, then the tracemalloc peak of each call (and of both), then
ru_maxrss after each of K passes whose reports are kept, as the benchmark
keeps its passes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

METRICS = ("wall_s", "setup_s", "peak_rss_mb")


def run_bench(checkout: Path, workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "10", "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=900,
    )
    lines = done.stdout.strip().splitlines()
    notes = dict(line.split(None, 1) for line in lines[:-1] if line.split(None, 1)[0]
                 in ("passes", "report_sha256"))
    result = json.loads(lines[-1])
    return {
        **{m: result["metrics"][m]["value"] for m in METRICS},
        "passes": int(notes["passes"]),
        "failed": result["failed"],
        "report_sha256": notes["report_sha256"],
    }


def summarize(runs: list[dict]) -> dict:
    out = {}
    for m in METRICS:
        sides = {side: [r[side][m] for r in runs] for side in ("parent", "change")}
        medians = {side: statistics.median(v) for side, v in sides.items()}
        quartiles = {side: statistics.quantiles(v, n=4) if len(v) > 1 else v * 3
                     for side, v in sides.items()}
        lower_in = sum(r["change"][m] < r["parent"][m] for r in runs)
        parent_iqr = quartiles["parent"][2] - quartiles["parent"][0]
        out[m] = {
            **{f"{side}_median": v for side, v in medians.items()},
            **{f"{side}_quartiles": v for side, v in quartiles.items()},
            "parent_iqr": parent_iqr,
            "change_lower_in": lower_in,
            "pairs": len(runs),
            "gain_resolved": lower_in >= 0.9 * len(runs)
            and medians["parent"] - medians["change"] > parent_iqr,
        }
    return out


def pairs(parent: Path, change: Path, workload: str, n: int, seed: int) -> dict:
    runs = []
    for k in range(n):
        order = [("parent", parent), ("change", change)]
        if k % 2:
            order.reverse()
        pair = {side: run_bench(checkout, workload, seed) for side, checkout in order}
        pair["first"] = order[0][0]
        runs.append(pair)
        print(workload, k + 1, {s: pair[s]["wall_s"] for s in ("parent", "change")}, flush=True)
    return {"runs": runs, "summary": summarize(runs)}


def memory_probe(checkout: Path, seed: int, kept_passes: int, name: str) -> dict:
    """Runs inside a fresh interpreter on `checkout`'s sources."""
    import resource
    import tracemalloc

    sys.path[:0] = [str(checkout / "src"), str(checkout / "bench")]
    import workloads
    from illumest import evaluation

    with tempfile.TemporaryDirectory() as tmp:
        workload = workloads.make_workload(name, workloads.make_inputs(Path(tmp), seed))
        workload.setup()
        config = workload.config
        calls = {"run_grid": evaluation.run_grid}
        if workload.with_noise:
            calls["run_noise"] = evaluation.run_noise
        for run in calls.values():
            run(config)
        peaks = {}
        tracemalloc.start()
        for call, run in calls.items():
            tracemalloc.reset_peak()
            run(config)
            peaks[call] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        if len(calls) > 1:
            tracemalloc.start()
            for run in calls.values():
                run(config)
            peaks["both"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        kept, rss = [], []
        for _ in range(kept_passes):
            kept.append([run(config) for run in calls.values()])
            rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return {
        "workload": name,
        "tracemalloc_peak_mib": {k: v / 2**20 for k, v in peaks.items()},
        "maxrss_mb_after_kept_pass": rss,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workloads", default="grid_hist:10,grid_nnmf:5,classify:5")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--memory-passes", type=int, default=0)
    parser.add_argument("--memory-workload", default="grid_hist",
                        choices=("grid_hist", "grid_nnmf"))
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--memory-probe", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.memory_probe:
        print(json.dumps(memory_probe(args.memory_probe, args.seed, args.memory_passes,
                                      args.memory_workload)))
        return 0
    parent, change = args.parent.resolve(), args.change.resolve()
    report = {"seed": args.seed, "pairs": {}, "memory": {}}
    for item in filter(None, args.workloads.split(",")):
        workload, _, n = item.partition(":")
        report["pairs"][workload] = pairs(parent, change, workload, int(n or 10), args.seed)
    if args.memory_passes:
        for side, checkout in (("parent", parent), ("change", change)):
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--parent", str(parent),
                 "--change", str(change), "--seed", str(args.seed), "--out", str(args.out),
                 "--memory-passes", str(args.memory_passes), "--memory-probe", str(checkout),
                 "--memory-workload", args.memory_workload],
                capture_output=True, text=True, timeout=900, check=True,
            )
            report["memory"][side] = json.loads(done.stdout.strip().splitlines()[-1])
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
