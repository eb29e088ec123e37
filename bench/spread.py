"""Run the benchmark once per seed and summarize each metric over the seeds.

    python3 bench/spread.py --workloads grid_nnmf,grid_hist,classify --seeds 1-10 \
        --trace 0 --out bench/baseline.json

Runs `bench/run.py` in a fresh process per (workload, seed), sequentially,
with run_seconds from BENCHMARK.json. For every metric it prints the median
and the spread: (Q3 - Q1) / median, with the quartiles that
statistics.quantiles(values, n=4) gives. With --out it also writes every
run's metrics, report sha256 and mean error, plus the summary, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [median] * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True, help="comma-separated names")
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,7,11")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = str(spec["run_seconds"])
    seeds = parse_seeds(args.seeds)
    out = {"run_seconds": spec["run_seconds"], "trace": args.trace, "seeds": seeds}
    out["workloads"] = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            start = time.perf_counter()
            done = subprocess.run(
                spec["command"]
                + ["--workload", workload, "--seed", str(seed), "--seconds", seconds,
                   "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            last = json.loads(done.stdout.strip().splitlines()[-1])
            record = json.loads(
                (ROOT / ".bench_out" / f"result-{workload}-seed{seed}-trace{args.trace}.json")
                .read_text(encoding="utf-8")
            )
            out.setdefault("env", record["env"])
            runs.append(
                {
                    "seed": seed,
                    "exit": done.returncode,
                    "correct": last["correct"],
                    "attempted": last["attempted"],
                    "failed": last["failed"],
                    "seconds": round(time.perf_counter() - start, 1),
                    "notes": record["notes"],
                    "metrics": {k: v["value"] for k, v in last["metrics"].items()},
                }
            )
            ok &= done.returncode == 0 and last["correct"]
            print(workload, json.dumps(runs[-1]), flush=True)
        summary = {
            name: summarize([r["metrics"][name] for r in runs])
            for name in runs[0]["metrics"]
        }
        for name, s in summary.items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {workload} {name}: median {s['median']:.6g} spread {spread}")
        out["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out is not None:
        out["env"].pop("seed", None)
        args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
