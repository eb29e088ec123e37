"""Run one benchmark workload on the illumest sources of this checkout.

    python3 bench/run.py --workload grid_nnmf --seed 0 --seconds 10 --trace 0

Inputs are generated from --seed into a temporary directory under
.bench_out/. The measured phase repeats whole passes of the workload until
--seconds have elapsed (at least one pass) and checks every pass's outputs.
With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs a
fixed number of passes untraced and then traced, set-up included, and
reports the per-layer metrics of the traced ones.
The last line of standard output is one JSON object; the exit code is 0 only
when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Cold set-ups measured in fresh interpreters, besides this process's own.
SETUP_PROBES = 6
#: Requests per latency chunk; classify_p99_ms is the median of chunk p99s.
LATENCY_CHUNK = 2240


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # One cold set-up on inputs already generated in DIR, for setup_s.
    parser.add_argument("--setup-probe", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_illumest() -> float:
    """Cold-import illumest from this checkout's src/; returns the seconds taken."""
    package = SRC / "illumest"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no illumest sources at {package}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import illumest

    elapsed = time.perf_counter() - start
    if Path(illumest.__file__).resolve().parent != package:
        raise SystemExit(f"error: imported illumest from {illumest.__file__}")
    return elapsed


def timed_setup(workload) -> float:
    start = time.perf_counter()
    workload.setup()
    return time.perf_counter() - start


def setup_probe(args, import_s: float) -> int:
    import workloads

    inputs = workloads.describe_inputs(args.setup_probe)
    workload = workloads.make_workload(args.workload, inputs)
    print(json.dumps({"setup_s": import_s + timed_setup(workload)}))
    return 0


def probe_setups(args, work_dir: Path) -> list[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--setup-probe", str(work_dir),
            ],
            capture_output=True, text=True, timeout=60, check=True, cwd=ROOT,
        )
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


class Phase:
    """Whole passes of one workload, each checked, with the run's tallies."""

    def __init__(self, workload, work_dir: Path) -> None:
        self.workload = workload
        self.work_dir = work_dir
        self.passes = []
        self.attempted = 0
        self.failed = 0
        self.breaches: list[str] = []

    def run_pass(self) -> bool:
        """One pass; False when it crashed."""
        pass_dir = Path(tempfile.mkdtemp(dir=self.work_dir, prefix="pass-"))
        try:
            result = self.workload.run_pass(pass_dir)
        except Exception:  # a crashed pass counts all its cases as failed
            n_cases = sum(cases for _, cases in self.workload.expected())
            self.attempted += n_cases
            self.failed += n_cases
            self.breaches.append("pass crashed:\n" + traceback.format_exc())
            return False
        finally:
            shutil.rmtree(pass_dir, ignore_errors=True)
        self.attempted += result.attempted
        failed = result.failed
        self.breaches.extend(result.breaches)
        if self.passes and result.sha256 != self.passes[0].sha256:
            self.breaches.append(f"pass {len(self.passes)} report bytes differ from pass 0")
            failed = result.attempted
        self.failed += failed
        self.passes.append(result)
        return True

    def run_for(self, seconds: float) -> None:
        start = time.perf_counter()
        while self.run_pass() and time.perf_counter() - start < seconds:
            pass

    def run_count(self, n: int) -> None:
        for _ in range(n):
            if not self.run_pass():
                return

    def wall_s(self) -> float:
        return sum(p.wall_s for p in self.passes)


def latency_ms(latencies: list[float]) -> tuple[float, float]:
    """(p50, p99) in ms; p99 is the median over chunks of LATENCY_CHUNK requests."""
    import numpy as np

    lat = np.asarray(latencies) * 1e3
    chunks = [lat[i : i + LATENCY_CHUNK] for i in range(0, lat.size, LATENCY_CHUNK)]
    if len(chunks) > 1 and chunks[-1].size < LATENCY_CHUNK:
        chunks.pop()  # a short tail chunk has fewer than ten samples beyond p99
    return (
        float(np.percentile(lat, 50)),
        float(np.median([np.percentile(c, 99) for c in chunks])),
    )


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "illumest").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    git_hash = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        git_hash = done.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {
            k: os.environ.get(k, "unset")
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": len(os.sched_getaffinity(0)),
        "git_hash": git_hash,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def measure(args, inputs, import_s: float) -> dict:
    """Untraced run: set-up samples, timed passes, end-to-end metrics."""
    import numpy as np
    import spans
    import workloads

    setups = probe_setups(args, inputs.work_dir)
    workload = workloads.make_workload(args.workload, inputs)
    setups.append(import_s + timed_setup(workload))
    phase = Phase(workload, inputs.work_dir)
    grid_latencies: list[float] = []
    if args.workload == "classify":
        phase.run_for(args.seconds)
    else:
        patches = spans.Patches()
        patches.replace("illumest.evaluation:classify", _timed_into(grid_latencies))
        try:
            phase.run_for(args.seconds)
        finally:
            patches.restore()
    latencies = grid_latencies or [t for p in phase.passes for t in p.latencies]
    p50, p99 = latency_ms(latencies) if latencies else (float("nan"),) * 2
    first = phase.passes[0] if phase.passes else None
    return {
        "attempted": phase.attempted,
        "failed": phase.failed,
        "breaches": phase.breaches,
        "metrics": {
            "wall_s": statistics.median(p.wall_s for p in phase.passes)
            if phase.passes else float("nan"),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        "notes": {
            "passes": len(phase.passes),
            "setup_samples": len(setups),
            "classify_p50_ms": p50,
            "classify_p99_ms": p99,
            "classify_calls": len(latencies),
            "mean_error_deg": float(np.mean(first.errors)) if first else None,
            "report_sha256": first.sha256 if first else None,
        },
    }


def _timed_into(sink: list):
    def wrap(fn):
        clock = time.perf_counter

        def timed(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            sink.append(clock() - start)
            return result

        return timed

    return wrap


def trace(args, inputs) -> dict:
    """Traced run: the same passes untraced, then traced; per-layer metrics."""
    import spans
    import workloads

    untraced = Phase(workloads.make_workload(args.workload, inputs), inputs.work_dir)
    n_passes = untraced.workload.trace_passes
    untraced.workload.setup()
    untraced.run_count(n_passes)
    del untraced.workload  # release its model before the traced set-up

    tracer = spans.Tracer()
    with tracer.installed():
        traced = Phase(workloads.make_workload(args.workload, inputs), inputs.work_dir)
        traced.workload.setup()
        traced.run_count(n_passes)
    passes = untraced.passes + traced.passes
    failed = untraced.failed + traced.failed
    breaches = untraced.breaches + traced.breaches
    if not tracer.patches.all_restored():
        breaches.append("tracing wrappers were not restored")
    if len({p.sha256 for p in passes}) > 1:
        breaches.append("traced report bytes differ from untraced")
        failed += sum(p.attempted for p in traced.passes)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.csv")
    metrics = spans.layer_metrics(tracer)
    metrics["trace.overhead_s"] = traced.wall_s() - untraced.wall_s()
    return {
        "attempted": untraced.attempted + traced.attempted,
        "failed": failed,
        "breaches": breaches,
        "metrics": metrics,
        "notes": {
            "passes": f"{n_passes} untraced + {len(traced.passes)} traced",
            "spans": len(tracer.spans),
            "report_sha256": passes[0].sha256 if passes else None,
        },
    }


def _finite_or_none(value):
    return value if math.isfinite(value) else None


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_illumest()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    if args.setup_probe is not None:
        return setup_probe(args, import_s)

    import metrics as metric_defs
    import workloads

    if args.workload not in workloads.WHY:
        raise SystemExit(f"error: unknown workload {args.workload!r}")
    OUT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=OUT, prefix="run-"))
    try:
        inputs = workloads.make_inputs(work_dir, args.seed)
        result = trace(args, inputs) if args.trace else measure(args, inputs, import_s)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted, failed, breaches = result["attempted"], result["failed"], result["breaches"]
    defs = metric_defs.PER_LAYER if args.trace else metric_defs.END_TO_END
    values = result["metrics"]
    correct = failed == 0 and not breaches and attempted > 0
    env = environment(args.seed)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for key, note in result["notes"].items():
        print(f"{key} {note:.6g}" if isinstance(note, float) else f"{key} {note}")
    for m in defs:
        value = values[m.name]
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{m.name:40s} {shown} {m.unit}")
    print(
        f"{'failed_frac':40s} {failed / max(attempted, 1):.6g} ratio "
        f"({failed} of {attempted} operations)"
    )
    for breach in breaches:
        print("BREACH " + breach)
    summary = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m.name: {"value": _finite_or_none(values[m.name]), "unit": m.unit}
            for m in defs
        },
    }
    record = dict(summary, env=env, notes=result["notes"], breaches=breaches)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8"
    )
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
