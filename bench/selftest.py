"""Self-test of the benchmark itself (a few seconds, tiny inputs).

    python3 bench/selftest.py

Covers the self-time arithmetic, the restoring of tracing wrappers, a smoke
run of every workload through its output checks, the case and row counts of
the full-size workloads, and the agreement of BENCHMARK.json with the code.
The functions are also collected by pytest when this file is named on its
command line.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import metrics  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _scratch() -> Path:
    run.OUT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(dir=run.OUT, prefix="selftest-"))


def test_self_times_on_hand_built_tree():
    tree = [
        spans.Span("root", 0.0, 10.0, -1, 1),
        spans.Span("a", 1.0, 4.0, 0, 1),
        spans.Span("a.child", 2.0, 3.0, 1, 1),
        spans.Span("b", 3.0, 6.0, 0, 1),  # overlaps a: the union counts once
        spans.Span("c", 8.0, 12.0, 0, 1),  # runs past root: clipped to it
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 3.0, 4.0]


def test_layer_metrics_count_fallback_rows():
    tracer = spans.Tracer()
    tracer.spans = [
        spans.Span("linalg.nnls_rows", 0.0, 5.0, -1, 10),
        spans.Span("linalg.nnls", 1.0, 2.0, 0, 1),
        spans.Span("linalg.nnls", 2.0, 3.0, 0, 1),
        spans.Span("linalg.nnls", 6.0, 7.0, -1, 1),  # not a fallback row
    ]
    got = spans.layer_metrics(tracer)
    assert got["linalg.nnls_fast_frac"] == 0.8
    assert got["linalg.nnls.calls"] == 3
    assert got["linalg.nnls.s"] == 3.0
    assert got["linalg.nnls_rows.s"] == 3.0
    assert got["linalg.nnls_rows.rows"] == 10


def _all_sites():
    sites = [s for group, _ in spans.SPAN_SITES.values() for s in group]
    sites += [s for group in spans.COUNT_SITES.values() for s in group]
    return sites


def _smoke_phase(name: str, work_dir: Path, tracer=None, passes: int = 2):
    inputs = workloads.make_inputs(work_dir, seed=3, size=workloads.SMOKE)
    phase = run.Phase(workloads.make_workload(name, inputs), work_dir)
    if tracer is None:
        phase.workload.setup()
        phase.run_count(passes)
    else:
        with tracer.installed():
            phase.workload.setup()
            phase.run_count(passes)
    return phase


def test_wrappers_restored_after_traced_run():
    originals = {site: spans.resolve(site) for site in _all_sites()}
    originals = {site: owner.__dict__[attr] for site, (owner, attr) in originals.items()}
    work = _scratch()
    try:
        tracer = spans.Tracer()
        phase = _smoke_phase("classify", work, tracer, passes=1)
        assert phase.failed == 0 and not phase.breaches
        assert tracer.spans and tracer.patches.all_restored()
        for site, original in originals.items():
            owner, attr = spans.resolve(site)
            assert owner.__dict__[attr] is original, site
        # restored on an exception too
        try:
            with spans.Tracer().installed():
                raise KeyError("boom")
        except KeyError:
            pass
        for site, original in originals.items():
            owner, attr = spans.resolve(site)
            assert owner.__dict__[attr] is original, site
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_smoke_runs_pass_the_output_checks():
    for name in workloads.WHY:
        work = _scratch()
        try:
            phase = _smoke_phase(name, work)
            per_pass = sum(cases for _, cases in phase.workload.expected())
            assert not phase.breaches, (name, phase.breaches)
            assert phase.failed == 0 and len(phase.passes) == 2, name
            assert phase.attempted == 2 * per_pass, name
            tracer = spans.Tracer()
            traced = _smoke_phase(name, work / "traced", tracer, passes=1)
            assert traced.passes[0].sha256 == phase.passes[0].sha256, name
            assert spans.layer_metrics(tracer)["cbc.score.calls"] > 0, name
        finally:
            shutil.rmtree(work, ignore_errors=True)


def test_checks_catch_a_wrong_answer():
    work = _scratch()
    try:
        inputs = workloads.make_inputs(work, seed=3, size=workloads.SMOKE)
        checker = workloads.Checker(inputs)
        truth, predicted = inputs.candidates[:2]
        right = checker.reference[(predicted, truth)]
        assert right > 0 and checker.case_ok(truth, predicted, right)
        assert not checker.case_ok(truth, predicted, right + 1e-6)
        assert not checker.case_ok(truth, "no-such-light", right)
        assert not checker.case_ok(truth, predicted, float("nan"))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_full_size_counts_match_the_workload_table():
    inputs = workloads.Inputs(
        manifest=Path("unused/dataset.txt"),
        work_dir=Path("unused"),
        size=workloads.FULL,
        candidates=tuple(f"c{i}" for i in range(28)),
        spds={},
        n_test=8,
    )
    expected = {
        "grid_nnmf": [(10, 2240)],
        "grid_hist": [(157, 29792), (6, 1344)],
        "classify": [(224, 224)],
    }
    for name, counts in expected.items():
        workload = workloads.make_workload(name, inputs)
        if name != "classify":
            workload.setup()
        assert workload.expected() == counts, name


def test_benchmark_json_agrees_with_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["command"] == ["python3", "bench/run.py"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in metrics.PER_LAYER
    ]
    traced = set(spans.layer_metrics(spans.Tracer())) | {"trace.overhead_s"}
    assert traced == {m.name for m in metrics.PER_LAYER}


def test_fails_without_the_sources():
    bare = _scratch()
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "classify", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode != 0
        assert '"correct"' not in done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    failed = 0
    for test_name, fn in list(globals().items()):
        if test_name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {test_name}")
            except Exception as exc:  # report every test, then fail the run
                failed += 1
                print(f"FAIL {test_name}: {type(exc).__name__}: {exc}")
    sys.exit(1 if failed else 0)
