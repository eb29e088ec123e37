"""The benchmark's workloads: inputs from a seed, set-up, one pass, output checks.

Every call into illumest goes through a module attribute at call time
(`illumest.cbc.classify(...)`), so the wrappers that `spans` installs see it.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import illumest
from illumest import bundled, cbc, evaluation, illuminants, io, projections, spectral


@dataclass(frozen=True)
class Size:
    """Input and sweep sizes; FULL is the benchmark, SMOKE its self-test."""

    scenes: int = 24
    side: int = 32
    d_primes: tuple[int, ...] = (1, 2, 3, 4, 5)
    nnmf_bins: tuple[int, ...] = (5, 10)
    hist_bins: tuple[int, ...] = (5, 10, 20, 30)
    noise_d_prime: int = 4
    noise_bins: int = 20
    classify_d_prime: int = 5
    classify_bins: int = 20


FULL = Size()
SMOKE = Size(
    scenes=6,
    side=16,
    d_primes=(1, 2),
    nnmf_bins=(5,),
    hist_bins=(5,),
    noise_d_prime=2,
    noise_bins=5,
    classify_d_prime=2,
    classify_bins=5,
)

HIST_METHODS = ("rgb", "rand", "pca", "ill_pca", "lda", "sgw")
PROJECTION_SET_K = 10
EVAL_DOWNSAMPLE = 4


@dataclass
class Inputs:
    """Generated scenes plus the bundled candidates and cameras."""

    manifest: Path
    work_dir: Path
    size: Size
    candidates: tuple[str, ...]
    spds: dict  # candidate name -> raw SPD values
    n_test: int


def make_inputs(work_dir: Path, seed: int, size: Size = FULL) -> Inputs:
    """Write the seed's scenes (16 train / 8 test at FULL) into work_dir."""
    illumest.synth_dataset(
        work_dir / "scenes",
        size.scenes,
        spectral.SpectralAxis(),
        base_seed=seed,
        width=size.side,
        height=size.side,
    )
    return describe_inputs(work_dir, size)


def describe_inputs(work_dir: Path, size: Size = FULL) -> Inputs:
    """The Inputs for scenes that make_inputs already wrote into work_dir."""
    manifest = work_dir / "scenes" / "dataset.txt"
    full = illuminants.load_illuminants(bundled.bundled_illuminant_manifest())
    _, test = io.read_dataset_manifest(manifest)
    return Inputs(
        manifest=manifest,
        work_dir=work_dir,
        size=size,
        candidates=tuple(full.names()),
        spds={ill.name: ill.spd.values for ill in full},
        n_test=len(test),
    )


def reference_error_deg(a: np.ndarray, b: np.ndarray) -> float:
    """Angle between two spectra, computed here rather than by illumest."""
    ua = a / np.linalg.norm(a)
    ub = b / np.linalg.norm(b)
    return math.degrees(
        2.0 * math.atan2(float(np.linalg.norm(ua - ub)), float(np.linalg.norm(ua + ub)))
    )


@dataclass
class PassResult:
    """What one pass produced, and how many of its operations breached a check."""

    wall_s: float
    attempted: int
    failed: int
    errors: list[float]
    report: bytes
    breaches: list[str] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.report).hexdigest()


class Checker:
    """Checks one case: a known candidate and the correct, in-range error."""

    def __init__(self, inputs: Inputs) -> None:
        spds = inputs.spds
        self.reference = {
            (a, b): reference_error_deg(spds[a], spds[b]) for a in spds for b in spds
        }

    def case_ok(self, true_name: str, predicted: str, error_deg: float) -> bool:
        expected = self.reference.get((predicted, true_name))
        if expected is None or not math.isfinite(error_deg):
            return False
        return 0.0 <= error_deg <= 180.0 and abs(error_deg - expected) <= 1e-9


# ---------------------------------------------------------------------------
# Grid workloads
# ---------------------------------------------------------------------------


def expected_grid_counts(
    methods, d_primes, bins, n_cameras: int, n_rand_seeds: int, n_cases_per_row: int
) -> tuple[int, int]:
    """(report rows, cases) that run_grid must produce for a sweep."""
    rows = case_rows = 0
    for method in methods:
        if method == "sgw":
            rows += 1
            case_rows += 1
            continue
        n_d = 1 if method == "rgb" else len(d_primes)
        variants = {"rgb": n_cameras, "rand": n_rand_seeds}.get(method, 1)
        case_rows += n_d * variants * len(bins)
        rows += n_d * variants * len(bins)
        if variants > 1:
            rows += n_d * len(bins)  # the per-variant average rows
    return rows, case_rows * n_cases_per_row


class GridWorkload:
    """`run_grid` (and for grid_hist `run_noise`) over the generated scenes."""

    #: Passes a traced run measures, untraced and then traced.
    trace_passes = 1

    def __init__(self, inputs: Inputs, methods, bins, with_noise: bool) -> None:
        self.inputs = inputs
        self.methods = tuple(methods)
        self.bins = tuple(bins)
        self.with_noise = with_noise
        self.checker = Checker(inputs)
        self.config = None

    def setup(self) -> None:
        size = self.inputs.size
        self.config = evaluation.GridConfig(
            dataset=self.inputs.manifest,
            illuminants=bundled.bundled_illuminant_manifest(),
            methods=self.methods,
            d_primes=size.d_primes,
            bins=self.bins,
            cameras=tuple(bundled.bundled_camera_paths()) if "rgb" in self.methods else (),
            noise_d_prime=size.noise_d_prime,
            noise_bins=size.noise_bins,
        )

    def expected(self) -> list[tuple[int, int]]:
        """(rows, cases) per report of one pass."""
        cfg = self.config
        per_row = self.inputs.n_test * len(self.inputs.candidates)
        out = [
            expected_grid_counts(
                cfg.methods, cfg.d_primes, cfg.bins, len(cfg.cameras),
                len(cfg.rand_seeds), per_row,
            )
        ]
        if self.with_noise:
            n_noise = 1 + len(cfg.noise_levels)
            out.append((n_noise, n_noise * per_row))
        return out

    def run_pass(self, pass_dir: Path) -> PassResult:
        start = time.perf_counter()
        reports = [evaluation.run_grid(self.config)]
        if self.with_noise:
            reports.append(evaluation.run_noise(self.config))
        paths = []
        for k, report in enumerate(reports):
            paths += [pass_dir / f"report{k}.csv", pass_dir / f"report{k}_raw.csv"]
            report.write_csv(paths[-2])
            report.write_raw_csv(paths[-1])
        wall = time.perf_counter() - start
        return self._check(reports, b"".join(p.read_bytes() for p in paths), wall)

    def _check(self, reports, blob: bytes, wall: float) -> PassResult:
        expected = self.expected()
        attempted = sum(cases for _, cases in expected)
        breaches = []
        errors = []
        failed = 0
        for report, (n_rows, n_cases) in zip(reports, expected):
            case_rows = [r for r in report.rows if r.cases is not None]
            cases = [c for r in case_rows for c in r.cases]
            if len(report.rows) != n_rows or len(cases) != n_cases:
                breaches.append(
                    f"{len(report.rows)} rows / {len(cases)} cases, "
                    f"expected {n_rows} / {n_cases}"
                )
                failed += n_cases
                continue
            bad = sum(
                not self.checker.case_ok(c.true_name, c.predicted, c.error_deg)
                for c in cases
            )
            if bad:
                breaches.append(f"{bad} cases with an unknown name or a wrong error")
            failed += bad
            errors.extend(c.error_deg for c in cases)
        if self.with_noise and not breaches:
            cfg = self.config
            key = (cfg.noise_method, cfg.noise_d_prime, cfg.noise_bins, "-", "-")
            (grid_row,) = [
                r for r in reports[0].rows
                if (r.method, r.d_prime, r.n_bins, r.variant, r.noise_label) == key
            ]
            (clean,) = [r for r in reports[1].rows if r.noise_label == "clean"]
            if grid_row.cases != clean.cases:
                breaches.append("noise clean row differs from its grid row")
                failed += len(clean.cases)
        return PassResult(wall, attempted, failed, errors, blob, breaches)


# ---------------------------------------------------------------------------
# Single-scene classification
# ---------------------------------------------------------------------------


class ClassifyWorkload:
    """CLI-path model set-up, then closed-loop `classify` on full-size cubes.

    One pass is one set of requests: every test scene relit by every
    candidate's normalized SPD, in a fixed order.
    """

    trace_passes = 50

    def __init__(self, inputs: Inputs) -> None:
        self.inputs = inputs
        self.checker = Checker(inputs)
        self.model = None
        self.requests: list = []

    def setup(self) -> None:
        size = self.inputs.size
        work = self.inputs.work_dir
        full = illuminants.load_illuminants(bundled.bundled_illuminant_manifest())
        proj_set = illuminants.select_projection_set(full, k=PROJECTION_SET_K, seed=0)
        projections.write_projection(
            work / "basis.proj", projections.fit_ill_pca(proj_set, size.classify_d_prime)
        )
        train, test = io.read_dataset_manifest(self.inputs.manifest)
        images = [
            spectral.downsample(io.read_scube(p), EVAL_DOWNSAMPLE) for p in train
        ]
        built = cbc.build_model(
            images, full, projections.read_projection(work / "basis.proj"),
            size.classify_bins,
        )
        cbc.write_model(work / "model.cbcm", built)
        # The CLI builds and classifies in separate processes: drop the built
        # model before loading the file, as that path holds only one.
        del built, images
        self.model = cbc.read_model(work / "model.cbcm").with_projection(
            projections.read_projection(work / "basis.proj")
        )
        self.requests = []
        for path in test:
            cube = io.read_scube(path)
            for ill in full:
                radiance = spectral.relight(cube, ill.normalized_spd())
                self.requests.append((path.stem, ill.name, radiance))

    def expected(self) -> list[tuple[int, int]]:
        n = self.inputs.n_test * len(self.inputs.candidates)
        return [(n, n)]

    def run_pass(self, pass_dir: Path) -> PassResult:
        clock = time.perf_counter
        latencies = []
        answers = []
        start = clock()
        for _, _, radiance in self.requests:
            sent = clock()
            try:
                answers.append(cbc.classify(self.model, radiance))
            except Exception as exc:  # a request that raised is a failed operation
                answers.append(exc)
                continue
            latencies.append(clock() - sent)
        wall = clock() - start
        lines = []
        errors = []
        failed = 0
        for (scene, true_name, _), answer in zip(self.requests, answers):
            if isinstance(answer, Exception):
                failed += 1
                lines.append(f"{scene},{true_name},error:{type(answer).__name__}")
                continue
            name, scores = answer
            err = float("nan")
            if name in self.inputs.spds:
                err = evaluation.angular_error_deg(
                    self.inputs.spds[name], self.inputs.spds[true_name]
                )
            failed += not self.checker.case_ok(true_name, name, err)
            errors.append(err)
            lines.append(
                f"{scene},{true_name},{name},{io.format_float(err)},"
                + ",".join(io.format_float(float(s)) for s in scores)
            )
        breaches = [f"{failed} requests failed or gave a wrong answer"] if failed else []
        report = ("\n".join(lines) + "\n").encode("utf-8")
        return PassResult(
            wall, len(self.requests), failed, errors, report, breaches, latencies
        )


WHY = {
    "grid_nnmf": "run_grid nnmf, d' 1..5, B 5/10: 10 rows, 2,240 cases. "
    "linalg.nnls fallback does nearly all the work; histograms stay small.",
    "grid_hist": "run_grid rgb/rand/pca/ill_pca/lda/sgw, d' 1..5, B 5..30, 3 cameras, "
    "then run_noise: 157+6 rows, 29,792+1,344 cases. cbc scoring dominates; no NNLS.",
    "classify": "CLI-path model set-up (ill_pca d'=5, B=20), then closed-loop "
    "classify of 224 full-size cubes per pass: scoring latency, set-up and memory.",
}


def make_workload(name: str, inputs: Inputs):
    size = inputs.size
    if name == "grid_nnmf":
        return GridWorkload(inputs, ("nnmf",), size.nnmf_bins, with_noise=False)
    if name == "grid_hist":
        return GridWorkload(inputs, HIST_METHODS, size.hist_bins, with_noise=True)
    if name == "classify":
        return ClassifyWorkload(inputs)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WHY)}")
