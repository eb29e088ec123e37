"""Angular-error evaluation: metrics, run configuration, and the runners.

`run_grid` sweeps estimation methods over projection dimensionalities and
histogram resolutions; `run_noise` repeats one pinned configuration across
sensor noise levels. Both are fully deterministic: rerunning a fixed
configuration reproduces the report files byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, astuple, dataclass, field, fields
from functools import cache, cached_property, partial
from itertools import combinations
from pathlib import Path
from typing import Optional, Sequence, Union, get_args, get_origin, get_type_hints

import numpy as np

from .baselines import spectral_gray_world
from . import cbc
from .cbc import (
    DEFAULT_SMOOTHING,
    MODE_LOG,
    SCORE_MODES,
    BlockFeatures,
    build_model,
    calibrate_bounds,
    cell_count,
    classify,
    prefix_cells,
    training_features,
    training_pixels,
    unit_coordinates,
)
from .illuminants import IlluminantSet, load_illuminants, select_projection_set
from .io import (
    FormatError,
    format_float,
    read_dataset_manifest,
    read_name_list,
    read_scube,
    read_sensitivities,
    read_text,
)
from .projections import (
    KIND_ILL_PCA,
    KIND_LDA,
    KIND_NNMF,
    KIND_PCA,
    KIND_RAND,
    KIND_RGB,
    NESTED_KINDS,
    TrainingMatrix,
    covariance_components,
    fit_ill_pca,
    fit_lda,
    fit_nnmf,
    fit_pca,
    fit_rand,
    fit_rgb,
    leading_projection,
)
from .spectral import (
    SpectralAxis,
    SpectralImage,
    Spectrum,
    add_noise,  # noqa: F401  (not called here: a bench/spans.py trace site)
    chromaticity_rows,
    downsample,
    mix_seed,
    noise_draw,
    noisy_rows,
    relight,
)

METHOD_SGW = "sgw"
#: The GridConfig factor each kind that fits from the training scenes reads them at.
FIT_OPTIONS = {KIND_PCA: "downsample_fit", KIND_NNMF: "downsample_fit", KIND_LDA: "downsample_lda"}
GRID_METHODS = (KIND_RGB, KIND_RAND, KIND_PCA, KIND_ILL_PCA, KIND_NNMF, KIND_LDA)
ALL_METHODS = GRID_METHODS + (METHOD_SGW,)

AVG_VARIANT = "avg"
NO_VARIANT = "-"


def angular_error_deg(
    a: Union[Spectrum, np.ndarray], b: Union[Spectrum, np.ndarray]
) -> float:
    """Angle between two spectra in degrees (scale-invariant)."""
    va = a.values if isinstance(a, Spectrum) else np.asarray(a, dtype=np.float64)
    vb = b.values if isinstance(b, Spectrum) else np.asarray(b, dtype=np.float64)
    if va.shape != vb.shape or va.ndim != 1:
        raise ValueError(f"incompatible shapes {va.shape} and {vb.shape}")
    na = float(np.linalg.norm(va))
    nb = float(np.linalg.norm(vb))
    if na <= 0 or nb <= 0:
        raise ValueError("angular error is undefined for zero vectors")
    ua = va / na
    ub = vb / nb
    # chord form of acos(ua . ub): same angle, but well conditioned near 0
    # and 180 degrees, and exactly zero for identical inputs
    diff = float(np.linalg.norm(ua - ub))
    total = float(np.linalg.norm(ua + ub))
    return math.degrees(2.0 * math.atan2(diff, total))


@dataclass(frozen=True)
class ErrorSummary:
    """Standard aggregate statistics over a set of angular errors."""

    mean: float
    median: float
    trimean: float
    best25: float
    worst25: float
    n: int


def summarize(errors: np.ndarray) -> ErrorSummary:
    """The `summarize_rows` summary of a non-empty 1-D error array."""
    errs = np.asarray(errors, dtype=np.float64)
    if errs.ndim != 1 or errs.size == 0:
        raise ValueError("need a non-empty 1-D error array")
    return summarize_rows(errs[None])[0]


def summarize_rows(errors: np.ndarray) -> list[ErrorSummary]:
    """Mean, median, Tukey trimean, and best/worst-25% means of each row of
    a (rows, n) error matrix, n >= 1, each one reduction along the rows.

    The trimean is (Q1 + 2*Q2 + Q3) / 4 with linearly interpolated
    quartiles. Best/worst-25% average the ceil(n/4) smallest/largest values.
    """
    n, m = errors.shape[-1], math.ceil(errors.shape[-1] / 4)
    q1, q2, q3 = np.quantile(errors, [0.25, 0.5, 0.75], axis=-1)
    ordered = np.sort(errors, axis=-1)
    stats = (errors.mean(axis=-1), np.median(errors, axis=-1), (q1 + 2 * q2 + q3) / 4,
             ordered[:, :m].mean(axis=-1), ordered[:, -m:].mean(axis=-1))
    return [ErrorSummary(*row, n) for row in np.column_stack(stats).tolist()]


@dataclass(frozen=True, slots=True)
class CaseResult:
    """One (test scene, true illuminant) classification outcome."""

    scene: str
    true_name: str
    predicted: str
    error_deg: float


@dataclass(frozen=True, eq=False)
class CaseTable:
    """A runner's test scene and candidate names, and errors[p, t]: the angular
    error of predicting candidate p when candidate t is true."""

    scenes: tuple[str, ...]
    candidates: tuple[str, ...]
    errors: np.ndarray

    def report_rows(self, predictions) -> list["ReportRow"]:
        """The row of each (key, predicted) pair of `predictions`: every row's
        errors, scene-major, gathered at once and summarized in one pass."""
        keys, predicted = zip(*predictions)
        errors = self.errors[np.stack(predicted), np.arange(len(self.candidates))]
        summaries = summarize_rows(errors.reshape(len(keys), -1))
        return [ReportRow(*key, s, p, self) for key, s, p in zip(keys, summaries, predicted)]

    @cached_property
    def error_rows(self) -> list[list[float]]:
        """`errors` as floats made once, which every row's `CaseResult`s share:
        one float per (predicted, true) pair, not one per case."""
        return self.errors.tolist()

    @cached_property
    def raw_fields(self) -> list[list[str]]:
        """The raw CSV's "true,predicted,error" text of each (p, t) pair."""
        names = self.candidates
        return [[f"{t},{p},{format_float(e)}" for t, e in zip(names, row)]
                for p, row in zip(names, self.error_rows)]


@dataclass(eq=False)
class ReportRow:
    """One aggregate line of a report."""

    method: str
    d_prime: Optional[int]
    n_bins: Optional[int]
    variant: str
    noise_label: str  # "-" for grid rows, "clean" or a dB figure for noise rows
    summary: ErrorSummary
    # (test scene, true candidate) indices into table.candidates; None on averaged rows
    predicted: Optional[np.ndarray] = None
    table: Optional[CaseTable] = None

    @property
    def cases(self) -> Optional[list[CaseResult]]:
        """One `CaseResult` per case, scene-major; None on averaged rows."""
        t = self.table
        return None if t is None else [
            CaseResult(scene, t.candidates[j], t.candidates[p], t.error_rows[p][j])
            for scene, preds in zip(t.scenes, self.predicted.tolist())
            for j, p in enumerate(preds)
        ]

    def sort_key(self):
        if self.noise_label == NO_VARIANT:
            noise_rank = (0, 0.0)
        elif self.noise_label == "clean":
            noise_rank = (1, 0.0)
        else:
            noise_rank = (2, -float(self.noise_label))
        return (
            self.method,
            -1 if self.d_prime is None else self.d_prime,
            -1 if self.n_bins is None else self.n_bins,
            1 if self.variant == AVG_VARIANT else 0,
            self.variant,
            noise_rank,
        )

    def key_columns(self) -> list[str]:
        """The method, d', B, variant and noise columns both CSVs start with."""
        dims = (NO_VARIANT if v is None else str(v) for v in (self.d_prime, self.n_bins))
        return [self.method, *dims, self.variant, self.noise_label]


_REPORT_HEADER = "method,d_prime,B,variant,noise_db,mean,median,trimean,best25,worst25,n"
_RAW_HEADER = "method,d_prime,B,variant,noise_db,scene,true_illuminant,predicted,error_deg"


@dataclass
class EvalReport:
    """Ordered report rows plus CSV writers (aggregate and per-case)."""

    rows: list[ReportRow] = field(default_factory=list)

    def sorted_rows(self) -> list[ReportRow]:
        return sorted(self.rows, key=ReportRow.sort_key)

    def write_csv(self, path) -> None:
        lines = [_REPORT_HEADER]
        for r in self.sorted_rows():
            *stats, n = astuple(r.summary)
            lines.append(",".join(r.key_columns() + [format_float(v) for v in stats] + [str(n)]))
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    def write_raw_csv(self, path) -> None:
        """One line per case, written a report row at a time, not joined whole."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(_RAW_HEADER + "\n")
            for r in self.sorted_rows():
                if r.table is not None:
                    key, texts = ",".join(r.key_columns()), r.table.raw_fields
                    out.write("".join(
                        f"{key},{scene},{texts[p][t]}\n"
                        for scene, preds in zip(r.table.scenes, r.predicted.tolist())
                        for t, p in enumerate(preds)
                    ))


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------


#: The least value of each integer GridConfig field, or of every value of a list
#: field (an empty list is rejected too); one bin would tie every candidate.
_LEAST = {
    "d_primes": 1, "bins": 2, "rand_seeds": 0, "projection_set_k": 2, "projection_set_seed": 0,
    "downsample_fit": 1, "downsample_lda": 1, "downsample_eval": 1, "nnmf_seed": 0,
    "nnmf_max_iter": 1, "noise_master_seed": 0, "noise_d_prime": 1, "noise_bins": 2,
}


@dataclass
class GridConfig:
    """Everything a grid or noise run needs; parseable from `key = value` text."""

    dataset: Path
    illuminants: Path
    methods: tuple[str, ...]
    d_primes: tuple[int, ...] = (1, 2, 3, 4, 5)
    bins: tuple[int, ...] = (5, 10, 20, 30)
    cameras: tuple[Path, ...] = ()
    rand_seeds: tuple[int, ...] = (42, 43, 44)
    projection_set: Optional[Path] = None  # names file; None clusters instead
    projection_set_k: int = 10
    projection_set_seed: int = 0
    downsample_fit: int = 8
    downsample_lda: int = 16
    downsample_eval: int = 4
    nnmf_seed: int = 0
    nnmf_max_iter: int = 300
    score_mode: str = MODE_LOG
    smoothing: float = DEFAULT_SMOOTHING
    allow_overlap: bool = False
    noise_master_seed: int = 1234
    noise_levels: tuple[float, ...] = (50.0, 40.0, 30.0, 20.0, 10.0)
    noise_method: str = KIND_ILL_PCA
    noise_d_prime: int = 4
    noise_bins: int = 20

    def __post_init__(self) -> None:
        self.dataset = Path(self.dataset)
        self.illuminants = Path(self.illuminants)
        self.methods = tuple(self.methods)
        if not self.methods:
            raise ValueError("config needs at least one method")
        for m in self.methods:
            if m not in ALL_METHODS:
                raise ValueError(
                    f"unknown method {m!r}; valid: {', '.join(ALL_METHODS)}"
                )
        for name in ("methods", "d_primes", "bins", "rand_seeds", "noise_levels"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must be unique, got {values}")
        if KIND_RGB in self.methods and not self.cameras:
            raise ValueError("the rgb method needs at least one camera file")
        self.cameras = tuple(Path(c) for c in self.cameras)
        for name, least in _LEAST.items():
            value = getattr(self, name)
            if min(np.atleast_1d(value), default=least - 1) < least:
                raise ValueError(f"{name} must be >= {least}, got {value!r}")
        if self.score_mode not in SCORE_MODES:
            raise ValueError(f"score_mode must be one of {SCORE_MODES}")
        if not (np.isfinite(self.smoothing) and self.smoothing > 0):
            raise ValueError(f"smoothing must be finite and > 0, got {self.smoothing}")
        if self.projection_set is not None:
            self.projection_set = Path(self.projection_set)
        if self.noise_method not in GRID_METHODS:
            raise ValueError(f"noise_method must be one of {GRID_METHODS}")
        if any(not np.isfinite(l) for l in self.noise_levels):
            raise ValueError("noise_levels must be finite dB values")


def _split_list(raw: str) -> list[str]:
    return [p.strip() for p in raw.split(",") if p.strip()]


def _parse_path(rhs: str, base: Path) -> Path:
    if not rhs:
        raise ValueError("expected a path, got nothing")
    return (base / rhs).resolve()


def _parse_bool(rhs: str, base: Path) -> bool:
    low = rhs.lower()
    if low not in ("true", "false"):
        raise ValueError(f"expected true/false, got {rhs!r}")
    return low == "true"


_SCALAR_PARSERS = {
    Path: _parse_path,
    str: lambda rhs, base: rhs,
    int: lambda rhs, base: int(rhs),
    float: lambda rhs, base: float(rhs),
    bool: _parse_bool,
}


def _field_parser(annotation):
    """The `(value text, config directory) -> value` parser for a GridConfig
    field type: a scalar, Optional[scalar], or tuple[scalar, ...] as a
    comma-separated list."""
    args = get_args(annotation)
    if get_origin(annotation) is tuple and args[1:] == (Ellipsis,):
        item = _field_parser(args[0])
        return lambda rhs, base: tuple(item(p, base) for p in _split_list(rhs))
    if get_origin(annotation) is Union and args[1:] == (type(None),):
        return _field_parser(args[0])  # a config spells no None; omit the key
    if annotation not in _SCALAR_PARSERS:
        raise TypeError(f"no config parser for GridConfig field type {annotation}")
    return _SCALAR_PARSERS[annotation]


# Config keys are GridConfig's fields; an unparseable field type fails here.
_FIELD_PARSERS = {
    name: _field_parser(annotation)
    for name, annotation in get_type_hints(GridConfig).items()
}
_REQUIRED_KEYS = [
    f.name
    for f in fields(GridConfig)
    if f.default is MISSING and f.default_factory is MISSING
]


def parse_config(path) -> GridConfig:
    """Parse a `key = value` run configuration file.

    The keys are GridConfig's fields. Unknown or duplicate keys and empty
    paths are errors. Relative paths resolve against the config file's
    directory. Lists are comma-separated; booleans are true/false. Lines
    starting with '#' and blank lines are skipped.
    """
    path = Path(path)
    base = path.parent
    values: dict = {}
    for lineno, raw in enumerate(read_text(path).splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FormatError(f"{path}:{lineno}: expected 'key = value'")
        key, _, rhs = line.partition("=")
        key = key.strip()
        if key not in _FIELD_PARSERS:
            raise FormatError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise FormatError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = _FIELD_PARSERS[key](rhs.strip(), base)
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from exc
    for required in _REQUIRED_KEYS:
        if required not in values:
            raise FormatError(f"{path}: missing required key {required!r}")
    try:
        return GridConfig(**values)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------


def training_chromaticities(
    images: Sequence[SpectralImage],
    candidates: IlluminantSet,
    labelled: bool = False,
) -> TrainingMatrix:
    """Pooled chromaticities of every image relit by every candidate.

    Rows are ordered candidate-major (all scenes under candidate 0, then
    candidate 1, ...). With `labelled=True` each row carries its candidate's
    index as the class label, which is what the supervised fit needs.
    """
    pixels = training_pixels(images, candidates)
    spds = candidates.spd_matrix()
    # one matrix, filled as each candidate's rows arrive; black rows leave its tail unused
    rows, filled, counts = np.empty((len(spds) * len(pixels), pixels.shape[1])), 0, []
    for spd in spds:
        part = chromaticity_rows(pixels * spd)[0]
        rows[filled : filled + len(part)] = part
        filled += len(part)
        counts.append(len(part))
    if not filled:
        raise ValueError("training scenes contain no usable pixels")
    rows = rows[:filled]
    rows /= rows.sum(axis=1, keepdims=True)  # force exact unit row sums
    if labelled:
        if not all(counts):
            raise ValueError("every candidate needs at least one training pixel")
        return TrainingMatrix(rows, labels=np.repeat(np.arange(len(counts)), counts))
    return TrainingMatrix(rows)


def read_scenes(
    wanted: dict[str, tuple[int, Sequence[Path]]], axis: Optional[SpectralAxis] = None
) -> dict[str, list[SpectralImage]]:
    """The cubes of `wanted`, {option: (factor, paths)}, as {option: their
    images in `paths` order}: each distinct cube is read once and downsampled
    once by each factor of the options that name it, so options of one factor
    share its images. A cube off `axis` (when given) fails naming its file,
    and a factor that does not divide it fails naming the option and the file."""
    images = {}
    for path in dict.fromkeys(p for _, paths in wanted.values() for p in paths):
        cube = read_scube(path)
        if axis is not None and cube.axis != axis:
            raise ValueError(f"{path}: scene grid [{cube.axis}] does not match illuminants")
        for option, (factor, paths) in wanted.items():
            try:
                if path in paths and (path, factor) not in images:
                    images[path, factor] = downsample(cube, factor)
            except ValueError as exc:
                raise ValueError(f"{path}: {option} {exc}") from None
    return {option: [images[p, f] for p in paths] for option, (f, paths) in wanted.items()}


def projection_set(
    full: IlluminantSet, names_file, k: int, seed: int, k_option: str = "projection_set_k"
) -> IlluminantSet:
    """The candidates named in `names_file`, or else k-means picks from `full`;
    a name not in `full` fails naming the file, a k past the set `k_option`."""
    if names_file is not None:
        try:
            return full.subset(read_name_list(names_file))
        except KeyError as exc:
            raise FormatError(f"{names_file}: {exc.args[0]}") from None
    try:
        return select_projection_set(full, k=k, seed=seed)
    except ValueError as exc:
        raise ValueError(f"{k_option} {k}: {exc}") from None


def check_fittable(
    method: str, d_primes: Sequence[int], proj_set: IlluminantSet, cameras=()
) -> None:
    """Reject a d' beyond what `method` can fit, or a camera of `cameras`
    off the set's wavelength grid, before any fit runs.

    With k projection-set candidates: lda fits at most k - 1 dimensions,
    ill_pca the components its fit's sample covariance of the set's SPDs
    supports (`covariance_components`), the other projections at most the
    band count; rgb is pinned to its three channels and sgw has no projection.
    """
    for camera in cameras:
        if camera.axis != proj_set.axis:
            raise ValueError(f"{camera.camera_name}: camera grid does not match illuminants")
    if method in (KIND_RGB, METHOD_SGW):
        return
    k, bands = len(proj_set), proj_set.axis.count
    if method == KIND_ILL_PCA:
        limit = covariance_components(proj_set.chromaticity_matrix())[2] if k > 1 else 0
        why = f"the {k} projection-set SPDs support at most {limit} components"
    else:
        limit = k - 1 if method == KIND_LDA else bands
        why = f"at most {limit} with {k} projection-set candidates and {bands} bands"
    for d_prime in d_primes:
        if d_prime > limit:
            raise ValueError(f"{method} cannot fit d' = {d_prime}: {why}")


def fit_projection(method, d_prime, proj_set, training, seed, max_iter, camera):
    """Fit `method` at d' that `check_fittable` passed: rgb from `camera`,
    rand from `seed`, ill_pca from the projection set's SPDs, pca and nnmf
    (`seed`, `max_iter`) from `training(False)` and lda from
    `training(True)`, the set's relit training chromaticities (labelled)."""
    if method == KIND_RGB:
        return fit_rgb(camera)
    if method == KIND_RAND:
        return fit_rand(proj_set.axis.count, d_prime, seed=seed)
    if method == KIND_PCA:
        return fit_pca(training(False), d_prime)
    if method == KIND_ILL_PCA:
        return fit_ill_pca(proj_set, d_prime)
    if method == KIND_NNMF:
        return fit_nnmf(training(False), d_prime, seed=seed, max_iter=max_iter)
    if method == KIND_LDA:
        return fit_lda(training(True), d_prime)
    raise ValueError(f"method {method!r} has no projection")


class _Runner:
    """Loads a run's inputs once, then sweeps (method, variant, B, d') cells,
    which the report writers sort, scoring each cell's model at every noise level."""

    def __init__(self, config: GridConfig):
        """Read the illuminants and the dataset manifest; each sweep reads the
        scenes (`_read`) once its settings are checked."""
        self.config = config
        self.full = load_illuminants(config.illuminants)
        self.proj_set = projection_set(
            self.full, config.projection_set, config.projection_set_k, config.projection_set_seed
        )
        train_paths, test_paths = read_dataset_manifest(config.dataset)
        if not config.allow_overlap:
            overlap = set(train_paths) & set(test_paths)
            if overlap:
                raise ValueError(
                    f"train/test scenes overlap: {sorted(str(p) for p in overlap)}"
                )
        self.train_paths, self.test_paths = train_paths, test_paths
        self._spd_rows = self.full.chromaticity_matrix()
        # the angle is symmetric bit for bit and exactly 0 on the diagonal
        errors = np.zeros((len(self.full), len(self.full)))
        for (p, a), (t, b) in combinations(enumerate(self.full), 2):
            errors[p, t] = errors[t, p] = angular_error_deg(a.spd, b.spd)
        scenes = tuple(p.stem for p in test_paths)
        self.table = CaseTable(scenes, tuple(self.full.names()), errors)

    # -- inputs -------------------------------------------------------------

    def _read(self, methods=()) -> dict[str, list[SpectralImage]]:
        """Read each scene once (`read_scenes`): hold the training and the test
        scenes at downsample_eval as `train_eval` and `test_eval`, a test scene
        keeping a valid pixel, and return the training scenes at the fit
        factor of each method of `methods` that fits from them, by option."""
        cfg, train, test = self.config, self.train_paths, self.test_paths
        wanted = {"downsample_eval": train + test}
        wanted.update((FIT_OPTIONS[m], train) for m in methods if m in FIT_OPTIONS)
        images = read_scenes({o: (getattr(cfg, o), ps) for o, ps in wanted.items()}, self.full.axis)
        scenes, factor = images.pop("downsample_eval"), cfg.downsample_eval
        for p, img in zip(test, scenes[len(train):]):
            if not img.mask.any():
                raise ValueError(f"{p}: test scene has no valid pixel at downsample_eval {factor}")
        self.train_eval, self.test_eval = scenes[: len(train)], scenes[len(train):]
        return images

    @cached_property
    def cameras(self) -> dict:
        cams = {}
        for path in self.config.cameras:
            sens = read_sensitivities(path)
            if sens.camera_name in cams:
                raise ValueError(f"duplicate camera name {sens.camera_name!r}")
            cams[sens.camera_name] = sens
        return cams

    # -- fitting ------------------------------------------------------------

    def _fits(self, methods, d_primes, images) -> list[list[tuple]]:
        """Per method, its (served d', variant, projection) triples in report
        order (cameras by name, rand seeds as configured, else one unnamed
        variant): a nested kind fitted once at the largest d' serves every d',
        nnmf fits at each d'. pca and nnmf share one fit matrix and lda has its
        labelled one, each built on first need from its fit-factor `images`."""
        cfg = self.config
        training = cache(lambda labelled: training_chromaticities(
            images["downsample_lda" if labelled else "downsample_fit"], self.proj_set, labelled))
        fits = []
        for method in methods:
            variants = [] if method == METHOD_SGW else [(NO_VARIANT, cfg.nnmf_seed, None)]
            if method == KIND_RGB:
                variants = [(name, None, sens) for name, sens in sorted(self.cameras.items())]
            elif method == KIND_RAND:
                variants = [(str(seed), seed, None) for seed in cfg.rand_seeds]
            nested = [tuple(d_primes)] if method in NESTED_KINDS else [(d,) for d in d_primes]
            fits.append([
                (served, variant, fit_projection(method, max(served), self.proj_set, training,
                                                 seed, cfg.nnmf_max_iter, camera))
                for served in ([(3,)] if method == KIND_RGB else nested)
                for variant, seed, camera in variants
            ])
        return fits

    # -- evaluation ---------------------------------------------------------

    def test_features(
        self, projection, noise_dbs: Sequence[Optional[float]]
    ) -> list[BlockFeatures]:
        """The test scenes' features as one `BlockFeatures` per level of
        `noise_dbs` (None: clean), `kept` (scenes, n_candidates, N_max) with
        each scene's rows padded by unkept ones and `feats` the scenes'
        features in order. Each scene's valid pixels under the normalized
        SPDs come clean from one folded `pixel_features` call. A noisy case,
        the pixels relit by one SPD, draws its noise once from its own
        (scene, candidate) seed and is featurized by one call per noisy
        level, so one case's draw is held at a time."""
        featurize = partial(cbc.pixel_features, projection)  # the module global, traced
        master, scenes = self.config.noise_master_seed, self.test_eval
        shape = (len(scenes), len(self.full), max(int(img.mask.sum()) for img in scenes))
        levels = [(noise_db, [], np.zeros(shape, dtype=bool)) for noise_db in noise_dbs]
        noisy = [level for level in levels if level[0] is not None]
        for i, img in enumerate(scenes):
            px = img.valid_pixels()
            for noise_db, feats, kept in levels:
                if noise_db is None:
                    part, kept[i, :, : len(px)] = featurize(px, self._spd_rows)
                    feats.append(part)
            for j, spd in enumerate(self._spd_rows if noisy else ()):
                radiance = px * spd
                draw = noise_draw(img.mask, px.shape[1], mix_seed(master, i, j))
                for noise_db, feats, kept in noisy:
                    part, kept[i, j, : len(px)] = featurize(noisy_rows(radiance, draw, noise_db))
                    feats.append(part)
        out = []
        for _, feats, kept in levels:
            out.append(BlockFeatures(projection, np.concatenate(feats), kept))
            feats.clear()  # each level's parts go once it is stacked
        return out

    # -- entry points -------------------------------------------------------

    def _sweep(self, methods, d_primes, bins, levels, option="bins") -> EvalReport:
        """One row per (method, variant, B, d', noise level), then the
        variant averages. `levels` holds (noise label, dB or None) pairs.
        Each method's settings are checked before any scene is read; a
        (B, d') grid past `cell_count`'s rule is named by `option`, the
        setting that gave `bins`. One read then gives every scene at
        downsample_eval and the training scenes at each fit factor the
        methods use. Every projection is fitted (`_fits`) before the first
        features are made, and the fit-factor scenes and fit matrices go
        then, so no feature pass holds them."""
        for method in methods:
            cameras = self.cameras.values() if method == KIND_RGB else ()
            check_fittable(method, d_primes, self.proj_set, cameras)
            if method != METHOD_SGW:
                d_prime = 3 if method == KIND_RGB else max(d_primes)
                try:
                    cell_count(max(bins), d_prime)
                except ValueError as exc:
                    raise ValueError(f"{option} {max(bins)} at d' = {d_prime}: {exc}") from None
        images = self._read(methods)
        fits = self._fits(methods, d_primes, images)
        del images  # the fit-factor scenes: only the fits read them
        predictions = []
        for method, fitted in zip(methods, fits):
            if method == METHOD_SGW:
                spds = [ill.normalized_spd() for ill in self.full]
                predicted = np.array([
                    [self.full.index_of(spectral_gray_world(relight(img, spd), self.full)[0])
                     for spd in spds]
                    for img in self.test_eval
                ])
                predictions.append(((method, None, None, NO_VARIANT, NO_VARIANT), predicted))
            for served, variant, proj in fitted:
                predictions += self._predictions(proj, served, bins, levels, method, variant)
        rows = self.table.report_rows(predictions)
        return EvalReport(rows + _average_rows(rows))

    def _predictions(self, proj, d_primes, bins, levels, method, variant) -> list[tuple]:
        """The (row key, predicted) pairs of one fitted projection at every B, d' of
        `d_primes` and noise level, each from one `classify` call over every test
        scene's cases. Its training features fix the bounds once, and they and each
        level's `test_features` become unit coordinates on them once, in place. Each
        B folds each once (`prefix_cells`); prefix k serves d' = k under one
        `leading_projection` for every B. The training features go after their last
        fold, the test features when this returns; each model before the next."""
        features = training_features(self.train_eval, self.full, proj)
        lo, hi = calibrate_bounds(features.feats, proj.output_dim)
        tests = self.test_features(proj, [noise_db for _, noise_db in levels])
        for held in (features, *tests):
            unit_coordinates(held.feats, lo, hi)
        predictions, smoothing, mode = [], self.config.smoothing, self.config.score_mode
        subs = {k: leading_projection(proj, k) if method in NESTED_KINDS else proj
                for k in sorted(d_primes)}
        for n_bins in bins:
            trains = prefix_cells(features.feats, n_bins, d_primes)
            folds = [prefix_cells(scenes.feats, n_bins, d_primes) for scenes in tests]
            for k, sub in subs.items():
                prefix = lambda f, cells: BlockFeatures(
                    sub, f.feats[:, :k], f.kept, (lo[:k], hi[:k], n_bins, cells))
                model = build_model(self.train_eval, self.full, sub, n_bins, smoothing=smoothing,
                                    features=prefix(features, next(trains)))
                if (n_bins, k) == (bins[-1], proj.output_dim):
                    trains.close()  # scoring needs only the test features
                    del features
                # a level folds on to k only now, and lets go of its last prefix once scored
                for (label, _), scenes, fold in zip(levels, tests, folds):
                    scores = classify(model, prefix(scenes, next(fold)), mode=mode)[1]
                    if k == proj.output_dim:
                        fold.close()
                    predicted = np.argmax(scores, axis=-1)  # classify's tie rule
                    predictions.append(((method, k, n_bins, variant, label), predicted))
                del model, scores  # before the next build
        return predictions

    def grid(self) -> EvalReport:
        cfg = self.config
        return self._sweep(cfg.methods, cfg.d_primes, cfg.bins, [(NO_VARIANT, None)])

    def noise(self) -> EvalReport:
        cfg = self.config
        levels = [(_noise_label(db), float(db)) for db in cfg.noise_levels]
        cell = (cfg.noise_method,), (cfg.noise_d_prime,), (cfg.noise_bins,)
        return self._sweep(*cell, [("clean", None)] + levels, "noise_bins")


def _noise_label(level: float) -> str:
    return str(int(level)) if float(level).is_integer() else format_float(level)


def _average_rows(rows: Sequence[ReportRow]) -> list[ReportRow]:
    """Per-(method, d', B, noise) mean of each statistic when variants exist."""
    groups: dict = {}
    for r in rows:
        groups.setdefault((r.method, r.d_prime, r.n_bins, r.noise_label), []).append(r.summary)
    out = []
    for (method, d_prime, n_bins, noise_label), members in groups.items():
        if len(members) > 1:
            stats = np.mean([astuple(m)[:5] for m in members], axis=0).tolist()
            s = ErrorSummary(*stats, sum(m.n for m in members))
            out.append(ReportRow(method, d_prime, n_bins, AVG_VARIANT, noise_label, s))
    return out


def run_grid(config: GridConfig) -> EvalReport:
    """Sweep every configured method over d' and histogram resolutions."""
    return _Runner(config).grid()


def run_noise(config: GridConfig) -> EvalReport:
    """Evaluate the pinned noise cell clean and at each configured SNR."""
    return _Runner(config).noise()
