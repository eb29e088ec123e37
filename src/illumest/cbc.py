"""Correlation-based illuminant classification over binned chromaticities.

For every candidate light source, the projected chromaticities of all usable
training pixels under its SPD are histogrammed on a shared, calibrated grid.
Each projection folds each SPD into its basis, so one product of the training
pixels with the folded bases gives every candidate's features (nnmf's NNLS
then solves on that product); a test image's radiance takes the same product
with a unit SPD.
A test image is classified by correlating its own histogram against each
candidate's (log-likelihood by default) and taking the best-scoring candidate.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import linalg
from .illuminants import IlluminantSet
from .projections import KIND_NNMF, KIND_RGB, Projection
from .spectral import SpectralImage, chromaticity_rows, require_same_axis

DEFAULT_SMOOTHING = 1e-9

#: Calibrated bounds are widened by this fraction of the observed span on
#: each side; a dimension with zero span gets a fixed window of this width.
BOUNDS_MARGIN = 1e-3
DEGENERATE_WIDTH = 1e-6

MODE_LOG = "log"
MODE_DOT = "dot"
SCORE_MODES = (MODE_LOG, MODE_DOT)

CBCM_MAGIC = b"CBCM1"

#: A stored candidate's probabilities, including the base mass of its unseen
#: cells, must sum to 1 within this tolerance.
MASS_TOL = 1e-9

#: Closes a model's cell union, past any real cell: unseen cells read the base column.
SENTINEL_CELL = np.iinfo(np.int64).max

#: The largest B: a .cbcm file stores B as a u32, and up to it B - 1, the
#: clamp's upper bound, is exact in float64.
MAX_BINS = 2**32 - 1


def cell_count(n_bins: int, n_dims: int) -> int:
    """Cells of an n_bins ** n_dims grid, the one rule for the (B, d') of a model and a
    binning: d' >= 1, 1 <= B <= MAX_BINS, cells int64-addressable, else ValueError."""
    if n_dims < 1 or n_bins < 1:
        raise ValueError(f"n_dims and n_bins must be >= 1, got {n_dims}, {n_bins}")
    n_cells = int(n_bins) ** min(n_dims, 64)  # any B > 1 overflows by d' = 64
    if n_cells > SENTINEL_CELL:  # the int64 max: every cell then lies below the sentinel
        raise ValueError("histogram cell space is too large to index")
    if n_bins > MAX_BINS:
        raise ValueError(f"n_bins must be <= MAX_BINS = {MAX_BINS}, got {n_bins}")
    return n_cells


def check_smoothing(smoothing: float, n_cells: int, name: str = "smoothing") -> None:
    """The one smoothing rule, for a model of `n_cells` cells: finite, > 0, and
    smoothing * n_cells finite, so every cell's probability is > 0; `name`
    names the setting in the ValueError."""
    if not (np.isfinite(smoothing) and smoothing > 0):
        raise ValueError(f"{name} must be finite and > 0, got {smoothing}")
    if not math.isfinite(smoothing * n_cells):
        raise ValueError(f"{name} {smoothing} times {n_cells} cells is not finite")


def pixel_features(
    projection: Projection, rows: np.ndarray, spds: Optional[np.ndarray] = None,
    mask: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Histogram coordinates of pixel rows, black rows dropped, and the mask
    of the rows kept.

    Without `spds`, `rows` are (N, bands) radiance and the mask is (N,).
    With `spds`, a (C, bands) table, `rows` are reflectances lit by each SPD
    in turn: the features come candidate-major and the mask is (C, N).
    `mask` (N,) keeps only its rows of the (N, width) product, and N counts
    those: an image's whole cube is multiplied, then its valid rows kept.

    Each SPD s folds into the basis B, so one matmul of the rows with the
    (C, bands, d' + 1) stack of s * B and s gives every candidate's
    (r . (s * B)) / (r . s), with r . s the L1 sum the black test reads: the
    B . c of the chromaticity c = (r * s) / (r . s). Radiance rows are the
    unit-SPD case: one matmul with B and a ones column, which gives their L1
    sums. A linear kind's features are those, minus mean . B for a centered
    kind; nnmf's are their NNLS solutions, from one `nnls_rows` call. rgb
    folds s into its three channels and normalizes their responses. No kind
    builds a relit stack, and none projects chromaticities by `apply_rows`.

    What a call holds: the rows, the product and the kept rows' features
    until the black test has read the product's sums; then the product goes,
    and nnmf's NNLS writes its solutions over the features, a block of at
    most `linalg.BATCH_ROWS` rows copied at a time. So a folded call peaks at
    about one product plus one feature matrix. The features are column-major
    (`chromaticity_rows`); the [B | 1] columns and a centered kind's shift
    mean . B are made once and held with the projection (`Projection.columns`,
    `Projection.shift`), not per call.

    Rows whose L1 sum is at or below ZERO_NORM_EPS are skipped. Non-finite
    SPDs raise ValueError, as does a kept row whose product's last column,
    which every band enters, is not finite (a non-finite band, or overflow).
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != projection.input_dim:
        raise ValueError(f"expected (N, {projection.input_dim}) pixels, got {rows.shape}")
    columns = projection.columns
    if spds is not None:
        spds = np.asarray(spds, dtype=np.float64)
        if spds.ndim != 2 or spds.shape[1] != rows.shape[1]:
            raise ValueError(f"expected (C, {rows.shape[1]}) SPDs, got {spds.shape}")
        if not np.isfinite(spds).all():
            raise ValueError("SPDs must be finite")
        columns = spds[:, :, None] * columns  # (C, bands, width), one product per SPD
    with np.errstate(invalid="ignore", over="ignore"):  # a bad row raises just below
        product = rows @ columns  # (N, width) or (C, N, width)
    if mask is not None:
        product = np.compress(mask, product, axis=-2)
    if not np.isfinite(product[..., -1]).all():  # 0 * nan and 0 * inf are nan
        raise ValueError("radiance must be finite")
    shape, product = product.shape[:-1], product.reshape(-1, product.shape[-1])
    if projection.kind == KIND_RGB:
        feats, kept = chromaticity_rows(product)
    else:
        feats, kept = chromaticity_rows(product[:, :-1], product[:, -1])
    del product  # the black test has read it: only the features are held from here
    if projection.shift is not None:
        feats -= projection.shift
    elif projection.kind == KIND_NNMF:
        feats = linalg.nnls_rows(projection.basis, feats)  # the site bench/spans.py wraps
    return feats, kept.reshape(shape)


def training_pixels(images: Sequence[SpectralImage], candidates: IlluminantSet) -> np.ndarray:
    """The images' valid pixels stacked in order, (N, bands); each image must
    share the candidates' wavelength grid."""
    for img in images:
        require_same_axis(img.axis, candidates.axis, "training images")
    bands = candidates.axis.count
    return np.concatenate([np.empty((0, bands))] + [i.valid_pixels() for i in images])


def calibrate_bounds(rows: np.ndarray, n_dims: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-dimension histogram bounds from observed training coordinates.

    Bounds cover the min/max over the (N, n_dims) rows, widened by
    BOUNDS_MARGIN of the span per side; a degenerate (constant) dimension
    gets a DEGENERATE_WIDTH window centered on the constant.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != n_dims:
        raise ValueError(f"expected (N, {n_dims}) rows, got {rows.shape}")
    if not len(rows):
        raise ValueError("no feature rows to calibrate bounds from")
    # a contiguous row per dimension reduces far faster than the tall array's
    # strided columns; min and max are exact either way
    cols = np.ascontiguousarray(rows.T)
    lo, hi = cols.min(axis=1), cols.max(axis=1)
    span = hi - lo
    degenerate = span <= 0
    center = (lo + hi) / 2.0
    lo = np.where(degenerate, center - DEGENERATE_WIDTH / 2.0, lo - BOUNDS_MARGIN * span)
    hi = np.where(degenerate, center + DEGENERATE_WIDTH / 2.0, hi + BOUNDS_MARGIN * span)
    return lo, hi


def _check_bounds(lo: np.ndarray, hi: np.ndarray) -> None:
    """Reject bounds that cannot bin: each width hi - lo must be finite and
    positive, which also rules out a non-finite lo or hi."""
    widths = [h - l for l, h in zip(lo.tolist(), hi.tolist())]  # floats: no overflow warning
    if not all(map(math.isfinite, widths)):
        raise ValueError("bounds must be finite, and so must each width hi - lo")
    if not all(w > 0 for w in widths):
        raise ValueError("bounds must satisfy lo < hi")


def _check_coords(coords: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
    """Reject coordinates that are not finite (N, d') rows, or bounds that cannot bin them."""
    if coords.ndim != 2 or coords.shape[1] != lo.shape[0]:
        raise ValueError(f"expected (N, {lo.shape[0]}) coords, got {coords.shape}")
    _check_bounds(lo, hi)
    if not np.isfinite(coords).all():
        raise ValueError("coordinates must be finite")


def _bin_digits(scaled: np.ndarray, n_bins: int) -> np.ndarray:
    """The int64 bin of each coordinate scaled to n_bins bins per unit,
    clamped to the edge bins, in the layout of `scaled`, which is overwritten.
    The clamp leaves values in [0, n_bins - 1], where the cast's truncation
    is the floor, so no floor pass runs."""
    # clamp before the cast: a scaled value past the int64 range casts to int64 min
    np.clip(scaled, 0, n_bins - 1, out=scaled)
    return scaled.astype(np.int64)


def bin_indices(
    coords: np.ndarray, lo: np.ndarray, hi: np.ndarray, n_bins: int
) -> np.ndarray:
    """Flat row-major cell index per coordinate row, clamping to edge bins:
    whole-array passes of `(x - lo) / (hi - lo) * n_bins` left to right,
    clamped and cast to int64 bins (`_bin_digits`), whose columns fold into
    the flat index one at a time. The passes keep the layout of `coords`, so
    column-major features (`pixel_features`) run over contiguous columns.
    `unit_coordinates` stores the quotient, so unit coordinates bin to these
    cells at any B, bit for bit."""
    cell_count(n_bins, len(lo))
    coords = np.asarray(coords, dtype=np.float64)
    _check_coords(coords, lo, hi)
    scaled = coords - lo
    scaled /= hi - lo
    scaled *= n_bins
    digits = _bin_digits(scaled, n_bins)
    flat = digits[:, 0].copy()
    for column in digits.T[1:]:
        flat *= n_bins
        flat += column
    return flat


def _cell_runs(kept: np.ndarray, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The histograms of the blocks of the (blocks, N) mask `kept`, whose kept
    rows have the flat cells `flat` in row order: each block's occupied cells
    in ascending order, block by block, their row counts and their block.

    Each block's cells are sorted along its own row; the runs of equal cells
    are the block's occupied cells, in order. When every row is kept that
    sorts a copy of `flat` as it is; otherwise unkept rows are filled in as
    -1, which sorts first and starts no run."""
    n_rows = kept.shape[1]
    padded = not kept.all()
    if padded:
        cells = np.full(kept.shape, -1, dtype=np.int64)
        cells[kept] = flat
        cells.sort(axis=1)
    else:
        cells = np.sort(flat.reshape(kept.shape), axis=1)
    first = np.empty(cells.shape, dtype=bool)
    first[:, 0] = True
    np.not_equal(cells[:, 1:], cells[:, :-1], out=first[:, 1:])
    if padded:
        first &= cells >= 0
    start = np.flatnonzero(first)
    block = start // n_rows
    # A run ends where the next one starts, or, in a padded block, where its block ends.
    stop = np.append(start[1:], cells.size)
    if padded:
        np.minimum(stop, (block + 1) * n_rows, out=stop)
    return cells.ravel()[start], stop - start, block


def _cell_table(
    cells: np.ndarray, values: np.ndarray, block: np.ndarray, n_blocks: int,
    base: float | Sequence[float],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A model's table of (cell, value, block) entries, no cell twice in a
    block, as `_cell_runs` gives them: the sorted union of `cells` closed by
    SENTINEL_CELL, the (n_blocks, union) table holding each entry's value at
    its block's row and cell's column and `base` (a scalar or one per block)
    everywhere else, and the (n_blocks, union - 1) mask of the entries."""
    union = np.sort(np.append(cells, SENTINEL_CELL))  # past every cell, so last
    union = union[np.append(True, union[1:] != union[:-1])]
    slots = np.searchsorted(union, cells)  # one flat index into the table per entry
    slots += block * union.size
    table = np.full((n_blocks, union.size), np.reshape(base, (-1, 1)), dtype=np.float64)
    table.reshape(-1)[slots] = values
    occupied = np.zeros(table.shape, dtype=bool)
    occupied.reshape(-1)[slots] = True
    return union, table, occupied[:, :-1]


@dataclass
class HistogramGrid:
    """One candidate's row of a model's table, as `CorrelationModel.grids`
    slices it out: the sorted cells it stores with their probabilities;
    every other cell of the grid has `base_prob`."""

    base_prob: float
    cells: np.ndarray
    cell_probs: np.ndarray

    #: Not a field: read only by bench/spans.py, which sizes each grid's arrays.
    dense = None

    def prob_at(self, flat_cells: np.ndarray) -> np.ndarray:
        """Probability of each queried flat cell (the reference for `score`)."""
        q = np.asarray(flat_cells, dtype=np.int64)
        pos = np.searchsorted(self.cells, q)
        found = pos < self.cells.size
        found[found] = self.cells[pos[found]] == q[found]
        out = np.full(q.shape, self.base_prob)
        out[found] = self.cell_probs[pos[found]]
        return out


@dataclass(frozen=True)
class CorrelationModel:
    """Calibrated candidate histograms as one table, plus the projection binding.

    `cells` is the sorted union of every candidate's occupied cells, closed by
    SENTINEL_CELL; `probs` the C-contiguous (candidates, cells) table whose
    sentinel column holds each candidate's base probability; `occupied` marks
    the cells each candidate stores, which may hold its base probability.
    `grids` views the table as read-only per-candidate records. Its (B, d')
    obey `cell_count`, d' being the number of bounds (`n_dims`).

    A loaded model starts with `projection=None`, as its file stores only the
    projection's digest; `with_projection` re-attaches and verifies it, which scoring needs.
    A model is frozen and its arrays read-only (flagged in place, not copied), so
    the names and log table it makes once cannot go stale.
    """

    n_bins: int
    lo: np.ndarray
    hi: np.ndarray
    smoothing: float
    candidate_names: tuple[str, ...]
    cells: np.ndarray
    probs: np.ndarray
    occupied: np.ndarray
    projection_digest: bytes
    projection: Optional[Projection] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", np.asarray(self.lo, dtype=np.float64))
        object.__setattr__(self, "hi", np.asarray(self.hi, dtype=np.float64))
        if self.lo.ndim != 1 or self.hi.shape != self.lo.shape:
            raise ValueError("bounds must have one (lo, hi) pair per dimension")
        cell_count(self.n_bins, self.n_dims)
        _check_bounds(self.lo, self.hi)
        object.__setattr__(self, "candidate_names", tuple(self.candidate_names))
        for array in (self.lo, self.hi, self.cells, self.probs, self.occupied):
            array.flags.writeable = False
        n, n_cells = len(self.candidate_names), self.cells.size
        if not n or self.probs.shape != (n, n_cells) or self.occupied.shape != (n, n_cells - 1):
            raise ValueError("need one table row per candidate name")
        if len(set(self.candidate_names)) != n or not all(self.candidate_names):
            raise ValueError("candidate names must be unique and non-empty")
        if len(self.projection_digest) != 32:
            raise ValueError("projection digest must be 32 bytes")
        proj = self.projection
        if proj is not None and proj.output_dim != self.n_dims:
            raise ValueError(f"{proj.output_dim}-D projection for a {self.n_dims}-D model")
        if proj is not None and proj.digest != self.projection_digest:
            raise ValueError("projection does not match the model's digest")

    @property
    def n_dims(self) -> int:
        """d', the number of bounds."""
        return self.lo.size

    @property
    def grids(self) -> tuple[HistogramGrid, ...]:
        """Read-only per-candidate records sliced out of the table."""
        cells = self.cells[:-1]
        return tuple(
            HistogramGrid(float(p[-1]), cells[o], p[:-1][o])
            for p, o in zip(self.probs, self.occupied)
        )

    @cached_property
    def names(self) -> np.ndarray:
        """`candidate_names` as an object array, made once on first use (`classify`)."""
        return np.array(self.candidate_names, dtype=object)

    @cached_property
    def log_probs(self) -> np.ndarray:
        """`probs` in log space, made once on first use (log mode)."""
        with np.errstate(divide="ignore"):
            return np.log(self.probs)

    def with_projection(self, projection: Projection) -> "CorrelationModel":
        """Attach the projection this model was built with (dimension- and digest-checked)."""
        return replace(self, projection=projection)


def training_features(
    images: Sequence[SpectralImage],
    candidates: IlluminantSet,
    projection: Projection,
) -> BlockFeatures:
    """Features of the training images under every candidate's raw SPD: one
    `pixel_features` call on their valid pixels, `kept` of shape (candidates, N)."""
    if not images:
        raise ValueError("need at least one training image")
    pixels = training_pixels(images, candidates)
    feats, kept = pixel_features(projection, pixels, candidates.spd_matrix())
    for ill, n in zip(candidates, kept.sum(axis=1)):
        if not n:
            raise ValueError(f"no usable training pixels under candidate {ill.name!r}")
    return BlockFeatures(projection, feats, kept)


def build_model(
    images: Sequence[SpectralImage],
    candidates: IlluminantSet,
    projection: Projection,
    n_bins: int,
    smoothing: float = DEFAULT_SMOOTHING,
    features: Optional[BlockFeatures] = None,
) -> CorrelationModel:
    """Build the candidates' histogram table from training reflectances.

    All rows of `training_features(images, candidates, projection)` are binned
    on bounds calibrated over them and counted in one pass. Each cell of the
    grid gets `smoothing` pseudo-mass before normalization, so a candidate's
    unseen cells get smoothing / (total + smoothing * n_cells), which must not
    underflow to 0 (ValueError naming the candidate). `features`
    may carry that value computed ahead of time, so builds of one projection
    at several resolutions share it; features of another projection raise
    ValueError. Features that carry their cells carry their bounds too, which
    the model takes instead of calibrating, so a build only counts.
    """
    n_cells = cell_count(n_bins, projection.output_dim)
    check_smoothing(smoothing, n_cells)
    if features is None:
        features = training_features(images, candidates, projection)
    _require_projection(features, projection.digest)
    if features.kept.shape[:-1] != (len(candidates),):
        raise ValueError(f"features must hold the rows of {len(candidates)} candidates")
    counts = features.kept.sum(axis=-1)
    if counts.sum() != len(features.feats) or not counts.all():
        raise ValueError("every candidate needs rows, and the counts must cover them")
    lo, hi, *_ = features.cells or calibrate_bounds(features.feats, projection.output_dim)
    runs = _cell_runs(features.kept, feature_cells(features, lo, hi, n_bins))
    cells, probs, occupied = _cell_table(*runs, len(counts), 0.0)
    probs += smoothing
    probs /= (counts + smoothing * n_cells)[:, None]
    for name, base in zip(candidates.names(), probs[:, -1]):  # else log mode scores -inf
        if base == 0:
            raise ValueError(f"smoothing {smoothing} underflows {name!r}'s base probability to 0")
    return CorrelationModel(
        n_bins=n_bins,
        lo=lo,
        hi=hi,
        smoothing=smoothing,
        candidate_names=tuple(candidates.names()),
        cells=cells,
        probs=probs,
        occupied=occupied,
        projection_digest=projection.digest,
        projection=projection,
    )


@dataclass(frozen=True)
class BlockFeatures:
    """A stack's histogram coordinates under `projection`: `feats` holds the
    kept rows' coordinates in row order, and `kept` (..., N) marks them. With
    `cells=(lo, hi, B, flat)` the rows carry their flat cells on those bounds
    at B, and bin only for a model of those bounds and B."""

    projection: Projection
    feats: np.ndarray
    kept: np.ndarray
    cells: Optional[tuple[np.ndarray, np.ndarray, int, np.ndarray]] = None


def unit_coordinates(feats: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
    """Convert the (N, d') coordinates `feats` in place to unit coordinates
    u = (x - lo) / (hi - lo), which bin at any B by a multiply, clamp and cast
    to `bin_indices`' cells bit for bit. Non-finite coordinates raise ValueError."""
    _check_coords(feats, lo, hi)
    for x, l, w in zip(feats.T, lo, hi - lo):  # long columns, contiguous when column-major
        x -= l
        x /= w


def prefix_cells(units: np.ndarray, n_bins: int, ks: Sequence[int]):
    """Fold the (N, d') unit coordinates `units` a column at a time (no
    faster than whole-array passes, but holding one column's digits, not the
    whole array's): after each column k in `ks`, yield each row's flat cell
    on its first k coordinates at B = n_bins, one array updated in place, so
    use it before the next."""
    cell_count(n_bins, units.shape[1])
    flat = np.zeros(len(units), dtype=np.int64)
    for k, column in enumerate(units.T, 1):
        flat *= n_bins
        flat += _bin_digits(column * n_bins, n_bins)
        if k in ks:
            yield flat


def feature_cells(
    features: BlockFeatures, lo: np.ndarray, hi: np.ndarray, n_bins: int
) -> np.ndarray:
    """The flat cell of each row of `features` on the bounds (lo, hi) at
    B = n_bins: its raw coordinates' `bin_indices`, or the cells it carries;
    cells on other bounds or at another B raise ValueError."""
    if features.cells is None:
        return bin_indices(features.feats, lo, hi, n_bins)
    *bounds, carried_bins, flat = features.cells
    if not all(map(np.array_equal, bounds, (lo, hi))):
        raise ValueError("features carry cells on other bounds than the model's")
    if carried_bins != n_bins:
        raise ValueError(f"features carry cells at B = {carried_bins}, not {n_bins}")
    return flat


def block_features(projection: Projection, pixels: SpectralImage | np.ndarray) -> BlockFeatures:
    """One `pixel_features` call over an image's whole cube, keeping its valid
    pixels' rows of the product, or over radiance rows of shape (..., N,
    bands). Non-finite radiance raises ValueError there. An image's features
    are its gathered pixels' wherever BLAS rounds a product row alike in both
    (a narrow product, width <= 4, can round by its row count and layout)."""
    if isinstance(pixels, SpectralImage):
        data = pixels.data  # (N, bands) below is a view of a band-major or C-order cube
        rows, mask = data.reshape(-1, data.shape[-1]), pixels.mask.reshape(-1)
        return BlockFeatures(projection, *pixel_features(projection, rows, mask=mask))
    pixels = np.asarray(pixels, dtype=np.float64)
    if pixels.ndim < 2:
        raise ValueError(f"expected (..., N, bands) pixels, got {pixels.shape}")
    feats, kept = pixel_features(projection, pixels.reshape(-1, pixels.shape[-1]))
    return BlockFeatures(projection, feats, kept.reshape(pixels.shape[:-1]))


def _require_projection(features: BlockFeatures, digest: bytes) -> None:
    """Reject features made under a projection whose digest is not `digest`."""
    if features.projection.digest != digest:
        raise ValueError("features come from another projection than the model's")


def score(
    model: CorrelationModel,
    pixels: SpectralImage | np.ndarray | BlockFeatures,
    mode: str = MODE_LOG,
) -> np.ndarray:
    """Correlation scores against every candidate, shape (..., n_candidates).

    `pixels` is an image, whose valid pixels are scored, or radiance rows of
    shape (..., N, bands): every (N, bands) block along the leading axes is
    scored as one image. Both are featurized by `block_features` first, or
    `pixels` is its value made ahead of time, so that models of every B share
    one featurization (carrying its cells on the model's bounds at its B, if
    at all); features of another projection raise ValueError. A
    block's histogram is normalized without smoothing over its usable rows;
    `log` mode gives sum(h_test * log(h_candidate)) over the block's occupied
    cells, `dot` mode the plain dot product of the two histograms. All blocks
    share one `pixel_features`, one binning and one `_cell_runs` pass, which
    counts a model's candidates too. One stable sort of the blocks by their
    number of occupied cells groups them; the blocks of a group share one
    gather from the model's union table and one `np.vecdot`, which dots each
    (candidate, block) pair on its own, so a block's scores are bitwise its
    scores alone. Unkept
    rows pad blocks of fewer rows and are skipped. BLAS may round a row of
    a batched product by its position in the batch, so radiance blocks
    featurized together can score apart from one alone only where a
    coordinate lies on a bin edge.
    """
    if mode not in SCORE_MODES:
        raise ValueError(f"mode must be one of {SCORE_MODES}, got {mode!r}")
    if model.projection is None:
        raise ValueError("model has no projection attached; call with_projection")
    if not isinstance(pixels, BlockFeatures):
        pixels = block_features(model.projection, pixels)
    _require_projection(pixels, model.projection_digest)
    batch = pixels.kept.shape[:-1]
    kept = pixels.kept.reshape(math.prod(batch), pixels.kept.shape[-1])  # (blocks, N)
    n_blocks, totals = len(kept), kept.sum(axis=1)
    if not totals.all():
        raise ValueError("test image has no usable pixels")
    flat = feature_cells(pixels, model.lo, model.hi, model.n_bins)
    occupied, counts, key_block = _cell_runs(kept, flat)
    pos = np.searchsorted(model.cells, occupied)
    pos[model.cells[pos] != occupied] = model.cells.size - 1
    weights = counts / totals[key_block]
    # one stable sort groups the runs by their block's count; blocks stay whole and in order
    run_counts = np.bincount(key_block, minlength=n_blocks)[key_block]
    by_count = np.argsort(run_counts, kind="stable")
    run_counts, pos, weights, key_block = (
        run_counts[by_count], pos[by_count], weights[by_count], key_block[by_count])
    edges = [0, *(np.flatnonzero(run_counts[1:] != run_counts[:-1]) + 1).tolist(), len(pos)]
    table = model.log_probs if mode == MODE_LOG else model.probs
    out = np.empty((n_blocks, len(model.candidate_names)))
    for start, stop in zip(edges, edges[1:]):  # the runs of every block with n of them
        n = int(run_counts[start])
        # np.take keeps each (candidate, block) row C-contiguous, and vecdot
        # does one dot per row, which rounds exactly as a dot over that
        # candidate's own probability vector for that block alone.
        gathered = np.take(table, pos[start:stop].reshape(-1, n), axis=1)
        out[key_block[start:stop:n]] = np.vecdot(gathered, weights[start:stop].reshape(-1, n)).T
    return out.reshape(batch + out.shape[1:])


def classify(
    model: CorrelationModel,
    pixels: SpectralImage | np.ndarray,
    mode: str = MODE_LOG,
) -> tuple[str | np.ndarray, np.ndarray]:
    """Best-scoring candidate name (lowest index on ties) plus all scores.

    For a stack of pixel blocks (see `score`) the names come as an object
    array of the stack's leading shape.
    """
    scores = score(model, pixels, mode=mode)
    return model.names[np.argmax(scores, axis=-1)], scores


# ---------------------------------------------------------------------------
# .cbcm serialization
#
# magic "CBCM1", u32 n_dims, u32 n_bins, u32 n_candidates, n_dims pairs of
# f64 (lo, hi), f64 smoothing, 32-byte sha256 of the projection file bytes,
# then per candidate: u32 name length + UTF-8 name, f64 base_prob,
# u64 cell count n, then the n u64 flat cells observed in training and after
# them their n f64 probabilities. Little-endian; cells are strictly increasing.
# ---------------------------------------------------------------------------


def write_model(path, model: CorrelationModel) -> None:
    parts = [
        CBCM_MAGIC,
        struct.pack("<III", model.n_dims, model.n_bins, len(model.candidate_names)),
    ]
    for j in range(model.n_dims):
        parts.append(struct.pack("<dd", model.lo[j], model.hi[j]))
    parts.append(struct.pack("<d", model.smoothing))
    parts.append(model.projection_digest)
    cells = model.cells[:-1]
    for name, probs, occupied in zip(model.candidate_names, model.probs, model.occupied):
        raw = name.encode("utf-8")
        parts.append(struct.pack("<I", len(raw)))
        parts.append(raw)
        parts.append(struct.pack("<dQ", probs[-1], occupied.sum()))
        parts.append(cells[occupied].astype("<u8").tobytes())
        parts.append(probs[:-1][occupied].astype("<f8", copy=False).tobytes())
    Path(path).write_bytes(b"".join(parts))


def read_model(path) -> CorrelationModel:
    from .io import FormatError

    path = Path(path)
    blob = path.read_bytes()
    if len(blob) < 5 or blob[:5] != CBCM_MAGIC:
        raise FormatError(f"{path}: not a correlation model (bad magic)")
    try:
        n_dims, n_bins, n_candidates = struct.unpack_from("<III", blob, 5)
        offset = 5 + 12
        bounds = np.frombuffer(blob, dtype="<f8", count=2 * n_dims, offset=offset)
        lo, hi = bounds[0::2].copy(), bounds[1::2].copy()
        offset += 16 * n_dims
        (smoothing,) = struct.unpack_from("<d", blob, offset)
        offset += 8
        if not (np.isfinite(smoothing) and smoothing >= 0):
            raise FormatError(f"{path}: smoothing {smoothing!r} is not finite and >= 0")
        digest = blob[offset : offset + 32]
        if len(digest) != 32:
            raise FormatError(f"{path}: truncated projection digest")
        offset += 32
        total_cells = cell_count(n_bins, n_dims)
        names, bases, stored, stored_probs = [], [], [], []
        for _ in range(n_candidates):
            (name_len,) = struct.unpack_from("<I", blob, offset)
            offset += 4
            name = blob[offset : offset + name_len].decode("utf-8")
            offset += name_len
            base_prob, n_cells = struct.unpack_from("<dQ", blob, offset)
            offset += 16
            if n_cells > (len(blob) - offset) // 16:
                raise FormatError(
                    f"{path}: {name!r} claims {n_cells} cells, more than the file holds"
                )
            cells = np.frombuffer(blob, dtype="<u8", count=n_cells, offset=offset)
            offset += 8 * n_cells
            probs = np.frombuffer(blob, dtype="<f8", count=n_cells, offset=offset)
            offset += 8 * n_cells
            if np.any(cells[1:] <= cells[:-1]):
                raise FormatError(f"{path}: {name!r} cells are not strictly increasing")
            if n_cells and int(cells[-1]) >= total_cells:
                raise FormatError(f"{path}: {name!r} has a cell outside the grid")
            if not np.all((probs > 0) & (probs <= 1)):
                raise FormatError(f"{path}: {name!r} has a probability outside (0, 1]")
            if not 0 <= base_prob < 1:
                raise FormatError(f"{path}: {name!r} base probability outside [0, 1)")
            mass = float(probs.sum()) + base_prob * (total_cells - n_cells)
            if not abs(mass - 1.0) <= MASS_TOL:
                raise FormatError(f"{path}: {name!r} has total mass {mass!r}, not 1")
            names.append(name)
            bases.append(base_prob)
            stored.append(cells.astype(np.int64))  # each below the cell count: exact
            stored_probs.append(probs)
        if offset != len(blob):
            raise FormatError(f"{path}: {len(blob) - offset} trailing bytes")
        block = np.repeat(np.arange(len(stored)), [c.size for c in stored])
        flat = np.concatenate([np.empty(0, np.int64), *stored])
        union, table, occupied = _cell_table(
            flat, np.concatenate([np.empty(0), *stored_probs]), block, len(stored), bases
        )
        return CorrelationModel(
            n_bins=n_bins,
            lo=lo,
            hi=hi,
            smoothing=smoothing,
            candidate_names=tuple(names),
            cells=union,
            probs=table,
            occupied=occupied,
            projection_digest=digest,
        )
    except (struct.error, ValueError, UnicodeDecodeError) as exc:
        if isinstance(exc, FormatError):
            raise
        raise FormatError(f"{path}: {exc}") from exc
