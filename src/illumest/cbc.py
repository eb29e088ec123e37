"""Correlation-based illuminant classification over binned chromaticities.

For every candidate light source, training scenes are relit by its SPD and
the projected chromaticities of all usable pixels are histogrammed on a
shared, calibrated grid. A test image is classified by correlating its own
histogram against each candidate's (log-likelihood by default) and taking
the best-scoring candidate.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .illuminants import IlluminantSet
from .projections import KIND_RGB, Projection, projection_hash
from .spectral import SpectralImage, chromaticity_rows

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


def pixel_features(
    projection: Projection, pixels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Histogram coordinates for raw radiance pixel rows, black rows dropped,
    and the (N,) boolean mask of the rows kept.

    Camera-sensitivity projections integrate the raw radiance first and then
    L1-normalize the 3-channel response; every other kind L1-normalizes the
    spectral pixel first and projects the chromaticity. Rows whose relevant
    L1 norm is at or below ZERO_NORM_EPS are skipped.
    """
    pixels = np.asarray(pixels, dtype=np.float64)
    if pixels.ndim != 2 or pixels.shape[1] != projection.input_dim:
        raise ValueError(
            f"expected (N, {projection.input_dim}) pixels, got {pixels.shape}"
        )
    if projection.kind == KIND_RGB:
        return chromaticity_rows(pixels @ projection.basis.T)
    chroma, kept = chromaticity_rows(pixels)
    if not chroma.shape[0]:
        return np.empty((0, projection.output_dim)), kept
    return projection.apply_rows(chroma), kept


def calibrate_bounds(
    feature_blocks: Iterable[np.ndarray], n_dims: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-dimension histogram bounds from observed training coordinates.

    Bounds cover the global min/max over all blocks, widened by
    BOUNDS_MARGIN of the span per side; a degenerate (constant) dimension
    gets a DEGENERATE_WIDTH window centered on the constant.
    """
    lo = np.full(n_dims, np.inf)
    hi = np.full(n_dims, -np.inf)
    seen = False
    for block in feature_blocks:
        block = np.asarray(block, dtype=np.float64)
        if block.size == 0:
            continue
        if block.ndim != 2 or block.shape[1] != n_dims:
            raise ValueError(f"expected (N, {n_dims}) blocks, got {block.shape}")
        seen = True
        np.minimum(lo, block.min(axis=0), out=lo)
        np.maximum(hi, block.max(axis=0), out=hi)
    if not seen:
        raise ValueError("no feature rows to calibrate bounds from")
    span = hi - lo
    degenerate = span <= 0
    center = (lo + hi) / 2.0
    lo = np.where(degenerate, center - DEGENERATE_WIDTH / 2.0, lo - BOUNDS_MARGIN * span)
    hi = np.where(degenerate, center + DEGENERATE_WIDTH / 2.0, hi + BOUNDS_MARGIN * span)
    return lo, hi


def bin_indices(
    coords: np.ndarray, lo: np.ndarray, hi: np.ndarray, n_bins: int
) -> np.ndarray:
    """Flat row-major cell index per coordinate row, clamping to edge bins."""
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim != 2 or coords.shape[1] != lo.shape[0]:
        raise ValueError(f"expected (N, {lo.shape[0]}) coords, got {coords.shape}")
    scaled = (coords - lo) / (hi - lo) * n_bins
    idx = np.clip(np.floor(scaled).astype(np.int64), 0, n_bins - 1)
    flat = np.zeros(coords.shape[0], dtype=np.int64)
    for j in range(coords.shape[1]):
        flat = flat * n_bins + idx[:, j]
    return flat


@dataclass
class HistogramGrid:
    """Smoothed probability mass over the flat cells of one candidate.

    Holds the sorted cells observed in training with their probabilities;
    every other cell of the grid has `base_prob`.
    """

    n_dims: int
    n_bins: int
    base_prob: float
    cells: np.ndarray
    cell_probs: np.ndarray

    #: Not a field: read only by bench/spans.py, which sizes each grid's arrays.
    dense = None

    def __post_init__(self) -> None:
        self.cells = np.asarray(self.cells, dtype=np.int64)
        self.cell_probs = np.asarray(self.cell_probs, dtype=np.float64)
        if self.cells.shape != self.cell_probs.shape or self.cells.ndim != 1:
            raise ValueError("sparse cells and probabilities must align")
        if self.cells.size and np.any(np.diff(self.cells) <= 0):
            raise ValueError("sparse cells must be strictly increasing")

    @classmethod
    def from_counts(
        cls,
        occupied_cells: np.ndarray,
        counts: np.ndarray,
        n_dims: int,
        n_bins: int,
        smoothing: float,
    ) -> "HistogramGrid":
        """Normalize raw cell counts into smoothed probabilities.

        Every cell of the full grid receives `smoothing` pseudo-mass before
        normalization, so unobserved cells end with probability
        smoothing / (total + smoothing * n_cells).
        """
        total = float(counts.sum())
        if total <= 0:
            raise ValueError("histogram has no observations")
        denom = total + smoothing * n_bins**n_dims
        return cls(
            n_dims,
            n_bins,
            smoothing / denom,
            cells=occupied_cells,
            cell_probs=(counts + smoothing) / denom,
        )

    def prob_at(self, flat_cells: np.ndarray) -> np.ndarray:
        """Probability of each queried flat cell (the reference for `score`)."""
        q = np.asarray(flat_cells, dtype=np.int64)
        pos = np.searchsorted(self.cells, q)
        found = pos < self.cells.size
        found[found] = self.cells[pos[found]] == q[found]
        out = np.full(q.shape, self.base_prob)
        out[found] = self.cell_probs[pos[found]]
        return out


@dataclass
class CorrelationModel:
    """Calibrated per-candidate histograms plus the projection binding.

    The file format stores only a digest of the projection, so a loaded
    model starts with `projection=None`; `with_projection` re-attaches and
    verifies the projection before the model can score images.
    """

    n_dims: int
    n_bins: int
    lo: np.ndarray
    hi: np.ndarray
    smoothing: float
    candidate_names: tuple[str, ...]
    grids: tuple[HistogramGrid, ...]
    projection_digest: bytes
    projection: Optional[Projection] = None
    # Scoring index, derived from `grids`: the sorted union of every
    # candidate's occupied cells closed by a sentinel past any real cell, and
    # per score mode a C-contiguous (candidates x cells) table of
    # probabilities or their logs whose sentinel column holds the base values.
    _cells: np.ndarray = field(init=False, repr=False, compare=False)
    _tables: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.lo = np.asarray(self.lo, dtype=np.float64)
        self.hi = np.asarray(self.hi, dtype=np.float64)
        if self.lo.shape != (self.n_dims,) or self.hi.shape != (self.n_dims,):
            raise ValueError("bounds must have one (lo, hi) pair per dimension")
        if np.any(self.hi <= self.lo):
            raise ValueError("bounds must satisfy lo < hi")
        self.candidate_names = tuple(self.candidate_names)
        self.grids = tuple(self.grids)
        if len(self.candidate_names) != len(self.grids) or not self.grids:
            raise ValueError("need one grid per candidate name")
        if len(self.projection_digest) != 32:
            raise ValueError("projection digest must be 32 bytes")
        if self.projection is not None and (
            projection_hash(self.projection) != self.projection_digest
        ):
            raise ValueError("projection does not match the model's digest")
        union = np.unique(np.concatenate([g.cells for g in self.grids]))
        self._cells = np.append(union, np.iinfo(np.int64).max)
        probs = np.empty((len(self.grids), self._cells.size))
        for row, grid in zip(probs, self.grids):
            row[:] = grid.base_prob
            row[np.searchsorted(union, grid.cells)] = grid.cell_probs
        with np.errstate(divide="ignore"):
            self._tables = {MODE_DOT: probs, MODE_LOG: np.log(probs)}

    def with_projection(self, projection: Projection) -> "CorrelationModel":
        """Attach the projection this model was built with (digest-checked)."""
        if projection_hash(projection) != self.projection_digest:
            raise ValueError("projection does not match the model's digest")
        return replace(self, projection=projection)


@dataclass(frozen=True)
class TrainingFeatures:
    """Per-candidate training features of one projection and their bounds.

    `blocks` holds one (N_j, d') array per candidate, in candidate order;
    `lo`/`hi` are `calibrate_bounds` over all of them. `training_features`
    computes it once and `build_model` bins it at any resolution.
    """

    blocks: tuple[np.ndarray, ...]
    lo: np.ndarray
    hi: np.ndarray


def training_features(
    images: Sequence[SpectralImage],
    candidates: IlluminantSet,
    projection: Projection,
) -> TrainingFeatures:
    """Features of the training images under every candidate, with bounds.

    Each image's valid pixels are relit by each candidate's raw SPD and
    passed through `pixel_features`; the bounds are calibrated over all
    candidates' features pooled.
    """
    if not images:
        raise ValueError("need at least one training image")
    for img in images:
        if img.n_bands != projection.input_dim:
            raise ValueError(
                f"image has {img.n_bands} bands, projection expects "
                f"{projection.input_dim}"
            )
        if img.axis != candidates.axis:
            raise ValueError("training images and candidates must share a grid")
    pixel_blocks = [img.valid_pixels() for img in images]
    blocks = []
    for ill in candidates:
        spd = ill.spd.values
        feats = [pixel_features(projection, block * spd)[0] for block in pixel_blocks]
        feats = [f for f in feats if f.shape[0]]
        if not feats:
            raise ValueError(
                f"no usable training pixels under candidate {ill.name!r}"
            )
        blocks.append(np.concatenate(feats, axis=0))
    lo, hi = calibrate_bounds(blocks, projection.output_dim)
    return TrainingFeatures(tuple(blocks), lo, hi)


def build_model(
    images: Sequence[SpectralImage],
    candidates: IlluminantSet,
    projection: Projection,
    n_bins: int,
    smoothing: float = DEFAULT_SMOOTHING,
    features: Optional[TrainingFeatures] = None,
) -> CorrelationModel:
    """Build the per-candidate histogram model from training reflectances.

    Each candidate's histogram is filled from its block of
    `training_features(images, candidates, projection)` on the calibrated
    bounds. `features` may carry that value computed ahead of time, so
    builds of one projection at several resolutions share it.
    """
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    if not (np.isfinite(smoothing) and smoothing > 0):
        raise ValueError(f"smoothing must be finite and > 0, got {smoothing}")
    d_out = projection.output_dim
    if n_bins**d_out > np.iinfo(np.int64).max:
        raise ValueError("histogram cell space is too large to index")
    if features is None:
        features = training_features(images, candidates, projection)
    lo = np.asarray(features.lo, dtype=np.float64)
    hi = np.asarray(features.hi, dtype=np.float64)
    if len(features.blocks) != len(candidates) or lo.shape != (d_out,):
        raise ValueError(
            f"features must hold {len(candidates)} blocks of {d_out} dimensions"
        )
    grids = []
    for feats in features.blocks:
        flat = bin_indices(feats, lo, hi, n_bins)
        occupied, counts = np.unique(flat, return_counts=True)
        grids.append(
            HistogramGrid.from_counts(occupied, counts, d_out, n_bins, smoothing)
        )
    return CorrelationModel(
        n_dims=d_out,
        n_bins=n_bins,
        lo=lo,
        hi=hi,
        smoothing=smoothing,
        candidate_names=tuple(candidates.names()),
        grids=tuple(grids),
        projection_digest=projection_hash(projection),
        projection=projection,
    )


def score(
    model: CorrelationModel,
    pixels: SpectralImage | np.ndarray,
    mode: str = MODE_LOG,
) -> np.ndarray:
    """Correlation scores against every candidate, shape (..., n_candidates).

    `pixels` is an image, whose valid pixels are scored, or radiance rows of
    shape (..., N, bands): every (N, bands) block along the leading axes is
    scored as one image. A block's histogram is normalized without smoothing
    over its usable rows; `log` mode gives sum(h_test * log(h_candidate))
    over the block's occupied cells, `dot` mode the plain dot product of the
    two histograms. All blocks share one `pixel_features`, one
    `bin_indices` and one sort call; each block's scores are one gather from
    the model's union table and one dot per candidate. BLAS may round a row
    of a batched product by its position in the batch, so a block's scores
    can differ from its scores alone only where a coordinate lies on a bin
    edge.
    """
    if mode not in SCORE_MODES:
        raise ValueError(f"mode must be one of {SCORE_MODES}, got {mode!r}")
    if model.projection is None:
        raise ValueError("model has no projection attached; call with_projection")
    if isinstance(pixels, SpectralImage):
        pixels = pixels.valid_pixels()
    pixels = np.asarray(pixels, dtype=np.float64)
    if pixels.ndim < 2:
        raise ValueError(f"expected (..., N, bands) pixels, got {pixels.shape}")
    batch, n_rows = pixels.shape[:-2], pixels.shape[-2]
    n_blocks = math.prod(batch)
    rows = pixels.reshape(-1, pixels.shape[-1])
    feats, kept = pixel_features(model.projection, rows)
    totals = kept.reshape(n_blocks, n_rows).sum(axis=1)
    if not totals.all():
        raise ValueError("test image has no usable pixels")
    # Each block's cells sorted along its own row, black rows (-1) first;
    # the runs of equal cells are the block's occupied cells, in order.
    cells = np.full(kept.shape, -1, dtype=np.int64)
    cells[kept] = bin_indices(feats, model.lo, model.hi, model.n_bins)
    cells = np.sort(cells.reshape(n_blocks, n_rows), axis=1)
    first = np.empty(cells.shape, dtype=bool)
    first[:, :1] = True
    first[:, 1:] = cells[:, 1:] != cells[:, :-1]
    start = np.flatnonzero(first & (cells >= 0))
    key_block = start // n_rows
    # A run ends where the next one starts or where its block ends.
    stop = np.minimum(np.append(start[1:], cells.size), (key_block + 1) * n_rows)
    occupied = cells.ravel()[start]
    pos = np.searchsorted(model._cells, occupied)
    pos[model._cells[pos] != occupied] = model._cells.size - 1
    weights = (stop - start) / totals[key_block]
    bounds = np.searchsorted(key_block, np.arange(n_blocks + 1))
    table = model._tables[mode]
    out = np.empty((n_blocks, len(model.grids)))
    for k in range(n_blocks):
        run = slice(bounds[k], bounds[k + 1])
        # np.take keeps each candidate's row C-contiguous, and vecdot does
        # one dot per row, which rounds exactly as a dot over that
        # candidate's own probability vector.
        out[k] = np.vecdot(np.take(table, pos[run], axis=1), weights[run])
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
    names = np.array(model.candidate_names, dtype=object)
    return names[np.argmax(scores, axis=-1)], scores


# ---------------------------------------------------------------------------
# .cbcm serialization
#
# magic "CBCM1", u32 n_dims, u32 n_bins, u32 n_candidates, n_dims pairs of
# f64 (lo, hi), f64 smoothing, 32-byte sha256 of the projection file bytes,
# then per candidate: u32 name length + UTF-8 name, f64 base_prob,
# u64 cell count, and (u64 flat cell, f64 prob) pairs for cells observed in
# training. Little-endian; cells are strictly increasing.
# ---------------------------------------------------------------------------


def write_model(path, model: CorrelationModel) -> None:
    parts = [
        CBCM_MAGIC,
        struct.pack("<III", model.n_dims, model.n_bins, len(model.grids)),
    ]
    for j in range(model.n_dims):
        parts.append(struct.pack("<dd", model.lo[j], model.hi[j]))
    parts.append(struct.pack("<d", model.smoothing))
    parts.append(model.projection_digest)
    for name, grid in zip(model.candidate_names, model.grids):
        raw = name.encode("utf-8")
        parts.append(struct.pack("<I", len(raw)))
        parts.append(raw)
        parts.append(struct.pack("<dQ", grid.base_prob, grid.cells.size))
        parts.append(grid.cells.astype("<u8").tobytes())
        parts.append(grid.cell_probs.astype("<f8", copy=False).tobytes())
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
        total_cells = n_bins**n_dims
        if total_cells > np.iinfo(np.int64).max:
            raise FormatError(f"{path}: histogram cell space is too large to index")
        names = []
        grids = []
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
            grids.append(
                HistogramGrid(
                    n_dims,
                    n_bins,
                    base_prob,
                    cells=cells.astype(np.int64),
                    cell_probs=probs.astype(np.float64),
                )
            )
        if offset != len(blob):
            raise FormatError(f"{path}: {len(blob) - offset} trailing bytes")
        return CorrelationModel(
            n_dims=n_dims,
            n_bins=n_bins,
            lo=lo,
            hi=hi,
            smoothing=smoothing,
            candidate_names=tuple(names),
            grids=tuple(grids),
            projection_digest=digest,
        )
    except (struct.error, ValueError, UnicodeDecodeError) as exc:
        if isinstance(exc, FormatError):
            raise
        raise FormatError(f"{path}: {exc}") from exc
