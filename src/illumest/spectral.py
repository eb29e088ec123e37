"""Wavelength-gridded data types and pixel-level spectral primitives.

Everything downstream (relighting, projections, histogram models) works on
the types defined here. All arrays are float64; wavelength grids are uniform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

#: Pixels whose L1 norm falls at or below this are black: `chromaticity_rows`
#: drops them, so fitting, histogram accumulation and gray world skip them.
ZERO_NORM_EPS = 1e-12

DEFAULT_START_NM = 400.0
DEFAULT_STEP_NM = 10.0
DEFAULT_BAND_COUNT = 31


class AxisMismatchError(ValueError):
    """Raised when two spectral quantities do not share a wavelength grid."""


@dataclass(frozen=True)
class SpectralAxis:
    """Uniform wavelength grid ``start_nm + i * step_nm`` for ``i < count``."""

    start_nm: float = DEFAULT_START_NM
    step_nm: float = DEFAULT_STEP_NM
    count: int = DEFAULT_BAND_COUNT

    def __post_init__(self) -> None:
        if not np.isfinite(self.start_nm):
            raise ValueError("start_nm must be finite")
        if not (np.isfinite(self.step_nm) and self.step_nm > 0):
            raise ValueError(f"step_nm must be positive, got {self.step_nm}")
        if int(self.count) != self.count or self.count < 1:
            raise ValueError(f"count must be a positive integer, got {self.count}")

    @property
    def stop_nm(self) -> float:
        return self.start_nm + self.step_nm * (self.count - 1)

    def wavelengths(self) -> np.ndarray:
        return self.start_nm + self.step_nm * np.arange(self.count, dtype=np.float64)

    def __str__(self) -> str:
        return (
            f"{self.start_nm:g}..{self.stop_nm:g} nm "
            f"step {self.step_nm:g} ({self.count} bands)"
        )


def require_same_axis(a: SpectralAxis, b: SpectralAxis, context: str) -> None:
    if a != b:
        raise AxisMismatchError(f"{context}: grid [{a}] does not match [{b}]")


def _as_float_array(values, name: str, ndim: int) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


@dataclass
class Spectrum:
    """One sampled spectral function (an SPD, a reflectance, a sensitivity row)."""

    axis: SpectralAxis
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = _as_float_array(self.values, "spectrum values", 1)
        if self.values.shape[0] != self.axis.count:
            raise ValueError(
                f"spectrum has {self.values.shape[0]} samples, axis expects {self.axis.count}"
            )

    def copy(self) -> "Spectrum":
        return Spectrum(self.axis, self.values.copy())


@dataclass
class SpectralImage:
    """H x W image with one spectral sample vector per pixel plus a validity mask.

    `data` has shape (height, width, bands), non-negative and finite.
    `mask` is boolean (height, width); False marks pixels excluded from every
    computation (saturated, dead, or padding regions).
    """

    axis: SpectralAxis
    data: np.ndarray
    mask: np.ndarray

    def __post_init__(self) -> None:
        self.data = _as_float_array(self.data, "image data", 3)
        if self.data.shape[2] != self.axis.count:
            raise ValueError(
                f"image has {self.data.shape[2]} bands, axis expects {self.axis.count}"
            )
        if np.any(self.data < 0):
            raise ValueError("image data must be non-negative")
        mask = np.asarray(self.mask)
        if mask.dtype != np.bool_:
            if not np.all((mask == 0) | (mask == 1)):
                raise ValueError("mask entries must be 0/1 or boolean")
            mask = mask.astype(bool)
        if mask.shape != self.data.shape[:2]:
            raise ValueError(
                f"mask shape {mask.shape} does not match image {self.data.shape[:2]}"
            )
        self.mask = mask

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def n_bands(self) -> int:
        return self.data.shape[2]

    def valid_pixels(self) -> np.ndarray:
        """Masked-in pixels as an (N, bands) matrix, row-major scan order."""
        return self.data[self.mask]

    def copy(self) -> "SpectralImage":
        return SpectralImage(self.axis, self.data.copy(), self.mask.copy())


@dataclass
class SensitivityFunctions:
    """Three camera sensitivity curves (rows: R, G, B) on a shared grid."""

    axis: SpectralAxis
    rows: np.ndarray
    camera_name: str = ""

    def __post_init__(self) -> None:
        self.rows = _as_float_array(self.rows, "sensitivity rows", 2)
        if self.rows.shape != (3, self.axis.count):
            raise ValueError(
                f"sensitivities must be (3, {self.axis.count}), got {self.rows.shape}"
            )
        if np.any(self.rows < 0):
            raise ValueError("sensitivities must be non-negative")
        if np.any(self.rows.sum(axis=1) <= 0):
            raise ValueError("each sensitivity row needs at least one positive sample")


def relight(image: SpectralImage, illuminant_spd: Spectrum) -> SpectralImage:
    """Form the radiance image: per-band product of reflectance and SPD."""
    require_same_axis(image.axis, illuminant_spd.axis, "relight")
    if np.any(illuminant_spd.values < 0):
        raise ValueError("illuminant SPD must be non-negative")
    return SpectralImage(image.axis, image.data * illuminant_spd.values, image.mask)


def sensor_project(image: SpectralImage, sens: SensitivityFunctions) -> np.ndarray:
    """Integrate each pixel against the three sensitivity curves.

    Returns an (H, W, 3) array: sum_i S_c(lambda_i) * pixel(lambda_i) * step.
    The image's validity mask still applies to the result.
    """
    require_same_axis(image.axis, sens.axis, "sensor_project")
    return image.data @ sens.rows.T * image.axis.step_nm


def chromaticity_rows(
    rows: np.ndarray, sums: Optional[np.ndarray] = None
) -> tuple[np.ndarray, np.ndarray]:
    """L1 chromaticities of the non-black rows of an (N, k) array, in order,
    and the (N,) boolean mask of the rows kept.

    `sums` defaults to the rows' own L1 sums; a caller whose rows are a linear
    image of wider pixels passes those pixels' sums. Rows whose sum is at or
    below ZERO_NORM_EPS are dropped; every other row is divided by its sum.
    This is the one place pixels are judged black and normalized.

    The chromaticities come column-major, so a pass over one coordinate reads
    contiguous memory. When every row is kept they are divided straight into
    place; otherwise the kept rows are gathered there first.
    """
    if sums is None:
        sums = rows.sum(axis=1)
    keep = sums > ZERO_NORM_EPS
    chroma = np.empty((rows.shape[1], np.count_nonzero(keep)))  # (k, kept): one row a coordinate
    if chroma.shape[1] < len(keep):
        rows, sums = np.compress(keep, rows, axis=0, out=chroma.T), sums[keep]
    np.divide(rows.T, sums, out=chroma)
    return chroma.T, keep


def downsample(image: SpectralImage, factor: int) -> SpectralImage:
    """Box-average non-overlapping factor x factor blocks, per band.

    Only valid pixels contribute to a block average; a block with no valid
    pixel becomes a masked-out zero pixel. Image dimensions must divide by
    the factor exactly.
    """
    if int(factor) != factor or factor < 1:
        raise ValueError(f"factor must be a positive integer, got {factor}")
    factor = int(factor)
    if factor == 1:
        return image.copy()
    h, w = image.height, image.width
    if h % factor or w % factor:
        raise ValueError(f"factor {factor} does not divide image size {h}x{w}")
    h2, w2 = h // factor, w // factor
    sums = np.empty_like(image.data, shape=(h2, w2, image.n_bands))  # in the cube's layout
    for i, rows in enumerate(range(0, h, factor)):  # a masked copy of one row of blocks at a time
        strip = image.data[rows : rows + factor] * image.mask[rows : rows + factor, :, None]
        sums[i] = strip.reshape(factor, w2, factor, -1).sum(axis=(0, 2))
    counts = image.mask.reshape(h2, factor, w2, factor).sum(axis=(1, 3))
    out_mask = counts > 0
    out = np.zeros_like(sums)
    np.divide(sums, counts[:, :, None], out=out, where=out_mask[:, :, None])
    return SpectralImage(image.axis, out, out_mask)


def noise_sigma(mean_signal: float, snr_db: float) -> float:
    """Gaussian noise level giving the requested SNR against a mean signal:
    mean_signal / 10^(snr_db / 20). This is the one noise-level rule: a level
    whose 10^(snr_db / 20) or its inverse is not a finite float > 0 raises
    ValueError, so neither the ratio nor sigma per unit of signal overflows."""
    if mean_signal < 0:
        raise ValueError("mean signal must be non-negative")
    try:
        ratio = 10.0 ** (float(snr_db) / 20.0)
    except OverflowError:
        ratio = math.inf
    if not (0.0 < ratio < math.inf and 1.0 / ratio < math.inf):  # nan fails too
        raise ValueError(
            f"snr_db must keep 10^(snr_db / 20) and its inverse finite, got {snr_db!r}")
    return mean_signal / ratio


def mix_seed(master_seed: int, *stream_keys: int) -> int:
    """Derive an independent child seed from a master seed and integer keys.

    Built on numpy's SeedSequence so streams for different key tuples are
    statistically independent and stable across runs and platforms.
    """
    entropy = [int(master_seed)] + [int(k) for k in stream_keys]
    ss = np.random.SeedSequence(entropy)
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def noise_draw(mask: np.ndarray, bands: int, seed: int) -> np.ndarray:
    """The masked-in (N, bands) part of a whole-image `standard_normal(
    mask.shape + (bands,))` draw seeded with `seed`: each valid pixel gets
    the noise it would get in the whole image, at any level (`noisy_rows`)."""
    return np.random.default_rng(seed).standard_normal(mask.shape + (bands,))[mask]


def noisy_rows(rows: np.ndarray, draw: np.ndarray, snr_db: Optional[float]) -> np.ndarray:
    """The (N, bands) valid rows of an image plus noise clipped at 0: sigma =
    noise_sigma(mean(rows), snr_db) times `draw`, the image's `noise_draw`, so
    one draw serves every level. `snr_db=None` (or +inf) gives a clean copy."""
    if snr_db is None or snr_db == np.inf:
        return rows.copy()
    if rows.size == 0:
        raise ValueError("cannot set a noise level on a fully masked image")
    if draw.shape != rows.shape:
        raise ValueError(f"expected a {rows.shape} noise draw, got {draw.shape}")
    sigma = noise_sigma(float(rows.mean()), snr_db)
    return np.clip(rows + draw * sigma, 0.0, None)


def add_noise(
    image: SpectralImage, snr_db: Optional[float], seed: int
) -> SpectralImage:
    """`noisy_rows` of the image's valid pixels and their `noise_draw` from
    `seed`; masked-out pixels stay as they are."""
    noisy = image.copy()
    draw = noise_draw(image.mask, image.n_bands, seed)
    noisy.data[noisy.mask] = noisy_rows(image.valid_pixels(), draw, snr_db)
    return noisy
