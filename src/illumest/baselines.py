"""Reference estimators that need no training."""

from __future__ import annotations

import numpy as np

from .illuminants import IlluminantSet
from .spectral import SpectralImage, Spectrum, chromaticity_rows, require_same_axis


def spectral_gray_world(
    pixels: SpectralImage | np.ndarray, candidates: IlluminantSet
) -> tuple[str, Spectrum]:
    """Estimate the illuminant as the scene's mean spectrum, snapped to a candidate.

    `pixels` is an image or its (N, bands) valid rows (finite, >= 0) on the candidates' grid.
    Returns the candidate whose SPD is most cosine-similar (lowest index on ties) to
    the L2-normalized per-band mean of the non-black rows, and that normalized mean.
    """
    if isinstance(pixels, SpectralImage):
        require_same_axis(pixels.axis, candidates.axis, "spectral_gray_world")
        pixels = pixels.valid_pixels()
    pixels = np.asarray(pixels, dtype=np.float64)
    if pixels.ndim != 2 or pixels.shape[1] != candidates.axis.count:
        raise ValueError(f"expected (N, {candidates.axis.count}) pixels, got {pixels.shape}")
    if not ((pixels >= 0) & (pixels < np.inf)).all():  # nan fails: it is not black
        raise ValueError("pixel rows must be finite and non-negative")
    pixels = pixels[chromaticity_rows(pixels)[1]]
    if pixels.shape[0] == 0:
        raise ValueError("image has no usable pixels")
    mean = pixels.mean(axis=0)
    estimate = mean / np.linalg.norm(mean)  # not 0: each kept row sums past ZERO_NORM_EPS
    spds = candidates.spd_matrix()
    cosines = (spds @ estimate) / np.linalg.norm(spds, axis=1)
    return candidates[int(np.argmax(cosines))].name, Spectrum(candidates.axis, estimate)
