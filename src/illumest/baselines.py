"""Reference estimators that need no training."""

from __future__ import annotations

import numpy as np

from .illuminants import IlluminantSet
from .spectral import SpectralImage, Spectrum, chromaticity_rows, require_same_axis


def spectral_gray_world(
    image: SpectralImage, candidates: IlluminantSet
) -> tuple[str, Spectrum]:
    """Estimate the illuminant as the scene's mean spectrum, snapped to a candidate.

    Averages all valid, non-black pixels per band, L2-normalizes the mean,
    and returns the candidate whose SPD has the highest cosine similarity
    (lowest index on ties) together with the normalized mean estimate.
    """
    require_same_axis(image.axis, candidates.axis, "spectral_gray_world")
    pixels = image.valid_pixels()
    pixels = pixels[chromaticity_rows(pixels)[1]]
    if pixels.shape[0] == 0:
        raise ValueError("image has no usable pixels")
    mean = pixels.mean(axis=0)
    norm = float(np.linalg.norm(mean))
    if norm <= 0:
        raise ValueError("mean spectrum is zero")
    estimate = mean / norm
    spds = candidates.spd_matrix()
    cosines = (spds @ estimate) / np.linalg.norm(spds, axis=1)
    winner = int(np.argmax(cosines))
    return candidates[winner].name, Spectrum(image.axis, estimate)
