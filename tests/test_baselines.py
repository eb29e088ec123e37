"""Training-free gray-world baseline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from illumest.baselines import spectral_gray_world
from illumest.evaluation import angular_error_deg
from illumest.illuminants import Illuminant, IlluminantSet
from illumest.spectral import SpectralAxis, SpectralImage, Spectrum, relight
from illumest.synth import white_scene


class TestSpectralGrayWorld:
    def test_white_scene_recovers_candidate_exactly(self, bundled_set):
        scene = white_scene(bundled_set.axis)
        for ill in list(bundled_set)[:5]:
            lit = relight(scene, ill.spd)
            name, estimate = spectral_gray_world(lit, bundled_set)
            assert name == ill.name
            assert angular_error_deg(estimate, ill.spd) == pytest.approx(0.0, abs=1e-9)

    def test_estimate_is_unit_norm_mean_direction(self):
        axis = SpectralAxis(400, 10, 3)
        data = np.zeros((1, 2, 3))
        data[0, 0] = [1.0, 2.0, 2.0]
        data[0, 1] = [3.0, 2.0, 2.0]
        img = SpectralImage(axis, data, np.ones((1, 2), dtype=bool))
        cands = IlluminantSet((Illuminant("x", Spectrum(axis, [1.0, 1.0, 1.0])),))
        _, est = spectral_gray_world(img, cands)
        mean = np.array([2.0, 2.0, 2.0])
        np.testing.assert_allclose(est.values, mean / np.linalg.norm(mean), atol=1e-12)

    def test_masked_pixels_ignored(self):
        axis = SpectralAxis(400, 10, 2)
        data = np.zeros((1, 2, 2))
        data[0, 0] = [1.0, 0.0]
        data[0, 1] = [0.0, 100.0]  # masked out below
        mask = np.array([[True, False]])
        img = SpectralImage(axis, data, mask)
        cands = IlluminantSet(
            (
                Illuminant("r", Spectrum(axis, [1.0, 0.0])),
                Illuminant("b", Spectrum(axis, [0.0, 1.0])),
            )
        )
        name, _ = spectral_gray_world(img, cands)
        assert name == "r"

    def test_tie_breaks_to_lowest_index(self):
        axis = SpectralAxis(400, 10, 2)
        img = SpectralImage(axis, np.full((1, 1, 2), 1.0), np.ones((1, 1), dtype=bool))
        same = [1.0, 1.0]
        cands = IlluminantSet(
            (
                Illuminant("first", Spectrum(axis, same)),
                Illuminant("second", Spectrum(axis, same)),
            )
        )
        name, _ = spectral_gray_world(img, cands)
        assert name == "first"

    def test_scale_of_candidates_does_not_matter(self):
        axis = SpectralAxis(400, 10, 2)
        img = SpectralImage(axis, np.array([[[1.0, 2.0]]]), np.ones((1, 1), dtype=bool))
        cands = IlluminantSet(
            (
                Illuminant("dim", Spectrum(axis, [0.01, 0.02])),
                Illuminant("off", Spectrum(axis, [2.0, 1.0])),
            )
        )
        name, _ = spectral_gray_world(img, cands)
        assert name == "dim"

    def test_fully_masked_image_rejected(self):
        axis = SpectralAxis(400, 10, 2)
        img = SpectralImage(axis, np.ones((1, 1, 2)), np.zeros((1, 1), dtype=bool))
        cands = IlluminantSet((Illuminant("x", Spectrum(axis, [1.0, 1.0])),))
        with pytest.raises(ValueError):
            spectral_gray_world(img, cands)


def gray_world_outcome(pixels, candidates):
    """The (name, estimate bytes) gray world gives, or its ValueError's message."""
    try:
        name, estimate = spectral_gray_world(pixels, candidates)
    except ValueError as exc:
        return str(exc)
    return name, estimate.values.tobytes()


class TestGrayWorldRows:
    """An image and its valid rows are one input: rows are what the sweep
    passes, a test scene's valid pixels times each candidate's SPD."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_valid_rows_give_the_image_estimate_bit_for_bit(self, data):
        bands = data.draw(st.integers(2, 5))
        h, w = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        axis = SpectralAxis(400, 10, bands)
        value = st.floats(0.0, 1e3, allow_subnormal=False)
        pixels = np.array(data.draw(st.lists(value, min_size=h * w * bands, max_size=h * w * bands)))
        pixels = pixels.reshape(h, w, bands)
        black = np.array(data.draw(st.lists(st.booleans(), min_size=h * w, max_size=h * w)))
        pixels[black.reshape(h, w)] = 0.0
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=h * w, max_size=h * w)))
        img = SpectralImage(axis, pixels, mask.reshape(h, w))
        spds = data.draw(st.lists(
            st.lists(st.floats(0.01, 10.0), min_size=bands, max_size=bands), min_size=1, max_size=4))
        cands = IlluminantSet(tuple(
            Illuminant(f"c{i}", Spectrum(axis, spd)) for i, spd in enumerate(spds)))
        assert gray_world_outcome(img.valid_pixels(), cands) == gray_world_outcome(img, cands)

    @pytest.mark.parametrize(
        "rows, message",
        [
            (np.array([[1.0, 2.0], [np.nan, 1.0]]), "must be finite"),
            (np.array([[1.0, 2.0], [np.inf, 1.0]]), "must be finite"),
            (np.array([[np.nan, np.nan]]), "must be finite"),  # not dropped as black
            (np.array([[1.0, 2.0], [-1.0, 1.0]]), "non-negative"),
            (np.array([1.0, 2.0]), "expected \\(N, 2\\) pixels"),
            (np.ones((1, 1, 2)), "expected \\(N, 2\\) pixels"),
            (np.ones((2, 3)), "expected \\(N, 2\\) pixels"),
        ],
        ids=["nan", "inf", "nan-row", "negative", "1-D", "3-D", "bands"],
    )
    def test_rows_that_are_not_an_image_rejected(self, rows, message):
        axis = SpectralAxis(400, 10, 2)
        cands = IlluminantSet((Illuminant("x", Spectrum(axis, [1.0, 1.0])),))
        with pytest.raises(ValueError, match=message):
            spectral_gray_world(rows, cands)
