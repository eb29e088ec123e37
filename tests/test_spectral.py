"""Core spectral types: grids, chromaticity, relighting, noise."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from illumest.baselines import spectral_gray_world
from illumest.illuminants import Illuminant, IlluminantSet
from illumest.spectral import (
    ZERO_NORM_EPS,
    AxisMismatchError,
    SensitivityFunctions,
    SpectralAxis,
    SpectralImage,
    Spectrum,
    add_noise,
    chromaticity_rows,
    downsample,
    mix_seed,
    noise_draw,
    noise_sigma,
    noisy_rows,
    relight,
    sensor_project,
)


def make_image(data, mask=None):
    data = np.asarray(data, dtype=np.float64)
    if mask is None:
        mask = np.ones(data.shape[:2], dtype=bool)
    axis = SpectralAxis(400.0, 10.0, data.shape[2])
    return SpectralImage(axis, data, mask)


class TestAxis:
    def test_defaults_cover_visible_range(self):
        axis = SpectralAxis()
        assert axis.start_nm == 400.0
        assert axis.step_nm == 10.0
        assert axis.count == 31
        assert axis.stop_nm == 700.0
        w = axis.wavelengths()
        assert w.shape == (31,)
        assert w[0] == 400.0 and w[-1] == 700.0
        assert np.all(np.diff(w) == 10.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            SpectralAxis(step_nm=0.0)
        with pytest.raises(ValueError):
            SpectralAxis(step_nm=-5.0)
        with pytest.raises(ValueError):
            SpectralAxis(count=0)
        with pytest.raises(ValueError):
            SpectralAxis(start_nm=float("nan"))

    def test_equality_is_by_value(self):
        assert SpectralAxis(400, 10, 31) == SpectralAxis(400.0, 10.0, 31)
        assert SpectralAxis(400, 10, 31) != SpectralAxis(400, 10, 30)


class TestSpectrum:
    def test_length_must_match_axis(self):
        axis = SpectralAxis(400, 10, 4)
        with pytest.raises(ValueError):
            Spectrum(axis, [1.0, 2.0])

    def test_rejects_non_finite(self):
        axis = SpectralAxis(400, 10, 2)
        with pytest.raises(ValueError):
            Spectrum(axis, [1.0, float("inf")])


class TestChromaticityRows:
    """The one rule that judges a row black and L1-normalizes the rest."""

    def test_known_values(self):
        rows, keep = chromaticity_rows(np.array([[2.0, 3.0, 5.0]]))
        np.testing.assert_array_equal(rows, [[0.2, 0.3, 0.5]])
        assert rows.sum() == 1.0
        np.testing.assert_array_equal(keep, [True])

    def test_black_rows_dropped(self):
        rows, keep = chromaticity_rows(
            np.array([[0.0, 0.0, 0.0], [1e-13, 0.0, 0.0], [1.0, 1.0, 2.0]])
        )
        np.testing.assert_array_equal(rows, [[0.25, 0.25, 0.5]])
        np.testing.assert_array_equal(keep, [False, False, True])

    def test_threshold_is_exclusive(self):
        above = np.nextafter(ZERO_NORM_EPS, 1.0)
        rows, keep = chromaticity_rows(np.array([[ZERO_NORM_EPS, 0.0], [above, 0.0]]))
        np.testing.assert_array_equal(rows, [[1.0, 0.0]])
        np.testing.assert_array_equal(keep, [False, True])

    def test_scale_invariant(self):
        rng = np.random.default_rng(7)
        v = rng.random((1, 5)) + 0.01
        a, _ = chromaticity_rows(v)
        b, _ = chromaticity_rows(37.5 * v)
        np.testing.assert_allclose(a, b, atol=1e-15)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 40), st.integers(1, 7), st.integers(0, 2**32 - 1), st.booleans(),
           st.booleans())
    def test_gather_then_divide_bit_for_bit_in_column_major(self, n, k, seed, black, own_sums):
        # every row kept divides in place, black rows gather the kept rows
        # first; both give the rows' own quotients, column-major
        rng = np.random.default_rng(seed)
        wide = rng.random((n, k + 1)) * rng.uniform(0.1, 10.0)
        if black:
            wide[rng.random(n) < 0.3] = 0.0
        rows, sums = (wide, None) if own_sums else (wide[:, :-1], wide[:, -1])
        chroma, keep = chromaticity_rows(rows, sums)
        sums = rows.sum(axis=1) if sums is None else sums
        want = sums > ZERO_NORM_EPS
        assert keep.tolist() == want.tolist()
        expected = rows[want] / sums[want][:, None]
        assert chroma.shape == expected.shape and chroma.tobytes() == expected.tobytes()
        assert chroma.flags.f_contiguous

    def test_black_and_masked_pixels_skipped(self):
        data = np.zeros((2, 2, 3))
        data[0, 0] = [2.0, 3.0, 5.0]
        data[0, 1] = [1.0, 1.0, 2.0]
        data[1, 1] = [4.0, 4.0, 4.0]  # masked below
        mask = np.array([[True, True], [True, False]])
        rows, keep = chromaticity_rows(make_image(data, mask).valid_pixels())
        np.testing.assert_array_equal(keep, [True, True, False])  # (1, 0) is black
        np.testing.assert_allclose(rows, [[0.2, 0.3, 0.5], [0.25, 0.25, 0.5]], atol=1e-15)
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-12)

    def test_gray_world_keeps_exactly_the_kept_rows(self):
        above = np.nextafter(ZERO_NORM_EPS, 1.0)
        data = np.array(
            [[[1.0, 2.0, 3.0], [ZERO_NORM_EPS, 0.0, 0.0], [above, 0.0, 0.0]],
             [[0.0, 0.0, 0.0], [3.0, 1.0, 1.0], [5.0, 0.0, 5.0]]]
        )
        mask = np.array([[True, True, True], [True, True, False]])
        img = make_image(data, mask)
        cands = IlluminantSet((Illuminant("flat", Spectrum(img.axis, np.ones(3))),))
        _, estimate = spectral_gray_world(img, cands)
        mean = np.array([[1.0, 2.0, 3.0], [above, 0.0, 0.0], [3.0, 1.0, 1.0]]).mean(axis=0)
        np.testing.assert_allclose(estimate.values, mean / np.linalg.norm(mean), rtol=1e-15)

    def test_candidate_chromaticities_are_normalized_spds(self, bundled_set):
        m = bundled_set.chromaticity_matrix()
        assert m.shape == (len(bundled_set), bundled_set.axis.count)
        for row, ill in zip(m, bundled_set):
            np.testing.assert_array_equal(row, ill.normalized_spd().values)


class TestSpectralImage:
    def test_shape_and_mask_defaults(self):
        img = make_image(np.ones((2, 3, 4)))
        assert img.height == 2 and img.width == 3 and img.n_bands == 4
        assert img.mask.shape == (2, 3)
        assert img.mask.all()

    def test_rejects_negative_data(self):
        data = np.ones((2, 2, 3))
        data[0, 0, 1] = -0.5
        with pytest.raises(ValueError):
            make_image(data)

    def test_valid_pixels_respects_mask(self):
        data = np.arange(12, dtype=np.float64).reshape(2, 2, 3)
        mask = np.array([[True, False], [True, True]])
        img = make_image(data, mask)
        pix = img.valid_pixels()
        assert pix.shape == (3, 3)
        np.testing.assert_array_equal(pix[0], data[0, 0])
        np.testing.assert_array_equal(pix[1], data[1, 0])


class TestRelight:
    def test_componentwise_product(self):
        data = np.ones((1, 2, 3))
        data[0, 1] = [2.0, 4.0, 8.0]
        img = make_image(data)
        spd = Spectrum(img.axis, [0.5, 1.0, 2.0])
        lit = relight(img, spd)
        np.testing.assert_array_equal(lit.data[0, 0], [0.5, 1.0, 2.0])
        np.testing.assert_array_equal(lit.data[0, 1], [1.0, 4.0, 16.0])
        assert lit.axis == img.axis

    def test_mask_preserved_and_input_untouched(self):
        data = np.ones((2, 2, 3))
        mask = np.array([[True, False], [True, True]])
        img = make_image(data, mask)
        lit = relight(img, Spectrum(img.axis, [2.0, 2.0, 2.0]))
        np.testing.assert_array_equal(lit.mask, mask)
        np.testing.assert_array_equal(img.data, np.ones((2, 2, 3)))

    def test_axis_mismatch_raises(self):
        img = make_image(np.ones((1, 1, 3)))
        other = Spectrum(SpectralAxis(400, 10, 4), np.ones(4))
        with pytest.raises(AxisMismatchError):
            relight(img, other)


class TestSensorProject:
    def test_riemann_sum_scaling(self):
        # Flat unit radiance against a flat unit sensitivity integrates to
        # bands * step: 3 bands at 10 nm -> 30 per channel.
        img = make_image(np.ones((1, 1, 3)))
        rows = np.ones((3, 3))
        sens = SensitivityFunctions(img.axis, rows, "flat")
        rgb = sensor_project(img, sens)
        assert rgb.shape == (1, 1, 3)
        np.testing.assert_allclose(rgb[0, 0], [30.0, 30.0, 30.0], atol=1e-12)

    def test_channel_weighting(self):
        img = make_image(np.array([[[1.0, 2.0, 3.0]]]))
        rows = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        sens = SensitivityFunctions(img.axis, rows, "delta")
        rgb = sensor_project(img, sens)
        np.testing.assert_allclose(rgb[0, 0], [10.0, 20.0, 30.0], atol=1e-12)


class TestDownsample:
    def test_box_average(self):
        data = np.zeros((2, 2, 1))
        data[:, :, 0] = [[1.0, 3.0], [5.0, 7.0]]
        img = make_image(data)
        small = downsample(img, 2)
        assert small.data.shape == (1, 1, 1)
        assert small.data[0, 0, 0] == 4.0
        assert small.mask[0, 0]

    def test_partial_blocks_average_valid_only(self):
        data = np.zeros((2, 2, 1))
        data[:, :, 0] = [[1.0, 3.0], [5.0, 7.0]]
        mask = np.array([[True, False], [True, True]])
        img = make_image(data, mask)
        small = downsample(img, 2)
        assert small.data[0, 0, 0] == pytest.approx((1.0 + 5.0 + 7.0) / 3.0)

    def test_fully_masked_block_stays_masked(self):
        img = make_image(np.ones((2, 2, 1)), np.zeros((2, 2), dtype=bool))
        small = downsample(img, 2)
        assert not small.mask[0, 0]
        assert small.data[0, 0, 0] == 0.0

    def test_factor_must_divide(self):
        img = make_image(np.ones((3, 4, 2)))
        with pytest.raises(ValueError):
            downsample(img, 2)

    def test_factor_one_copies(self):
        img = make_image(np.ones((2, 2, 2)))
        out = downsample(img, 1)
        assert out is not img
        np.testing.assert_array_equal(out.data, img.data)


class TestLayouts:
    """`read_scube` returns a band-major view of the file's planes (bands the
    slowest axis), and a C-order (H, W, bands) copy holds the same values:
    the pixel primitives give the same bytes on both layouts."""

    @settings(max_examples=80, deadline=None)
    @given(
        blocks=st.tuples(st.integers(1, 6), st.integers(1, 6)),
        bands=st.integers(1, 33),
        factor=st.integers(1, 5),
        masked=st.floats(0.0, 0.9),
        snr_db=st.one_of(st.none(), st.floats(-10.0, 60.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_bytes_on_both_layouts(self, blocks, bands, factor, masked, snr_db, seed):
        rng = np.random.default_rng(seed)
        h, w = blocks[0] * factor, blocks[1] * factor
        planes = rng.random((bands, h, w)).astype(np.float32).astype(np.float64)  # as stored
        mask = rng.random((h, w)) >= masked
        mask[0, 0] = True  # a noise level needs a valid pixel
        axis = SpectralAxis(400.0, 10.0, bands)
        sens = SensitivityFunctions(axis, rng.random((3, bands)) + 0.01)
        layouts = planes.transpose(1, 2, 0), np.ascontiguousarray(planes.transpose(1, 2, 0))
        assert layouts[1].flags.c_contiguous and layouts[0].strides[2] == h * w * 8
        outputs = []
        for data in layouts:
            img = SpectralImage(axis, data, mask)
            assert img.data.strides == data.strides  # the image keeps the layout
            small = downsample(img, factor)
            outputs.append([
                small.data.tobytes(), small.mask.tobytes(), sensor_project(img, sens).tobytes(),
                img.valid_pixels().tobytes(), add_noise(img, snr_db, seed).data.tobytes(),
            ])
        assert outputs[0] == outputs[1]


class TestNoise:
    def test_sigma_follows_snr_definition(self):
        assert noise_sigma(1.0, 20.0) == 0.1
        assert noise_sigma(2.0, 40.0) == 0.02
        assert noise_sigma(3.0, 0.0) == 3.0

    def test_mix_seed_is_stable_and_distinct(self):
        a = mix_seed(1234, 0, 0)
        assert a == mix_seed(1234, 0, 0)
        assert a != mix_seed(1234, 0, 1)
        assert a != mix_seed(1234, 1, 0)
        assert a != mix_seed(5678, 0, 0)
        assert 0 <= a < 2**64

    def test_add_noise_none_level_copies(self):
        img = make_image(np.full((2, 2, 3), 2.0))
        out = add_noise(img, None, 1)
        assert out is not img
        np.testing.assert_array_equal(out.data, img.data)

    def test_add_noise_is_seeded_and_clipped(self):
        img = make_image(np.full((4, 4, 3), 0.01))
        a = add_noise(img, 0.0, seed=5)  # sigma == mean, lots of clipping
        b = add_noise(img, 0.0, seed=5)
        c = add_noise(img, 0.0, seed=6)
        np.testing.assert_array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)
        assert np.all(a.data >= 0.0)
        assert not np.array_equal(a.data, img.data)

    def test_masked_pixels_untouched(self):
        data = np.full((2, 2, 2), 1.0)
        mask = np.array([[True, False], [True, True]])
        img = make_image(data, mask)
        out = add_noise(img, 10.0, seed=3)
        np.testing.assert_array_equal(out.data[0, 1], data[0, 1])
        np.testing.assert_array_equal(out.mask, mask)

    def test_sigma_uses_mean_of_valid_pixels(self):
        # All valid values equal 2.0, so a 40 dB level must scale noise by
        # exactly sigma = 0.02 regardless of the masked outlier.
        data = np.full((1, 2, 2), 2.0)
        data[0, 1] = 100.0
        mask = np.array([[True, False]])
        img = make_image(data, mask)
        out = add_noise(img, 40.0, seed=9)
        rng = np.random.default_rng(9)
        wanted = np.clip(2.0 + 0.02 * rng.standard_normal((1, 2, 2)), 0.0, None)
        np.testing.assert_array_equal(out.data[0, 0], wanted[0, 0])

    @pytest.mark.parametrize("level", [None, np.inf])
    def test_clean_levels_copy(self, level):
        img = make_image(np.full((2, 2, 3), 2.0), np.array([[True, False], [True, True]]))
        out = add_noise(img, level, 1)
        assert out is not img and out.data is not img.data
        np.testing.assert_array_equal(out.data, img.data)
        rows = img.valid_pixels()
        clean = noisy_rows(rows, noise_draw(img.mask, 3, 1), level)
        assert clean is not rows
        np.testing.assert_array_equal(clean, rows)

    @pytest.mark.parametrize("level", [np.nan, -np.inf], ids=["nan", "-inf"])
    def test_non_finite_level_rejected(self, level):
        # -inf is the noisiest level of all, not a clean one
        img = make_image(np.full((2, 2, 3), 2.0))
        with pytest.raises(ValueError, match="snr_db must be finite, \\+inf or None"):
            add_noise(img, level, 1)
        with pytest.raises(ValueError, match="snr_db must be finite"):
            noisy_rows(img.valid_pixels(), noise_draw(img.mask, 3, 1), level)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 5),
        st.integers(1, 5),
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
        st.lists(st.floats(-30.0, 80.0), min_size=1, max_size=3),
        st.integers(0, 2**64 - 1),
    )
    def test_rows_match_the_noisy_image(self, h, w, bands, draw, snrs, seed):
        rng = np.random.default_rng(draw)
        mask = rng.random((h, w)) < 0.7
        mask.flat[rng.integers(h * w)] = True
        img = make_image(rng.random((h, w, bands)) * rng.choice([1e-3, 1.0, 1e3]), mask)
        noise = noise_draw(img.mask, bands, seed)
        for snr in snrs:  # one draw serves every level
            rows = noisy_rows(img.valid_pixels(), noise, snr)
            noisy = add_noise(img, snr, seed)
            assert rows.tobytes() == noisy.valid_pixels().tobytes()
            np.testing.assert_array_equal(noisy.data[~mask], img.data[~mask])
            # the same stream and arithmetic as noising every pixel of the image
            sigma = noise_sigma(float(img.valid_pixels().mean()), snr)
            whole = img.data + np.random.default_rng(seed).standard_normal(img.data.shape) * sigma
            assert rows.tobytes() == np.clip(whole, 0.0, None)[mask].tobytes()

    @pytest.mark.parametrize(
        "snr, digest",
        [
            (50.0, "1441429dbb4bf591f9b7880e76f1d4dbdf0d169c4fcab19f1410f5da4448f201"),
            (20.0, "6f9f2d035edd2905c5b7f927b0c2a134eeb49c2ac617fd9781eb6ea05272dfc8"),
            (0.0, "9ba0ec63db9be0c3053eafc75146f95c9c9c0812807d21465059f18c3b405ef0"),
            (-10.0, "91ab342e9262aaf5bd9d2bf11c92527ea35b11c7b78c100cddc4f599e774b479"),
        ],
    )
    def test_add_noise_bytes_are_pinned(self, snr, digest):
        # sha256 of add_noise's image bytes as the single-step noise rule made them
        rng = np.random.default_rng(7)
        img = make_image(rng.random((6, 5, 4)), rng.random((6, 5)) < 0.6)
        assert hashlib.sha256(add_noise(img, snr, 1234).data.tobytes()).hexdigest() == digest

    def test_draw_must_match_the_rows(self):
        img = make_image(np.full((2, 2, 3), 2.0))
        with pytest.raises(ValueError, match="noise draw"):
            noisy_rows(img.valid_pixels(), noise_draw(img.mask, 2, 1), 20.0)
