"""Histogram calibration, binning, scoring, and model serialization."""

import math
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from illumest.cbc import (
    CorrelationModel,
    HistogramGrid,
    bin_indices,
    build_model,
    calibrate_bounds,
    classify,
    pixel_features,
    read_model,
    score,
    training_features,
    write_model,
)
from illumest.evaluation import training_chromaticities
from illumest.illuminants import Illuminant, IlluminantSet
from illumest.io import FormatError, read_sensitivities
from illumest.projections import (
    Projection,
    fit_ill_pca,
    fit_nnmf,
    fit_rand,
    fit_rgb,
    projection_hash,
)
from illumest.spectral import (
    SensitivityFunctions,
    SpectralAxis,
    SpectralImage,
    Spectrum,
    relight,
)


def image_from_pixels(pixels):
    pixels = np.asarray(pixels, dtype=np.float64)
    data = pixels[None, :, :]
    axis = SpectralAxis(400, 10, pixels.shape[1])
    return SpectralImage(axis, data, np.ones(data.shape[:2], dtype=bool))


class TestPixelFeatures:
    def test_chromaticity_route_normalizes_then_projects(self):
        basis = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        p = Projection("rand", 3, 2, basis=basis)
        pixels = np.array([[2.0, 3.0, 5.0], [0.0, 0.0, 0.0]])
        feats, kept = pixel_features(p, pixels)
        assert feats.shape == (1, 2)  # black row skipped
        assert kept.tolist() == [True, False]
        np.testing.assert_allclose(feats[0], [0.2, 0.3], atol=1e-15)

    def test_camera_route_integrates_then_normalizes(self):
        axis = SpectralAxis(400, 10, 3)
        rows = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        sens = SensitivityFunctions(axis, rows, "ident")
        p = fit_rgb(sens)
        pixels = np.array([[2.0, 3.0, 5.0]])
        feats, _ = pixel_features(p, pixels)
        # channel responses are (20, 30, 50) after the grid-step weight;
        # L1 normalization of the 3-vector gives (0.2, 0.3, 0.5)
        np.testing.assert_allclose(feats[0], [0.2, 0.3, 0.5], atol=1e-12)

    def test_all_black_returns_empty(self):
        p = fit_rand(3, 2, seed=0)
        feats, kept = pixel_features(p, np.zeros((4, 3)))
        assert feats.shape == (0, 2)
        assert not kept.any()


class TestCalibrateBounds:
    def test_margin_widening(self):
        lo, hi = calibrate_bounds([np.array([[0.0], [1.0]])], 1)
        assert lo[0] == pytest.approx(-0.001, abs=1e-15)
        assert hi[0] == pytest.approx(1.001, abs=1e-15)

    def test_degenerate_dimension_window(self):
        lo, hi = calibrate_bounds([np.array([[0.5], [0.5]])], 1)
        assert lo[0] == pytest.approx(0.5 - 5e-7, abs=1e-18)
        assert hi[0] == pytest.approx(0.5 + 5e-7, abs=1e-18)

    def test_pools_across_blocks(self):
        blocks = [np.array([[0.2, 1.0]]), np.array([[0.8, -1.0]])]
        lo, hi = calibrate_bounds(blocks, 2)
        span0, span1 = 0.6, 2.0
        assert lo[0] == pytest.approx(0.2 - 1e-3 * span0)
        assert hi[0] == pytest.approx(0.8 + 1e-3 * span0)
        assert lo[1] == pytest.approx(-1.0 - 1e-3 * span1)
        assert hi[1] == pytest.approx(1.0 + 1e-3 * span1)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            calibrate_bounds([np.empty((0, 2))], 2)


class TestBinIndices:
    def test_row_major_flat_index(self):
        lo, hi = np.zeros(2), np.ones(2)
        flat = bin_indices(np.array([[0.5, 0.1]]), lo, hi, 5)
        assert flat[0] == 2 * 5 + 0 == 10

    def test_out_of_range_clamps_to_edge_bins(self):
        lo, hi = np.zeros(1), np.ones(1)
        flat = bin_indices(np.array([[-3.0], [0.0], [0.999], [7.0]]), lo, hi, 4)
        np.testing.assert_array_equal(flat, [0, 0, 3, 3])

    def test_upper_bound_lands_in_last_bin(self):
        lo, hi = np.zeros(1), np.ones(1)
        flat = bin_indices(np.array([[1.0]]), lo, hi, 4)
        assert flat[0] == 3


class TestHistogramGrid:
    def test_from_counts_smoothing_arithmetic(self):
        # counts 2 and 1 over a 2x2 grid with smoothing 0.5:
        # denom = 3 + 0.5*4 = 5, probs (0.5, 0.3), base 0.1, total mass 1
        grid = HistogramGrid.from_counts(
            np.array([0, 3]), np.array([2, 1]), n_dims=2, n_bins=2, smoothing=0.5
        )
        np.testing.assert_allclose(
            grid.prob_at(np.array([0, 1, 2, 3])), [0.5, 0.1, 0.1, 0.3], atol=1e-15
        )
        assert grid.base_prob == pytest.approx(0.1, abs=1e-15)
        mass = grid.cell_probs.sum() + grid.base_prob * (4 - grid.cells.size)
        assert mass == pytest.approx(1.0, abs=1e-12)

    def test_zero_smoothing_keeps_plain_frequencies(self):
        grid = HistogramGrid.from_counts(
            np.array([1]), np.array([4]), n_dims=1, n_bins=4, smoothing=0.0
        )
        np.testing.assert_allclose(
            grid.prob_at(np.array([0, 1, 2, 3])), [0.0, 1.0, 0.0, 0.0], atol=1e-15
        )

    def test_prob_at_reads_occupied_cells_and_base(self):
        cells = np.array([2, 7, 11])
        probs = np.array([0.3, 0.2, 0.1])
        grid = HistogramGrid(2, 4, base_prob=0.025, cells=cells, cell_probs=probs)
        expected = np.full(16, 0.025)
        expected[cells] = probs
        np.testing.assert_array_equal(grid.prob_at(np.arange(16)), expected)

    def test_sparse_storage_must_align(self):
        with pytest.raises(ValueError):
            HistogramGrid(1, 2, 0.1, cells=np.array([0]), cell_probs=np.ones(2))
        with pytest.raises(ValueError):
            HistogramGrid(
                1, 2, 0.1, cells=np.array([[0]]), cell_probs=np.array([[1.0]])
            )

    def test_sparse_cells_must_increase(self):
        with pytest.raises(ValueError):
            HistogramGrid(
                1, 4, 0.1, cells=np.array([3, 1]), cell_probs=np.array([0.5, 0.5])
            )


def hand_model():
    """1-D model over two candidates with hand-picked histograms."""
    proj = Projection("rand", 2, 1, basis=np.array([[1.0, 0.0]]))
    grid_a = HistogramGrid(
        1, 4, base_prob=0.025, cells=np.arange(4),
        cell_probs=np.array([0.7, 0.1, 0.1, 0.1]),
    )
    # every cell unseen: 0.25 each
    grid_b = HistogramGrid(
        1, 4, base_prob=0.25, cells=np.empty(0), cell_probs=np.empty(0)
    )
    return CorrelationModel(
        n_dims=1,
        n_bins=4,
        lo=np.zeros(1),
        hi=np.ones(1),
        smoothing=0.0,
        candidate_names=("warm", "flat"),
        grids=(grid_a, grid_b),
        projection_digest=projection_hash(proj),
        projection=proj,
    )


class TestScore:
    def test_log_mode_formula(self):
        model = hand_model()
        # two pixels with first-channel chromaticities 0.1 (cell 0) and
        # 0.6 (cell 2), equal weight
        img = image_from_pixels([[0.2, 1.8], [1.2, 0.8]])
        s = score(model, img, mode="log")
        assert s[0] == pytest.approx(0.5 * math.log(0.7) + 0.5 * math.log(0.1))
        assert s[1] == pytest.approx(math.log(0.25))

    def test_dot_mode_formula(self):
        model = hand_model()
        img = image_from_pixels([[0.2, 1.8], [1.2, 0.8]])
        s = score(model, img, mode="dot")
        assert s[0] == pytest.approx(0.5 * 0.7 + 0.5 * 0.1)
        assert s[1] == pytest.approx(0.25)

    def test_test_histogram_weights_are_frequencies(self):
        model = hand_model()
        # three pixels in cell 0, one in cell 2 -> weights 0.75 / 0.25
        img = image_from_pixels(
            [[0.2, 1.8], [0.1, 0.9], [0.3, 2.7], [1.2, 0.8]]
        )
        s = score(model, img, mode="dot")
        assert s[0] == pytest.approx(0.75 * 0.7 + 0.25 * 0.1)

    def test_unseen_cell_uses_base_prob(self):
        proj = Projection("rand", 2, 1, basis=np.array([[1.0, 0.0]]))
        sparse = HistogramGrid(
            1, 4, base_prob=0.025, cells=np.array([0]), cell_probs=np.array([0.9])
        )
        model = CorrelationModel(
            n_dims=1, n_bins=4, lo=np.zeros(1), hi=np.ones(1), smoothing=0.0,
            candidate_names=("a",), grids=(sparse,),
            projection_digest=projection_hash(proj), projection=proj,
        )
        img = image_from_pixels([[1.8, 0.2]])  # chromaticity 0.9 -> cell 3
        s = score(model, img, mode="log")
        assert s[0] == pytest.approx(math.log(0.025))

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            score(hand_model(), image_from_pixels([[1.0, 1.0]]), mode="cosine")

    def test_detached_model_cannot_score(self):
        model = hand_model()
        detached = CorrelationModel(
            n_dims=model.n_dims, n_bins=model.n_bins, lo=model.lo, hi=model.hi,
            smoothing=model.smoothing, candidate_names=model.candidate_names,
            grids=model.grids, projection_digest=model.projection_digest,
        )
        with pytest.raises(ValueError):
            score(detached, image_from_pixels([[1.0, 1.0]]))

    def test_classify_breaks_ties_toward_lowest_index(self):
        proj = Projection("rand", 2, 1, basis=np.array([[1.0, 0.0]]))
        grid = HistogramGrid(
            1, 2, base_prob=0.5, cells=np.empty(0), cell_probs=np.empty(0)
        )
        model = CorrelationModel(
            n_dims=1, n_bins=2, lo=np.zeros(1), hi=np.ones(1), smoothing=0.0,
            candidate_names=("first", "second"), grids=(grid, grid),
            projection_digest=projection_hash(proj), projection=proj,
        )
        name, scores = classify(model, image_from_pixels([[1.0, 3.0]]))
        assert name == "first"
        assert scores[0] == scores[1]


@st.composite
def sparse_models(draw):
    """Identity-projection model over random sparse grids, plus a test image.

    Candidates draw their cells from a shared pool at most half the grid, so
    cells are shared, unique to one candidate, or in no candidate at all;
    smoothing 0 gives base probability 0 (log -inf) in unseen cells.
    """
    n_dims = draw(st.integers(1, 3))
    n_bins = draw(st.integers(2, 6))
    n_cand = draw(st.integers(1, 6))
    smoothing = draw(st.sampled_from([0.0, 1e-9, 0.3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_cells = n_bins**n_dims
    pool = rng.choice(n_cells, size=max(1, n_cells // 2), replace=False)
    grids = []
    for _ in range(n_cand):
        cells = np.unique(rng.choice(pool, size=rng.integers(1, pool.size + 1)))
        counts = rng.integers(1, 50, size=cells.size)
        grids.append(
            HistogramGrid.from_counts(cells, counts, n_dims, n_bins, smoothing)
        )
    proj = Projection("rand", n_dims + 1, n_dims, basis=np.eye(n_dims, n_dims + 1))
    model = CorrelationModel(
        n_dims=n_dims, n_bins=n_bins, lo=np.zeros(n_dims), hi=np.ones(n_dims),
        smoothing=smoothing, candidate_names=tuple(f"c{j}" for j in range(n_cand)),
        grids=tuple(grids), projection_digest=projection_hash(proj), projection=proj,
    )
    image = image_from_pixels(rng.random((draw(st.integers(1, 40)), n_dims + 1)))
    return model, image


class TestScoreOracle:
    @settings(max_examples=200, deadline=None)
    @given(sparse_models(), st.sampled_from(["log", "dot"]))
    def test_score_is_bitwise_per_candidate_dot(self, case, mode):
        model, image = case
        feats, _ = pixel_features(model.projection, image.valid_pixels())
        flat = bin_indices(feats, model.lo, model.hi, model.n_bins)
        occ, counts = np.unique(flat, return_counts=True)
        weights = counts / counts.sum()
        expected = np.empty(len(model.grids))
        for j, grid in enumerate(model.grids):
            probs = grid.prob_at(occ)
            if mode == "log":
                with np.errstate(divide="ignore"):
                    probs = np.log(probs)
            expected[j] = float(weights @ probs)
        assert score(model, image, mode=mode).tobytes() == expected.tobytes()


def stack_with_black_rows(rng, shape, n_rows, n_bands):
    """Radiance blocks of n_rows rows each, stacked to shape + (n_rows, n_bands).

    Each block turns a random number of its rows black (any but the last),
    so the blocks have different usable-row counts.
    """
    stack = rng.random(shape + (n_rows, n_bands)) * rng.uniform(0.1, 10.0)
    for block in stack.reshape(-1, n_rows, n_bands):
        black = rng.permutation(n_rows)[: rng.integers(0, n_rows)]
        block[black] = 0.0
    return stack


def assert_rows_match_single_blocks(model, stack, mode):
    """Row k of the stack's scores is the score of block k's non-black rows."""
    batched = score(model, stack, mode)
    assert batched.shape == stack.shape[:-2] + (len(model.grids),)
    blocks = stack.reshape(-1, *stack.shape[-2:])
    for row, block in zip(batched.reshape(len(blocks), -1), blocks):
        alone = score(model, image_from_pixels(block[block.any(axis=1)]), mode=mode)
        assert row.tobytes() == alone.tobytes()


def bin_edge_distance(model, feats):
    """Smallest distance of any feature coordinate to a bin edge."""
    width = (model.hi - model.lo) / model.n_bins
    steps = (feats - model.lo) / width
    return float(np.min(np.abs(steps - np.round(steps)) * width))


class TestBatchedScore:
    @settings(max_examples=100, deadline=None)
    @given(sparse_models(), st.sampled_from(["log", "dot"]), st.data())
    def test_each_row_is_the_score_of_its_block(self, case, mode, data):
        # identity bases: every product is exact, so rows match bit for bit
        model, _ = case
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        shape = tuple(data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=2)))
        n_rows = data.draw(st.integers(1, 30))
        stack = stack_with_black_rows(rng, shape, n_rows, model.projection.input_dim)
        assert_rows_match_single_blocks(model, stack, mode)

    @pytest.fixture(scope="class")
    def fitted_models(self, bundled_set, bundled_cameras):
        rng = np.random.default_rng(5)
        axis = bundled_set.axis
        mask = np.ones((6, 6), dtype=bool)
        images = [
            SpectralImage(axis, 0.05 + rng.random((6, 6, axis.count)), mask)
            for _ in range(3)
        ]
        rows = training_chromaticities(images, bundled_set)
        projections = {
            "rand": fit_rand(axis.count, 3, seed=1),
            "rgb": fit_rgb(read_sensitivities(bundled_cameras[0])),
            "ill_pca": fit_ill_pca(bundled_set, 3),
            "nnmf": fit_nnmf(rows, 2, max_iter=50),
        }
        return {
            kind: build_model(images, bundled_set, proj, n_bins=10)
            for kind, proj in projections.items()
        }

    @pytest.mark.parametrize("kind", ["rand", "rgb", "ill_pca", "nnmf"])
    @pytest.mark.parametrize("mode", ["log", "dot"])
    def test_fitted_projections_match_single_blocks(self, fitted_models, kind, mode):
        # A fitted basis's batched product may round a row differently from
        # the same row alone (BLAS blocks by batch size), so the features
        # agree only to rounding, and the scores bit for bit only where no
        # coordinate lies on a bin edge: these inputs are checked for that.
        model = fitted_models[kind]
        rng = np.random.default_rng(11)
        stack = stack_with_black_rows(rng, (5,), 64, model.projection.input_dim)
        batched, kept = pixel_features(model.projection, stack.reshape(-1, stack.shape[-1]))
        owner = np.repeat(np.arange(5), 64)[kept]
        for k, block in enumerate(stack):
            alone, _ = pixel_features(model.projection, block)
            np.testing.assert_allclose(batched[owner == k], alone, rtol=0, atol=1e-12)
            assert bin_edge_distance(model, alone) > 1e-9
        assert_rows_match_single_blocks(model, stack, mode)

    def test_block_without_usable_pixels_raises_as_an_image_does(self):
        model = hand_model()
        good = np.array([[0.2, 1.8], [1.2, 0.8]])
        with pytest.raises(ValueError, match="no usable pixels"):
            score(model, np.stack([good, np.zeros((2, 2)), good]))
        with pytest.raises(ValueError, match="no usable pixels"):
            score(model, np.empty((3, 0, 2)))
        for bad in (np.zeros((3, 2)), np.empty((0, 2))):
            with pytest.raises(ValueError, match="no usable pixels"):
                score(model, image_from_pixels(bad))

    def test_classify_names_each_block(self):
        model = hand_model()
        stack = stack_with_black_rows(np.random.default_rng(2), (2, 3), 4, 2)
        names, scores = classify(model, stack)
        assert names.shape == (2, 3) and scores.shape == (2, 3, len(model.grids))
        for name, block in zip(names.ravel(), stack.reshape(6, 4, 2)):
            assert name == classify(model, image_from_pixels(block))[0]

    def test_huge_cell_space(self):
        # 2^31 bins per axis in two dimensions is 2^62 cells: a key that
        # combined block and cell over three blocks would overflow int64.
        axis, candidates, images = tiny_problem()
        model = build_model(images, candidates, fit_rand(4, 2, seed=42), n_bins=2**31)
        stack = stack_with_black_rows(np.random.default_rng(3), (3,), 12, 4)
        for mode in ("log", "dot"):
            assert_rows_match_single_blocks(model, stack, mode)


def tiny_problem():
    """Two sharply different candidates and reflectances that expose them."""
    axis = SpectralAxis(400, 10, 4)
    blue = Illuminant("blue", Spectrum(axis, [8.0, 4.0, 1.0, 0.5]))
    red = Illuminant("red", Spectrum(axis, [0.5, 1.0, 4.0, 8.0]))
    candidates = IlluminantSet((blue, red))
    rng = np.random.default_rng(0)
    images = []
    for _ in range(3):
        refl = 0.1 + 0.9 * rng.random((6, 6, 4))
        images.append(SpectralImage(axis, refl, np.ones((6, 6), dtype=bool)))
    return axis, candidates, images


class TestBuildAndClassify:
    def test_self_relit_scenes_classified_correctly(self):
        axis, candidates, images = tiny_problem()
        proj = fit_rand(4, 2, seed=42)
        model = build_model(images, candidates, proj, n_bins=8)
        for ill in candidates:
            test = relight(images[0], ill.spd)
            name, _ = classify(model, test)
            assert name == ill.name

    def test_explicit_bounds_respected(self):
        axis, candidates, images = tiny_problem()
        proj = fit_rand(4, 2, seed=42)
        lo, hi = np.full(2, -2.0), np.full(2, 2.0)
        feats = replace(training_features(images, candidates, proj), lo=lo, hi=hi)
        model = build_model(images, candidates, proj, n_bins=8, features=feats)
        np.testing.assert_array_equal(model.lo, lo)
        np.testing.assert_array_equal(model.hi, hi)

    def test_precomputed_features_give_identical_model(self, tmp_path):
        axis, candidates, images = tiny_problem()
        proj = fit_rand(4, 2, seed=42)
        direct = build_model(images, candidates, proj, n_bins=8)
        feats = training_features(images, candidates, proj)
        via_features = build_model(images, candidates, proj, n_bins=8, features=feats)
        p1, p2 = tmp_path / "a.cbcm", tmp_path / "b.cbcm"
        write_model(p1, direct)
        write_model(p2, via_features)
        assert p1.read_bytes() == p2.read_bytes()

    def test_features_must_match_candidates_and_projection(self):
        axis, candidates, images = tiny_problem()
        proj = fit_rand(4, 2, seed=42)
        feats = training_features(images, candidates, proj)
        with pytest.raises(ValueError, match="blocks"):
            build_model(
                images, candidates, proj, n_bins=8,
                features=replace(feats, blocks=feats.blocks[:1]),
            )
        with pytest.raises(ValueError, match="blocks"):
            build_model(
                images, candidates, fit_rand(4, 3, seed=42), n_bins=8, features=feats
            )

    @pytest.mark.parametrize("smoothing", [math.nan, math.inf, 0.0, -1.0])
    def test_degenerate_smoothing_rejected(self, smoothing):
        axis, candidates, images = tiny_problem()
        proj = fit_rand(4, 2, seed=42)
        with pytest.raises(ValueError, match="smoothing"):
            build_model(images, candidates, proj, n_bins=8, smoothing=smoothing)

    def test_band_count_mismatch_rejected(self):
        axis, candidates, images = tiny_problem()
        proj = fit_rand(5, 2, seed=0)
        with pytest.raises(ValueError):
            build_model(images, candidates, proj, n_bins=8)


class TestModelSerialization:
    def build(self):
        axis, candidates, images = tiny_problem()
        proj = fit_rand(4, 2, seed=42)
        return proj, build_model(images, candidates, proj, n_bins=8)

    def test_round_trip_bit_exact(self, tmp_path):
        proj, model = self.build()
        p1 = tmp_path / "m.cbcm"
        write_model(p1, model)
        loaded = read_model(p1)
        assert loaded.projection is None
        assert loaded.candidate_names == model.candidate_names
        np.testing.assert_array_equal(loaded.lo, model.lo)
        np.testing.assert_array_equal(loaded.hi, model.hi)
        assert loaded.smoothing == model.smoothing
        p2 = tmp_path / "m2.cbcm"
        write_model(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_model_scores_after_reattaching(self, tmp_path):
        proj, model = self.build()
        path = tmp_path / "m.cbcm"
        write_model(path, model)
        loaded = read_model(path).with_projection(proj)
        img = image_from_pixels(np.full((3, 4), 0.5))
        np.testing.assert_allclose(score(loaded, img), score(model, img), atol=1e-15)

    def test_wrong_projection_rejected(self, tmp_path):
        proj, model = self.build()
        path = tmp_path / "m.cbcm"
        write_model(path, model)
        other = fit_rand(4, 2, seed=43)
        with pytest.raises(ValueError):
            read_model(path).with_projection(other)

    def test_bad_magic_rejected(self, tmp_path):
        proj, model = self.build()
        path = tmp_path / "m.cbcm"
        write_model(path, model)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            read_model(path)

    @pytest.mark.parametrize(
        "cells, probs, base, match",
        [
            ([1, 64], [0.5, 0.4], 0.1 / 62, "outside the grid"),  # 8x8 grid
            ([1, 2], [0.5, np.nan], 0.1 / 62, r"outside \(0, 1\]"),
            ([2, 1], [0.5, 0.4], 0.1 / 62, "strictly increasing"),
            ([1, 2], [0.0, 0.9], 0.1 / 62, r"outside \(0, 1\]"),
            ([1, 2], [0.5, 0.4], np.inf, "base probability"),
            ([1, 2], [0.5, 0.4], 0.2, "total mass"),  # 0.9 + 62 * 0.2
        ],
    )
    def test_bad_candidate_table_rejected(self, tmp_path, cells, probs, base, match):
        proj, model = self.build()
        path = tmp_path / "m.cbcm"
        write_model(path, model)
        blob = bytearray(path.read_bytes())
        # first candidate: header, digest, name, then (base, count) and its table
        at = 5 + 12 + 16 * model.n_dims + 8 + 32 + 4 + len(model.candidate_names[0])
        n_old = struct.unpack_from("<Q", blob, at + 8)[0]
        table = (
            struct.pack("<dQ", base, len(cells))
            + np.asarray(cells, dtype="<u8").tobytes()
            + np.asarray(probs, dtype="<f8").tobytes()
        )
        blob[at : at + 16 + 16 * n_old] = table
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=match):
            read_model(path)

    def test_dimension_count_past_the_file_rejected(self, tmp_path):
        proj, model = self.build()
        path = tmp_path / "m.cbcm"
        write_model(path, model)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, 5, 2**32 - 1)  # n_dims
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            read_model(path)

    def test_cell_count_past_the_file_rejected(self, tmp_path):
        proj, model = self.build()
        path = tmp_path / "m.cbcm"
        write_model(path, model)
        blob = bytearray(path.read_bytes())
        # top bit of the first candidate's u64 cell count: 2^63 + n cells
        at = 5 + 12 + 16 * model.n_dims + 8 + 32 + 4 + len(model.candidate_names[0])
        blob[at + 8 + 7] ^= 0x80
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="more than the file holds"):
            read_model(path)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0, 0.0])
    def test_stored_smoothing_must_be_finite_and_non_negative(self, tmp_path, value):
        proj, model = self.build()
        path = tmp_path / "m.cbcm"
        write_model(path, model)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<d", blob, 5 + 12 + 16 * model.n_dims, value)
        path.write_bytes(bytes(blob))
        if value == 0.0:  # the oracle models use no smoothing
            assert read_model(path).smoothing == 0.0
            return
        with pytest.raises(FormatError, match="smoothing"):
            read_model(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        proj, model = self.build()
        path = tmp_path / "m.cbcm"
        write_model(path, model)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(FormatError):
            read_model(path)
