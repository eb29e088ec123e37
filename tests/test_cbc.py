"""Histogram calibration, binning, scoring, and model serialization."""

import hashlib
import math
import re
import struct
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from illumest import cbc, linalg
from illumest.cbc import (
    BlockFeatures,
    CorrelationModel,
    bin_indices,
    block_features,
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
    fit_lda,
    fit_nnmf,
    fit_pca,
    fit_rand,
    fit_rgb,
    projection_from_bytes,
    projection_to_bytes,
)
from illumest.spectral import (
    SensitivityFunctions,
    SpectralAxis,
    SpectralImage,
    Spectrum,
    add_noise,
    chromaticity_rows,
    relight,
)
from illumest.synth import SceneRecipe, generate_scene


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
        # the identity sensitivities give channel responses (2, 3, 5);
        # L1 normalization of the 3-vector gives (0.2, 0.3, 0.5)
        np.testing.assert_allclose(feats[0], [0.2, 0.3, 0.5], atol=1e-12)

    def test_all_black_returns_empty(self, bundled_set, bundled_cameras):
        rng = np.random.default_rng(3)
        axis = bundled_set.axis
        mask = np.ones((4, 4), dtype=bool)
        images = [
            SpectralImage(axis, 0.05 + rng.random((4, 4, axis.count)), mask)
            for _ in range(2)
        ]
        rows = training_chromaticities(images, bundled_set, labelled=True)
        for p in (
            fit_rgb(read_sensitivities(bundled_cameras[0])),
            fit_rand(axis.count, 2, seed=0),
            fit_pca(rows, 2),
            fit_ill_pca(bundled_set, 2),
            fit_nnmf(rows, 2, max_iter=20),
            fit_lda(rows, 2),
        ):
            feats, kept = pixel_features(p, np.zeros((4, axis.count)))
            assert feats.shape == (0, p.output_dim), p.kind
            assert not kept.any()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("kind", ["rand", "nnmf"])
    def test_non_finite_rows_raise_when_called_directly(self, bad, kind):
        # A NaN row's L1 sum is not above the black threshold, so it was
        # dropped as black; an inf row gave non-finite features.
        rng = np.random.default_rng(8)
        proj = Projection(kind, 5, 2, basis=rng.random((2, 5)))
        rows = rng.random((6, 5))
        rows[2, 3] = bad
        for spds in (None, rng.random((3, 5))):
            with pytest.raises(ValueError, match="radiance must be finite"):
                pixel_features(proj, rows, spds)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_spds_raise(self, bad):
        rng = np.random.default_rng(9)
        spds = rng.random((3, 5))
        spds[1, 0] = bad
        proj = Projection("rand", 5, 2, basis=rng.random((2, 5)))
        with pytest.raises(ValueError, match="SPDs must be finite"):
            pixel_features(proj, rng.random((4, 5)), spds)

    def test_folded_nnmf_call_holds_one_product_and_one_feature_matrix(self):
        # The product goes once the black test has read it, and the NNLS
        # solutions overwrite the features they solve: a C = 28, N = 2048,
        # d' = 5 call stays near the (C, N, d' + 1) product plus the C.N
        # feature rows, where the product, features and a second solution
        # matrix held together came to about 1.9 times that.
        rng = np.random.default_rng(10)
        n_spds, n_rows, d = 28, 2048, 5
        proj = Projection("nnmf", 31, d, basis=rng.random((d, 31)))
        rows, spds = rng.random((n_rows, 31)), 0.5 + rng.random((n_spds, 31))
        held = n_spds * n_rows * (2 * d + 1) * 8
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            feats, kept = pixel_features(proj, rows, spds)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert kept.all() and feats.shape == (n_spds * n_rows, d)
        assert np.any(feats == 0)  # some rows clip, so the NNLS enumerates supports
        assert peak < 1.4 * held, peak / held


class TestCalibrateBounds:
    def test_margin_widening(self):
        lo, hi = calibrate_bounds(np.array([[0.0], [1.0]]), 1)
        assert lo[0] == pytest.approx(-0.001, abs=1e-15)
        assert hi[0] == pytest.approx(1.001, abs=1e-15)

    def test_degenerate_dimension_window(self):
        lo, hi = calibrate_bounds(np.array([[0.5], [0.5]]), 1)
        assert lo[0] == pytest.approx(0.5 - 5e-7, abs=1e-18)
        assert hi[0] == pytest.approx(0.5 + 5e-7, abs=1e-18)

    def test_pools_across_blocks(self):
        # one row from each of two candidates' blocks
        lo, hi = calibrate_bounds(np.array([[0.2, 1.0], [0.8, -1.0]]), 2)
        span0, span1 = 0.6, 2.0
        assert lo[0] == pytest.approx(0.2 - 1e-3 * span0)
        assert hi[0] == pytest.approx(0.8 + 1e-3 * span0)
        assert lo[1] == pytest.approx(-1.0 - 1e-3 * span1)
        assert hi[1] == pytest.approx(1.0 + 1e-3 * span1)

    @pytest.mark.parametrize("d_prime", [1, 2, 3, 5])
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_bounds_match_the_row_reduction_bit_for_bit(self, d_prime, layout):
        # the reference reduces the tall (N, d') array along axis 0
        rng = np.random.default_rng(d_prime)
        rows = rng.standard_normal((28_672, d_prime)) * 10.0 ** rng.integers(-3, 3, d_prime)
        rows[rng.integers(0, len(rows), 50)] = 0.0
        rows = {"C": rows, "F": np.asfortranarray(rows), "strided": rows[::3]}[layout]
        lo, hi = rows.min(axis=0), rows.max(axis=0)
        span = hi - lo
        want = (lo - cbc.BOUNDS_MARGIN * span, hi + cbc.BOUNDS_MARGIN * span)
        got = calibrate_bounds(rows, d_prime)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="no feature rows"):
            calibrate_bounds(np.empty((0, 2)), 2)

    def test_rows_of_the_wrong_width_rejected(self):
        with pytest.raises(ValueError, match="expected"):
            calibrate_bounds(np.zeros((3, 2)), 3)


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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_values_past_the_int64_range_clamp_to_edge_bins(self):
        # scaled by 4 / 1e-6 these pass 2**63, the range of the integer cast
        lo, hi = np.zeros(1), np.full(1, 1e-6)
        coords = np.array([[1e300], [-1e300], [1e15], [-1e15]])
        np.testing.assert_array_equal(bin_indices(coords, lo, hi, 4), [3, 0, 3, 0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "lo, hi, match",
        [
            (-1e308, 1e308, "finite"),
            (math.nan, 1.0, "finite"),
            (0.0, math.inf, "finite"),
            (0.5, 0.5, "lo < hi"),
            (1.0, 0.0, "lo < hi"),
        ],
    )
    def test_bounds_that_cannot_bin_rejected(self, lo, hi, match):
        with pytest.raises(ValueError, match=match):
            bin_indices(np.array([[0.5]]), np.array([lo]), np.array([hi]), 4)

    @pytest.mark.parametrize(
        "coords",
        [
            [[math.inf, 0.5], [math.nan, 0.5], [-math.inf, 0.5]],
            [[math.inf, 0.5]],
            [[0.2, 0.5], [0.5, math.nan]],
            [[0.2, -math.inf]],
        ],
    )
    def test_non_finite_coordinates_rejected(self, coords):
        with pytest.raises(ValueError, match="finite"):
            bin_indices(np.array(coords), np.zeros(2), np.ones(2), 4)


@st.composite
def binning_cases(draw):
    """Coordinates around random bounds (inside, on edges, clamped), with
    the grid: (coords, lo, hi, n_bins)."""
    n_dims = draw(st.integers(1, 4))
    n_bins = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo = rng.uniform(-5.0, 5.0, n_dims)
    hi = lo + rng.uniform(1e-3, 10.0, n_dims)
    n_rows = draw(st.integers(0, 30))
    frac = rng.uniform(-0.5, 1.5, (n_rows, n_dims))
    # some coordinates on bin edges (up to rounding), including lo and hi
    edges = rng.random((n_rows, n_dims)) < 0.3
    frac[edges] = rng.integers(0, n_bins + 1, edges.sum()) / n_bins
    coords = lo + frac * (hi - lo)
    # some far outside the window, up to past the int64 range once scaled
    far = rng.random((n_rows, n_dims)) < 0.1
    sign = rng.choice([-1.0, 1.0], far.sum())
    coords[far] = sign * 10.0 ** rng.uniform(1, 300, far.sum())
    return coords, lo, hi, n_bins


def reference_cells(coords, lo, hi, n_bins):
    """Per-dimension floor and clip, then the row-major flat index, in scalars."""
    out = []
    for row in coords.tolist():
        flat = 0
        for x, l, h in zip(row, lo.tolist(), hi.tolist()):
            idx = math.floor((x - l) / (h - l) * n_bins)
            flat = flat * n_bins + min(max(idx, 0), n_bins - 1)
        out.append(flat)
    return out


class TestBinIndicesProperties:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=200, deadline=None)
    @given(binning_cases())
    def test_cells_lie_in_the_grid_and_match_the_reference(self, case):
        coords, lo, hi, n_bins = case
        flat = bin_indices(coords, lo, hi, n_bins)
        assert flat.dtype == np.int64 and flat.shape == (coords.shape[0],)
        assert np.all((flat >= 0) & (flat < n_bins ** lo.size))
        assert flat.tolist() == reference_cells(coords, lo, hi, n_bins)

    @settings(max_examples=200, deadline=None)
    @given(binning_cases(), st.data())
    def test_cells_are_monotone_in_each_coordinate(self, case, data):
        coords, lo, hi, n_bins = case
        flat = bin_indices(coords, lo, hi, n_bins)
        dim = data.draw(st.integers(0, lo.size - 1))
        step = data.draw(st.floats(0.0, 20.0, allow_nan=False))
        moved = coords.copy()
        moved[:, dim] += step
        assert np.all(bin_indices(moved, lo, hi, n_bins) >= flat)

    @settings(max_examples=200, deadline=None)
    @given(binning_cases(), st.data())
    def test_a_row_bins_alike_wherever_it_sits(self, case, data):
        coords, lo, hi, n_bins = case
        flat = bin_indices(coords, lo, hi, n_bins)
        order = np.array(data.draw(st.permutations(range(coords.shape[0]))), dtype=int)
        np.testing.assert_array_equal(
            bin_indices(coords[order], lo, hi, n_bins), flat[order]
        )
        for k, row in enumerate(coords):
            assert bin_indices(row[None], lo, hi, n_bins)[0] == flat[k]


def oracle_bin_indices(coords, lo, hi, n_bins):
    """The whole-array binning that clamped, floored and folded by a matmul:
    (x - lo) / (hi - lo) * B, clamped to [0, B - 1], `np.floor`, cast to
    int64 and folded with the int64 powers of B."""
    scaled = coords - lo
    scaled /= hi - lo
    scaled *= n_bins
    np.minimum(np.maximum(scaled, 0, out=scaled), n_bins - 1, out=scaled)
    powers = n_bins ** np.arange(lo.size - 1, -1, -1, dtype=np.int64)
    return np.floor(scaled, out=scaled).astype(np.int64) @ powers


#: (d', B) grids at the largest B, or whose cell space lies within a few
#: cells of 2**62.
HUGE_GRIDS = [(1, cbc.MAX_BINS - c) for c in range(4)] + [(2, 2**31), (2, 2**31 - 1)]


@st.composite
def oracle_cases(draw):
    """(coords, lo, hi, B) at B 2..40 and d' 1..6, or on a `HUGE_GRIDS` grid:
    row-major or column-major coordinates inside the bounds, on bin edges,
    on lo and hi, below lo, above hi, far past the int64 range once scaled,
    and -0.0 on bounds whose lo is 0."""
    if draw(st.integers(0, 4)):
        n_dims, n_bins = draw(st.integers(1, 6)), draw(st.integers(2, 40))
    else:
        n_dims, n_bins = draw(st.sampled_from(HUGE_GRIDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo = rng.uniform(-5.0, 5.0, n_dims)
    lo[rng.random(n_dims) < 0.3] = 0.0
    hi = lo + rng.uniform(1e-3, 10.0, n_dims)
    n_rows = draw(st.integers(1, 30))
    coords = lo + rng.uniform(-0.5, 1.5, (n_rows, n_dims)) * (hi - lo)
    kind = rng.integers(0, 7, coords.shape)
    edges = rng.integers(0, n_bins + 1, coords.shape) / n_bins
    coords = np.where(kind == 1, lo + edges * (hi - lo), coords)
    coords = np.where(kind == 2, lo, coords)
    coords = np.where(kind == 3, hi, coords)
    far = rng.choice([-1.0, 1.0], coords.shape) * 10.0 ** rng.uniform(1, 280, coords.shape)
    coords = np.where(kind == 4, far, coords)
    coords = np.where((kind == 5) & (lo == 0.0), -0.0, coords)
    return np.asarray(coords, order=draw(st.sampled_from("CF"))), lo, hi, n_bins


class TestBinningOracle:
    """`bin_indices` and `prefix_cells` of unit coordinates give the oracle's
    int64 cells bit for bit: the cast of the clamped values is the floor,
    and the column fold is the powers matmul."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @given(oracle_cases())
    def test_cells_are_the_oracle_cells(self, case):
        coords, lo, hi, n_bins = case
        want = oracle_bin_indices(coords, lo, hi, n_bins)
        got = bin_indices(coords, lo, hi, n_bins)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        units = coords.copy(order="K")
        cbc.unit_coordinates(units, lo, hi)
        (flat,) = cbc.prefix_cells(units, n_bins, (lo.size,))
        assert flat.dtype == want.dtype and flat.tobytes() == want.tobytes()


def table_model(proj, n_bins, names, cells, probs, occupied, smoothing=0.0):
    """A model under `proj`, on bounds [0, 1] in each dimension, from its
    table: `cells` without the sentinel, `probs` with the base column last."""
    n_dims = proj.output_dim
    return CorrelationModel(
        n_bins=n_bins, lo=np.zeros(n_dims), hi=np.ones(n_dims),
        smoothing=smoothing, candidate_names=tuple(names),
        cells=np.append(np.asarray(cells, dtype=np.int64), cbc.SENTINEL_CELL),
        probs=np.array(probs, dtype=np.float64), occupied=np.array(occupied, dtype=bool),
        projection_digest=proj.digest, projection=proj,
    )


class TestHistogramGrid:
    def test_prob_at_reads_occupied_cells_and_base(self):
        cells = np.array([2, 7, 11])
        probs = np.array([0.3, 0.2, 0.1])
        proj = Projection("rand", 3, 2, basis=np.eye(2, 3))
        model = table_model(proj, 4, ("a",), cells, [[*probs, 0.025]], [[True] * 3])
        expected = np.full(16, 0.025)
        expected[cells] = probs
        (grid,) = model.grids
        np.testing.assert_array_equal(grid.prob_at(np.arange(16)), expected)


def hand_model():
    """1-D model over two candidates with hand-picked histograms."""
    proj = Projection("rand", 2, 1, basis=np.array([[1.0, 0.0]]))
    # "flat" stores no cell: 0.25 each
    return table_model(
        proj, 4, ("warm", "flat"), cells=np.arange(4),
        probs=[[0.7, 0.1, 0.1, 0.1, 0.025], [0.25] * 5],
        occupied=[[True] * 4, [False] * 4],
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
        model = table_model(proj, 4, ("a",), cells=[0], probs=[[0.9, 0.025]], occupied=[[True]])
        img = image_from_pixels([[1.8, 0.2]])  # chromaticity 0.9 -> cell 3
        s = score(model, img, mode="log")
        assert s[0] == pytest.approx(math.log(0.025))

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            score(hand_model(), image_from_pixels([[1.0, 1.0]]), mode="cosine")

    def test_detached_model_cannot_score(self):
        detached = replace(hand_model(), projection=None)
        with pytest.raises(ValueError):
            score(detached, image_from_pixels([[1.0, 1.0]]))

    def test_duplicate_candidate_names_rejected(self):
        model = hand_model()
        with pytest.raises(ValueError, match="unique"):
            replace(model, candidate_names=("warm", "warm"))

    def test_classify_breaks_ties_toward_lowest_index(self):
        proj = Projection("rand", 2, 1, basis=np.array([[1.0, 0.0]]))
        model = table_model(
            proj, 2, ("first", "second"), cells=[], probs=[[0.5], [0.5]], occupied=[[], []]
        )
        name, scores = classify(model, image_from_pixels([[1.0, 3.0]]))
        assert name == "first"
        assert scores[0] == scores[1]


@st.composite
def sparse_models(draw):
    """Identity-projection model over a random sparse table, and a test image.

    Candidates store cells from a shared pool at most half the grid, so
    cells are shared, unique to one candidate, or in no candidate at all;
    smoothing 0 gives base probability 0 (log -inf) in unseen cells.
    """
    n_dims = draw(st.integers(1, 3))
    n_bins = draw(st.integers(2, 6))
    n_cand = draw(st.integers(1, 6))
    smoothing = draw(st.sampled_from([0.0, 1e-9, 0.3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_cells = n_bins**n_dims
    pool = np.sort(rng.choice(n_cells, size=max(1, n_cells // 2), replace=False))
    counts = rng.integers(1, 50, size=(n_cand, pool.size))
    counts *= rng.random(counts.shape) < rng.random()
    counts[np.arange(n_cand), rng.integers(0, pool.size, n_cand)] += 1  # one cell at least
    stored = counts.any(axis=0)  # the union: cells some candidate stores
    counts = counts[:, stored]
    # every cell of the grid gets `smoothing` pseudo-mass before normalization
    denom = counts.sum(axis=1) + smoothing * n_cells
    probs = np.append(counts + smoothing, np.full((n_cand, 1), smoothing), axis=1)
    proj = Projection("rand", n_dims + 1, n_dims, basis=np.eye(n_dims, n_dims + 1))
    model = table_model(
        proj, n_bins, [f"c{j}" for j in range(n_cand)], pool[stored],
        probs / denom[:, None], counts > 0, smoothing,
    )
    image = image_from_pixels(rng.random((draw(st.integers(1, 40)), n_dims + 1)))
    return model, image


def oracle_score(model, feats, mode):
    """Each candidate's score of one block's feature rows as one dot of the
    block's cell frequencies with `HistogramGrid.prob_at` of its cells."""
    occ, counts = np.unique(bin_indices(feats, model.lo, model.hi, model.n_bins),
                            return_counts=True)
    weights = counts / counts.sum()
    out = np.empty(len(model.candidate_names))
    for j, grid in enumerate(model.grids):
        probs = grid.prob_at(occ)
        if mode == "log":
            with np.errstate(divide="ignore"):
                probs = np.log(probs)
        out[j] = float(weights @ probs)
    return out


class TestScoreOracle:
    @settings(max_examples=200, deadline=None)
    @given(sparse_models(), st.sampled_from(["log", "dot"]))
    def test_score_is_bitwise_per_candidate_dot(self, case, mode):
        model, image = case
        feats, _ = pixel_features(model.projection, image.valid_pixels())
        expected = oracle_score(model, feats, mode)
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
    assert batched.shape == stack.shape[:-2] + (len(model.candidate_names),)
    blocks = stack.reshape(-1, *stack.shape[-2:])
    for row, block in zip(batched.reshape(len(blocks), -1), blocks):
        alone = score(model, image_from_pixels(block[block.any(axis=1)]), mode=mode)
        assert row.tobytes() == alone.tobytes()


def stack_with_run_counts(rng, model, runs, dark, n_rows):
    """Non-negative radiance blocks for `model`'s identity projection, stacked
    to (blocks, n_rows, bands): block b's rows fall in runs[b] distinct
    cells, away from bin edges, and where dark[b] some of its other rows are
    black, so it has padding rows in a stack."""
    shape = (model.n_bins,) * model.n_dims
    # cells whose coordinates sum below 1, so the last band stays non-negative
    reachable = np.flatnonzero(
        np.sum(np.indices(shape), axis=0).ravel() + 0.9 * model.n_dims < model.n_bins)
    stack = np.zeros((len(runs), n_rows, model.n_dims + 1))
    for block, n, black in zip(stack, runs, dark):
        cells = rng.choice(reachable, size=n, replace=False)
        n_lit = n + int(rng.integers(0, n_rows - n)) if black else n_rows
        cells = np.concatenate([cells, rng.choice(cells, size=n_lit - n)])
        digits = np.stack(np.unravel_index(cells, shape), axis=1)
        coords = (digits + rng.uniform(0.1, 0.9, digits.shape)) / model.n_bins
        rows = np.append(coords, 1.0 - coords.sum(axis=1, keepdims=True), axis=1)
        block[rng.permutation(n_rows)[:n_lit]] = rows * rng.uniform(0.1, 10.0)
    return stack


def assert_blocks_score_alone_and_as_the_oracle(model, stack, mode, runs):
    """Each block of the stack has runs[b] occupied cells, scores in the
    stack as it does alone, and alone as `oracle_score` does."""
    assert_rows_match_single_blocks(model, stack, mode)
    batched = score(model, stack, mode).reshape(len(runs), -1)
    for row, block, n in zip(batched, stack.reshape(len(runs), *stack.shape[-2:]), runs):
        feats, _ = pixel_features(model.projection, block)
        assert np.unique(bin_indices(feats, model.lo, model.hi, model.n_bins)).size == n
        assert row.tobytes() == oracle_score(model, feats, mode).tobytes()


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
        assert names.shape == (2, 3) and scores.shape == (2, 3, len(model.candidate_names))
        for name, block in zip(names.ravel(), stack.reshape(6, 4, 2)):
            assert name == classify(model, image_from_pixels(block))[0]

    @pytest.mark.parametrize("bad", [math.inf, math.nan, -math.inf])
    def test_non_finite_radiance_rejected(self, bad):
        model = hand_model()
        good = np.array([[0.2, 1.8], [1.2, 0.8]])
        one_bad = good.copy()
        one_bad[1, 0] = bad
        for pixels in (one_bad, np.stack([good, one_bad])):
            for call in (score, classify):
                with pytest.raises(ValueError, match="finite"):
                    call(model, pixels)

    def test_block_with_an_inf_band_in_every_row_rejected(self):
        # Each row's L1 sum is inf, so every feature would be NaN and every
        # score would tie on the first candidate.
        axis, candidates, images = tiny_problem()
        model = build_model(images, candidates, fit_rand(4, 2, seed=42), n_bins=8)
        block = np.random.default_rng(4).random((5, 4))
        block[np.arange(5), np.arange(5) % 4] = math.inf
        with pytest.raises(ValueError, match="finite"):
            classify(model, block)
        with pytest.raises(ValueError, match="finite"):
            classify(model, np.stack([np.ones((5, 4)), block]))

    def test_huge_cell_space(self):
        # 2^31 bins per axis in two dimensions is 2^62 cells: a key that
        # combined block and cell over three blocks would overflow int64.
        axis, candidates, images = tiny_problem()
        model = build_model(images, candidates, fit_rand(4, 2, seed=42), n_bins=2**31)
        stack = stack_with_black_rows(np.random.default_rng(3), (3,), 12, 4)
        for mode in ("log", "dot"):
            assert_rows_match_single_blocks(model, stack, mode)


class TestGroupedScore:
    """`score` groups a stack's blocks by their number of occupied cells
    with one stable sort; the grouping must not show in any block's scores."""

    @staticmethod
    def model(n_bins=6):
        """A 2-D identity model whose candidates store different cells."""
        rng = np.random.default_rng(8)
        n_cells, n_cand = n_bins**2, 4
        stored = rng.random((n_cand, n_cells)) < 0.5
        counts = rng.integers(1, 20, (n_cand, n_cells)) * stored
        probs = (counts + 0.1) / (counts.sum(axis=1, keepdims=True) + 0.1 * n_cells)
        base = 0.1 / (counts.sum(axis=1) + 0.1 * n_cells)
        proj = Projection("rand", 3, 2, basis=np.eye(2, 3))
        return table_model(proj, n_bins, [f"c{j}" for j in range(n_cand)], np.arange(n_cells),
                           np.append(probs, base[:, None], axis=1), stored, 0.1)

    @pytest.mark.parametrize("mode", ["log", "dot"])
    @pytest.mark.parametrize(
        "runs, dark",
        [
            ((3, 1, 3, 2, 1, 2), (False, True, False, True, True, False)),  # counts out of order
            ((5, 2, 5, 5, 2), (True, False, False, True, False)),
            ((4,), (False,)),  # a one-block stack, fully kept
            ((4,), (True,)),  # a one-block stack with black rows
            ((2, 2, 2), (True, False, True)),  # one count: kept and padded blocks alike
        ],
    )
    def test_blocks_score_as_they_do_alone(self, runs, dark, mode):
        model = self.model()
        stack = stack_with_run_counts(np.random.default_rng(len(runs)), model, runs, dark, 9)
        assert_blocks_score_alone_and_as_the_oracle(model, stack, mode, runs)
        # a lone block scored without leading axes, as a request is
        assert_blocks_score_alone_and_as_the_oracle(model, stack[0], mode, runs[:1])

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.sampled_from(["log", "dot"]))
    def test_any_run_counts_and_black_rows(self, data, mode):
        model = self.model()
        runs = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=8))
        dark = data.draw(st.lists(st.booleans(), min_size=len(runs), max_size=len(runs)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        stack = stack_with_run_counts(rng, model, runs, dark, max(runs) + 4)
        assert_blocks_score_alone_and_as_the_oracle(model, stack, mode, runs)


@st.composite
def padded_blocks(draw):
    """A sparse model and a (scenes, candidates, N_max) `BlockFeatures` of
    coordinates inside chosen cells, each scene with its own row count N and
    unkept rows past it, plus each block's (features, kept) alone. `layout`
    gives every block the same number of occupied cells ("one"), a number of
    its own ("many"), or one kept row ("single")."""
    model, _ = draw(sparse_models())
    layout = draw(st.sampled_from(["one", "many", "single"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_scenes, n_cand = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    n_cells = model.n_bins**model.n_dims
    n_occupied = int(rng.integers(1, min(n_cells, 6) + 1))
    sizes = rng.integers(n_occupied, n_occupied + 8, size=n_scenes)
    kept = np.zeros((n_scenes, n_cand, sizes.max()), dtype=bool)
    feats, blocks = [], []
    for i, n_rows in enumerate(sizes.tolist()):
        for c in range(n_cand):
            if layout == "single":
                n_kept, k = 1, 1
            else:
                k = n_occupied if layout == "one" else int(rng.integers(1, n_occupied + 1))
                n_kept = int(rng.integers(k, n_rows + 1))
            cells = rng.choice(n_cells, size=k, replace=False)
            cells = np.concatenate([cells, rng.choice(cells, size=n_kept - k)])
            shape = (model.n_bins,) * model.n_dims
            digits = np.stack(np.unravel_index(rng.permutation(cells), shape), axis=1)
            coords = (digits + rng.uniform(0.05, 0.95, digits.shape)) / model.n_bins
            mask = np.zeros(n_rows, dtype=bool)
            mask[rng.choice(n_rows, size=n_kept, replace=False)] = True
            kept[i, c, :n_rows] = mask
            feats.append(coords)
            blocks.append((coords, mask))
    stacked = BlockFeatures(model.projection, np.concatenate(feats), kept)
    return model, stacked, blocks


class TestStackedScore:
    """The sweep scores every test scene's cases in one call, over features
    padded to the largest scene; each block must score as it does alone."""

    @settings(max_examples=150, deadline=None)
    @given(padded_blocks(), st.sampled_from(["log", "dot"]))
    def test_each_block_of_a_padded_stack_scores_as_it_does_alone(self, case, mode):
        model, stacked, blocks = case
        scores = score(model, stacked, mode)
        assert scores.shape == stacked.kept.shape[:2] + (len(model.candidate_names),)
        for row, (feats, mask) in zip(scores.reshape(len(blocks), -1), blocks):
            name, alone = classify(model, BlockFeatures(model.projection, feats, mask), mode)
            assert np.array_equal(row, alone) and row.tobytes() == alone.tobytes()
            assert name == model.candidate_names[int(np.argmax(row))]
            assert row.tobytes() == oracle_score(model, feats, mode).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(sparse_models(), st.sampled_from(["log", "dot"]), st.integers(0, 5))
    def test_a_one_block_image_classifies_as_its_padded_block(self, case, mode, pad):
        model, image = case
        name, scores = classify(model, image, mode)
        features = block_features(model.projection, image)
        n_rows = len(features.kept)
        kept = np.zeros((1, 1, n_rows + pad), dtype=bool)
        kept[0, 0, :n_rows] = features.kept
        padded = score(model, BlockFeatures(model.projection, features.feats, kept), mode)
        assert padded[0, 0].tobytes() == scores.tobytes()
        assert scores.tobytes() == oracle_score(model, features.feats, mode).tobytes()
        assert name == model.candidate_names[int(np.argmax(scores))]


class TestBlockFeatures:
    """`score` featurizes a stack with `block_features` and then bins it; a
    stack featurized ahead of time scores bit for bit as the stack itself,
    at every resolution of its projection."""

    @pytest.fixture(scope="class")
    def models(self, bundled_set, bundled_cameras):
        rng = np.random.default_rng(7)
        mask = np.ones((6, 6), dtype=bool)
        images = [
            SpectralImage(bundled_set.axis, 0.05 + rng.random((6, 6, 31)), mask)
            for _ in range(3)
        ]
        projections = {
            "rand": fit_rand(31, 3, seed=1),
            "rgb": fit_rgb(read_sensitivities(bundled_cameras[0])),
            "ill_pca": fit_ill_pca(bundled_set, 4),
        }
        return {
            kind: [build_model(images, bundled_set, proj, n_bins=b) for b in (5, 10, 20)]
            for kind, proj in projections.items()
        }

    @pytest.mark.parametrize("kind", ["rand", "rgb", "ill_pca"])
    @pytest.mark.parametrize("mode", ["log", "dot"])
    @pytest.mark.parametrize("shape", [(), (3,), (2, 4)])
    def test_features_score_as_the_stack_at_every_resolution(self, models, kind, mode, shape):
        proj = models[kind][0].projection
        stack = stack_with_black_rows(np.random.default_rng(9), shape, 40, 31)
        if not shape:
            stack = stack[stack.any(axis=1)]
        features = block_features(proj, stack)
        assert isinstance(features, BlockFeatures) and features.kept.shape == stack.shape[:-1]
        for model in models[kind]:
            assert model.projection is proj
            expected = score(model, stack, mode)
            assert score(model, features, mode).tobytes() == expected.tobytes()
            names, scores = classify(model, features, mode)
            assert scores.tobytes() == expected.tobytes()
            assert np.array_equal(names, classify(model, stack, mode)[0])

    def test_an_image_featurizes_its_valid_pixels(self, models):
        model = models["ill_pca"][1]
        rng = np.random.default_rng(3)
        pixels, mask = rng.random((5, 5, 31)), rng.random((5, 5)) > 0.3
        image = SpectralImage(SpectralAxis(400, 10, 31), pixels, mask)
        features = block_features(model.projection, image)
        assert features.kept.shape == (mask.sum(),)
        assert score(model, features).tobytes() == score(model, image).tobytes()

    def test_features_of_another_projection_rejected(self, models):
        model = models["rand"][0]
        stack = stack_with_black_rows(np.random.default_rng(4), (2,), 10, 31)
        for other in (fit_rand(31, 3, seed=2), models["ill_pca"][0].projection):
            with pytest.raises(ValueError, match="another projection"):
                score(model, block_features(other, stack))
            with pytest.raises(ValueError, match="another projection"):
                classify(model, block_features(other, stack))

    def test_an_equal_projection_read_back_is_accepted(self, models, tmp_path):
        model = models["ill_pca"][2]
        copy = projection_from_bytes(projection_to_bytes(model.projection))
        assert copy is not model.projection
        write_model(tmp_path / "m.cbcm", model)
        loaded = read_model(tmp_path / "m.cbcm").with_projection(copy)
        stack = stack_with_black_rows(np.random.default_rng(6), (3,), 12, 31)
        expected = score(model, stack).tobytes()
        assert score(model, block_features(copy, stack)).tobytes() == expected
        assert score(loaded, block_features(model.projection, stack)).tobytes() == expected

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_radiance_rejected_at_featurization(self, models, bad):
        stack = np.ones((2, 3, 31))
        stack[1, 2, 5] = bad
        with pytest.raises(ValueError, match="finite"):
            block_features(models["rand"][0].projection, stack)

    def test_a_request_is_checked_for_finite_radiance_once(self, models):
        # one check of the product's last column, an entry a pixel, none of the bands
        stack = np.ones((2, 3, 31))
        with mock.patch.object(np, "isfinite", wraps=np.isfinite) as isfinite:
            classify(models["rand"][0], stack)
        sizes = [np.size(c.args[0]) for c in isfinite.call_args_list]
        assert sizes.count(stack.size // 31) == 1 and stack.size not in sizes

    def test_shape_checks(self, models):
        proj = models["rand"][0].projection
        with pytest.raises(ValueError, match="pixels"):
            block_features(proj, np.ones(31))
        with pytest.raises(ValueError, match="pixels"):
            block_features(proj, np.ones((2, 5, 30)))


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

    @pytest.mark.parametrize("mode", ["log", "dot"])
    def test_one_bin_model_scores_every_candidate_equally(self, mode):
        # one cell holds every coordinate, so every candidate's probability
        # there is 1 and the argmax is index 0 whatever the light: the
        # setting the runners and the CLI reject before any work
        axis, candidates, images = tiny_problem()
        model = build_model(images, candidates, fit_rand(4, 2, seed=42), n_bins=1)
        stack = np.stack([relight(img, ill.spd).valid_pixels() for img in images for ill in candidates])
        names, scores = classify(model, stack, mode=mode)
        assert model.cells.tolist() == [0, cbc.SENTINEL_CELL]
        assert model.probs[:, 0].tolist() == [1, 1]
        assert (scores == scores[:, :1]).all()
        assert names.tolist() == [model.candidate_names[0]] * len(stack)

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
        with pytest.raises(ValueError, match="features must hold"):
            build_model(
                images, candidates, proj, n_bins=8,
                features=replace(feats, kept=feats.kept[:1]),
            )
        with pytest.raises(ValueError, match="another projection"):
            build_model(
                images, candidates, fit_rand(4, 3, seed=42), n_bins=8, features=feats
            )
        with pytest.raises(ValueError, match="counts must cover"):
            build_model(
                images, candidates, proj, n_bins=8,
                features=replace(feats, feats=feats.feats[1:]),
            )
        kept = feats.kept.copy()
        kept[0] = False
        with pytest.raises(ValueError, match="every candidate needs rows"):
            build_model(
                images, candidates, proj, n_bins=8,
                features=replace(feats, feats=feats.feats[feats.kept[0].sum():], kept=kept),
            )

    def test_features_of_another_projection_of_equal_dimension_rejected(self, tmp_path):
        axis, candidates, images = tiny_problem()
        proj = fit_rand(4, 2, seed=1)
        feats = training_features(images, candidates, fit_rand(4, 2, seed=2))
        with pytest.raises(ValueError, match="another projection"):
            build_model(images, candidates, proj, n_bins=8, features=feats)
        # an equal projection, as a `.proj` file read back gives, is accepted
        copy = projection_from_bytes(projection_to_bytes(proj))
        feats = training_features(images, candidates, copy)
        model = build_model(images, candidates, proj, n_bins=8, features=feats)
        direct = build_model(images, candidates, proj, n_bins=8)
        assert model.probs.tobytes() == direct.probs.tobytes()

    @pytest.mark.parametrize("smoothing", [math.nan, math.inf, 0.0, -1.0])
    def test_degenerate_smoothing_rejected(self, smoothing):
        axis, candidates, images = tiny_problem()
        proj = fit_rand(4, 2, seed=42)
        with pytest.raises(ValueError, match="smoothing"):
            build_model(images, candidates, proj, n_bins=8, smoothing=smoothing)

    def test_smoothing_that_overflows_its_cells_rejected(self, tmp_path):
        # 1e305 * 30**3 overflows, which left every probability 0: an
        # all-zero model that answers the first candidate and does not read back
        axis, candidates, images = tiny_problem()
        proj = fit_rand(4, 3, seed=42)
        with pytest.raises(ValueError, match="smoothing 1e\\+305 times 27000 cells is not finite"):
            build_model(images, candidates, proj, n_bins=30, smoothing=1e305)
        model = build_model(images, candidates, proj, n_bins=30, smoothing=1e300)
        assert (model.probs > 0).all()
        write_model(tmp_path / "m.cbcm", model)
        assert read_model(tmp_path / "m.cbcm").probs.tobytes() == model.probs.tobytes()

    def test_smoothing_that_underflows_a_base_probability_rejected(self):
        # 5e-324 / (total + 5e-324 * 900) is 0, which scored a scene with an
        # unseen cell -inf for every candidate and answered the first
        axis, candidates, images = tiny_problem()
        proj = fit_rand(4, 2, seed=42)
        with pytest.raises(ValueError, match="smoothing 5e-324 underflows 'blue'"):
            build_model(images, candidates, proj, n_bins=30, smoothing=5e-324)
        model = build_model(images, candidates, proj, n_bins=30, smoothing=1e-300)
        assert (model.probs[:, -1] > 0).all()
        rng = np.random.default_rng(7)
        held_out = SpectralImage(axis, 0.1 + 0.9 * rng.random((6, 6, 4)), np.ones((6, 6), bool))
        assert classify(model, relight(held_out, candidates[1].spd))[0] == "red"

    def test_band_count_mismatch_rejected(self):
        axis, candidates, images = tiny_problem()
        proj = fit_rand(5, 2, seed=0)
        with pytest.raises(ValueError):
            build_model(images, candidates, proj, n_bins=8)


class TestFrozenModel:
    def test_names_and_log_table_cannot_go_stale(self):
        axis, candidates, images = tiny_problem()
        model = build_model(images, candidates, fit_rand(4, 2, seed=42), n_bins=8)
        red = relight(images[0], candidates[1].spd)
        assert classify(model, red)[0] == "red"  # makes the names and log table
        with pytest.raises(AttributeError):
            model.candidate_names = tuple(reversed(model.candidate_names))
        for name in ("lo", "hi", "cells", "probs", "occupied"):
            array = getattr(model, name)
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = array[(0,) * array.ndim]
        assert classify(model, red)[0] == "red"
        # a changed model is a new one, which makes its own names and log table
        swapped = replace(model, candidate_names=("red", "blue"))
        assert classify(swapped, red)[0] == "blue"
        assert model.with_projection(model.projection).probs is model.probs

    def test_arrays_are_flagged_in_place_not_copied(self):
        proj = Projection("rand", 3, 2, basis=np.eye(2, 3))
        cells, probs = np.array([1, cbc.SENTINEL_CELL]), np.array([[0.5, 0.5]])
        occupied = np.ones((1, 1), dtype=bool)
        model = CorrelationModel(
            n_bins=2, lo=np.zeros(2), hi=np.ones(2), smoothing=0.0, candidate_names=("a",),
            cells=cells, probs=probs, occupied=occupied, projection_digest=proj.digest,
        )
        assert model.cells is cells and model.probs is probs and model.occupied is occupied
        assert not (cells.flags.writeable or probs.flags.writeable or occupied.flags.writeable)


def model_from_rows(rows, counts, lo, hi, n_bins, smoothing):
    """`build_model` from given training features, one candidate per count,
    under an identity projection, binned on the given bounds in place of
    the calibrated ones."""
    n_dims = rows.shape[1]
    axis = SpectralAxis(400, 10, n_dims + 1)
    flat_spd = Spectrum(axis, np.ones(axis.count))
    candidates = IlluminantSet(tuple(Illuminant(f"c{j}", flat_spd) for j in range(len(counts))))
    proj = Projection("rand", n_dims + 1, n_dims, basis=np.eye(n_dims, n_dims + 1))
    # candidate j keeps the first counts[j] rows of its block
    kept = np.arange(max(counts, default=0)) < np.asarray(counts)[:, None]
    features = BlockFeatures(proj, rows, kept)
    with mock.patch.object(cbc, "calibrate_bounds", return_value=(lo, hi)):
        return build_model([], candidates, proj, n_bins, smoothing=smoothing, features=features)


class TestBuildTable:
    def test_smoothing_arithmetic(self):
        # counts 2 and 1 over a 2x2 grid with smoothing 0.5:
        # denom = 3 + 0.5*4 = 5, probs (0.5, 0.3), base 0.1, total mass 1
        rows = np.array([[0.1, 0.1], [0.2, 0.4], [0.9, 0.6]])
        model = model_from_rows(rows, [3], np.zeros(2), np.ones(2), 2, 0.5)
        (grid,) = model.grids
        assert grid.cells.tolist() == [0, 3]
        np.testing.assert_allclose(
            grid.prob_at(np.array([0, 1, 2, 3])), [0.5, 0.1, 0.1, 0.3], atol=1e-15
        )
        assert grid.base_prob == pytest.approx(0.1, abs=1e-15)
        mass = grid.cell_probs.sum() + grid.base_prob * (4 - grid.cells.size)
        assert mass == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(binning_cases(), st.data())
    def test_table_is_bitwise_the_per_candidate_histograms(self, case, data):
        coords, lo, hi, n_bins = case
        n_cand = data.draw(st.integers(1, 4))
        # 1e17 swamps a count of 1, so an occupied cell can equal the base
        smoothing = data.draw(st.sampled_from([1e-9, 0.3, 2.5, 1e17]))
        cuts = data.draw(
            st.lists(st.integers(0, len(coords)), min_size=n_cand - 1, max_size=n_cand - 1)
        )
        counts = np.diff([0, *sorted(cuts), len(coords)])
        if not counts.all():
            with pytest.raises(ValueError, match="every candidate needs rows"):
                model_from_rows(coords, counts, lo, hi, n_bins, smoothing)
            return
        model = model_from_rows(coords, counts, lo, hi, n_bins, smoothing)
        starts = np.cumsum(counts) - counts
        flat = np.array(reference_cells(coords, lo, hi, n_bins), dtype=np.int64)
        union = np.unique(flat)
        assert model.cells.tobytes() == np.append(union, np.iinfo(np.int64).max).tobytes()
        for j, (start, n) in enumerate(zip(starts, counts)):
            cells, cell_counts = np.unique(flat[start : start + n], return_counts=True)
            denom = float(n) + smoothing * n_bins**lo.size
            expected = np.full(union.size + 1, smoothing / denom)
            pos = np.searchsorted(union, cells)
            expected[pos] = (cell_counts + smoothing) / denom
            assert model.probs[j].tobytes() == expected.tobytes()
            assert np.flatnonzero(model.occupied[j]).tolist() == pos.tolist()

    def test_log_table_is_made_once(self):
        model = hand_model()
        assert "log_probs" not in vars(model)
        score(model, image_from_pixels([[0.2, 1.8]]), mode="dot")
        assert "log_probs" not in vars(model)
        score(model, image_from_pixels([[0.2, 1.8]]), mode="log")
        table = model.log_probs
        score(model, image_from_pixels([[1.2, 0.8]]), mode="log")
        assert model.log_probs is table

    def test_table_shapes_are_checked(self):
        model = hand_model()
        with pytest.raises(ValueError, match="one table row per candidate"):
            replace(model, probs=model.probs[:1])
        with pytest.raises(ValueError, match="one table row per candidate"):
            replace(model, occupied=model.occupied[:, :-1])
        with pytest.raises(ValueError, match="one table row per candidate"):
            replace(model, cells=model.cells[1:])


def identity_setup(n_dims, counts):
    """The identity projection, flat candidates and kept mask `model_from_rows` uses."""
    axis = SpectralAxis(400, 10, n_dims + 1)
    flat_spd = Spectrum(axis, np.ones(axis.count))
    candidates = IlluminantSet(tuple(Illuminant(f"c{j}", flat_spd) for j in range(len(counts))))
    proj = Projection("rand", n_dims + 1, n_dims, basis=np.eye(n_dims, n_dims + 1))
    kept = np.arange(max(counts, default=0)) < np.asarray(counts)[:, None]
    return proj, candidates, kept


@st.composite
def edge_cases(draw):
    """Coordinates exactly on bin edges, inside and outside dyadic bounds, so
    that (x - lo) / (hi - lo) * B is an exact integer: (coords, lo, hi, B)."""
    n_dims = draw(st.integers(1, 4))
    n_bins = 2 ** draw(st.integers(0, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo = rng.integers(-8, 8, n_dims).astype(np.float64)
    hi = lo + 2.0 ** rng.integers(-3, 4, n_dims)
    steps = rng.integers(-n_bins, 2 * n_bins + 1, (draw(st.integers(1, 20)), n_dims))
    return lo + steps * (hi - lo) / n_bins, lo, hi, n_bins


class TestUnitCoordinates:
    """Unit coordinates on a projection's bounds fold at every B to the cells
    the raw coordinates bin to through `bin_indices`; the occupancy union is
    np.unique's; and a model built or scored from the cells they carry is the
    raw one's."""

    @staticmethod
    def units(coords, lo, hi):
        """A converted copy of `coords`, the raw rows left as they are."""
        units = coords.copy()
        cbc.unit_coordinates(units, lo, hi)
        return units

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(binning_cases(), edge_cases()), st.integers(1, 40))
    def test_unit_binning_is_bin_indices(self, case, other_bins):
        coords, lo, hi, n_bins = case
        proj, _, kept = identity_setup(lo.size, [len(coords)])
        units = self.units(coords, lo, hi)
        assert units.tobytes() == ((coords - lo) / (hi - lo)).tobytes()
        for b in (n_bins, other_bins):
            want = bin_indices(coords, lo, hi, b)
            (flat,) = cbc.prefix_cells(units, b, (lo.size,))
            assert flat.dtype == want.dtype and flat.tobytes() == want.tobytes()
            assert want.tolist() == reference_cells(coords, lo, hi, b)
            carried = BlockFeatures(proj, units, kept, (lo, hi, b, flat))
            assert cbc.feature_cells(carried, lo, hi, b) is flat

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(binning_cases(), edge_cases()), st.integers(1, 40), st.data())
    def test_prefix_k_of_the_fold_is_bin_indices_of_the_leading_k(self, case, other_bins, data):
        # the sweep serves d' = k from prefix k of one fold of the unit
        # coordinates: the leading k raw columns binned on the leading k bounds
        coords, lo, hi, n_bins = case
        units = self.units(coords, lo, hi)
        every = range(1, lo.size + 1)
        for b in (n_bins, other_bins):
            prefixes = [flat.copy() for flat in cbc.prefix_cells(units, b, every)]  # one array
            assert len(prefixes) == lo.size
            for k, got in enumerate(prefixes, 1):
                want = bin_indices(coords[:, :k], lo[:k], hi[:k], b)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), k
            ks = sorted(data.draw(st.sets(st.integers(1, lo.size), min_size=1)))
            served = [flat.copy() for flat in cbc.prefix_cells(units, b, ks)]
            assert [c.tobytes() for c in served] == [prefixes[k - 1].tobytes() for k in ks]

    @settings(max_examples=300, deadline=None)
    @given(
        # spaces on both sides of three cells per row, and near 2**62
        st.one_of(st.integers(1, 400), st.integers(2**62 - 4, 2**62 + 4)),
        st.lists(st.lists(st.one_of(st.none(), st.integers(0, 2**63 - 1)), max_size=40),
                 min_size=1, max_size=4),
        st.booleans(),
        st.data(),
    )
    @example(n_cells=3, rows=[[2]], last=False, data=None)  # one run, the space's last cell
    @example(n_cells=300, rows=[[5, None, 5], [None, 7, 7, 7]], last=True, data=None)
    @example(n_cells=2**62, rows=[[None, 9, 1]], last=True, data=None)
    def test_cell_table_is_np_unique_per_candidate(self, n_cells, rows, last, data):
        # each candidate's row of kept cells (None: unkept), counted by
        # np.unique(return_counts=True) into a dense {cell: count} dict
        rows = [[None if c is None else c % n_cells for c in r] + [n_cells - 1] * last
                for r in rows]
        rows = [r if any(c is not None for c in r) else r + [0] for r in rows]
        width = max(map(len, rows))
        kept = np.array([[c is not None for c in r] + [False] * (width - len(r)) for r in rows])
        flat = np.array([c for r in rows for c in r if c is not None], dtype=np.int64)
        dense = [
            dict(zip(*(a.tolist() for a in np.unique(np.array(
                [c for c in r if c is not None], dtype=np.int64), return_counts=True))))
            for r in rows
        ]
        union = sorted(set().union(*dense)) + [cbc.SENTINEL_CELL]
        bases = [0.0] * len(rows) if data is None else data.draw(
            st.lists(st.floats(0, 1), min_size=len(rows), max_size=len(rows)))
        runs = cbc._cell_runs(kept, flat)
        for base in (0.0, bases):
            got = cbc._cell_table(*runs, len(rows), base)
            want = (
                np.array(union, dtype=np.int64),
                np.array([[float(d.get(c, b)) for c in union[:-1]] + [float(b)]
                          for d, b in zip(dense, np.broadcast_to(base, len(rows)))]),
                np.array([[c in d for c in union[:-1]] for d in dense]).reshape(len(rows), -1),
            )
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(binning_cases(), edge_cases()), st.data())
    def test_model_from_unit_features_is_the_raw_model(self, case, data):
        # a model built from the cells the unit coordinates fold to, carried
        # with their bounds, neither calibrates nor differs by a bit
        coords, _, _, n_bins = case
        n_cand = data.draw(st.integers(1, 3))
        counts = [len(coords) // n_cand] * (n_cand - 1)
        counts.append(len(coords) - sum(counts))
        if not all(counts):
            return
        proj, candidates, kept = identity_setup(coords.shape[1], counts)
        lo, hi = calibrate_bounds(coords, coords.shape[1])
        try:
            raw = build_model([], candidates, proj, n_bins, features=BlockFeatures(proj, coords, kept))
        except ValueError as exc:  # bounds of far coordinates can span past the float range
            with pytest.raises(ValueError, match=str(exc)):
                self.units(coords, lo, hi)
            return
        units = self.units(coords, lo, hi)
        (flat,) = cbc.prefix_cells(units, n_bins, (lo.size,))
        carried = BlockFeatures(proj, units, kept, (lo, hi, n_bins, flat))
        with mock.patch.object(cbc, "calibrate_bounds", side_effect=AssertionError):
            model = build_model([], candidates, proj, n_bins, features=carried)
        for name in ("lo", "hi", "cells", "probs", "occupied"):
            a, b = getattr(model, name), getattr(raw, name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name

    def test_score_takes_unit_coordinates_on_the_model_bounds_only(self):
        axis, candidates, images = tiny_problem()
        proj = fit_rand(4, 2, seed=42)
        model = build_model(images, candidates, proj, n_bins=8)
        stack = np.stack([relight(img, ill.spd).valid_pixels() for img in images for ill in candidates])
        want = score(model, stack)

        def carried(lo, hi, n_bins=8):
            features = block_features(proj, stack)
            cbc.unit_coordinates(features.feats, lo, hi)
            (flat,) = cbc.prefix_cells(features.feats, n_bins, (2,))
            return replace(features, cells=(lo, hi, n_bins, flat))

        assert score(model, carried(model.lo, model.hi)).tobytes() == want.tobytes()
        copies = (model.lo.copy(), model.hi.copy())  # equal bounds, other arrays
        assert score(model, carried(*copies)).tobytes() == want.tobytes()
        for lo, hi in ((model.lo - 0.5, model.hi), (model.lo, np.nextafter(model.hi, np.inf))):
            with pytest.raises(ValueError, match="other bounds"):
                score(model, carried(lo, hi))
        with pytest.raises(ValueError, match="cells at B = 9, not 8"):
            score(model, carried(model.lo, model.hi, 9))

    def test_carried_cells_are_taken_at_their_bounds_and_b_only(self):
        axis, candidates, images = tiny_problem()
        proj = fit_rand(4, 2, seed=42)
        features = training_features(images, candidates, proj)
        lo, hi = calibrate_bounds(features.feats, 2)
        want = build_model(images, candidates, proj, 8, features=features)
        cbc.unit_coordinates(features.feats, lo, hi)
        (cells,) = cbc.prefix_cells(features.feats, 8, (2,))
        carried = replace(features, cells=(lo, hi, 8, cells.copy()))
        with mock.patch.object(cbc, "_bin_digits", side_effect=AssertionError):
            model = build_model(images, candidates, proj, 8, features=carried)
        for name in ("lo", "hi", "cells", "probs", "occupied"):
            assert getattr(model, name).tobytes() == getattr(want, name).tobytes(), name
        stack = np.stack([relight(img, ill.spd).valid_pixels() for img in images for ill in candidates])
        tests = block_features(proj, stack)
        cbc.unit_coordinates(tests.feats, lo, hi)
        (test_cells,) = cbc.prefix_cells(tests.feats, 8, (2,))
        scored = score(model, replace(tests, cells=(lo, hi, 8, test_cells.copy())))
        assert scored.tobytes() == score(want, stack).tobytes()
        with pytest.raises(ValueError, match="cells at B = 8, not 9"):
            build_model(images, candidates, proj, 9, features=carried)
        with pytest.raises(ValueError, match="other bounds"):
            cbc.feature_cells(carried, lo, np.nextafter(hi, np.inf), 8)

    def test_unit_features_reject_non_finite_coordinates(self):
        feats = np.array([[0.5, np.nan], [0.1, 0.2]])
        with pytest.raises(ValueError, match="finite"):
            cbc.unit_coordinates(feats, np.zeros(2), np.ones(2))


def training_scenes(axis, seed):
    """Masked scenes with black pixels and pixels that reflect only the first
    ten bands, plus one scene that is black under every candidate, so some
    (candidate, image) blocks are empty."""
    rng = np.random.default_rng(seed)
    images = []
    for h, w in ((5, 4), (3, 6), (4, 4)):
        data = (0.05 + rng.random((h, w, axis.count))) * rng.integers(0, 2, (h, w, 1))
        data[rng.random((h, w)) < 0.3, 10:] = 0.0
        images.append(SpectralImage(axis, data, rng.random((h, w)) > 0.2))
    images.insert(1, SpectralImage(axis, np.zeros((2, 3, axis.count)), np.ones((2, 3), bool)))
    return images


def reference_features(proj, rows):
    """The relit reference for `pixel_features` of radiance rows, as
    (features, kept): each non-black row L1-normalized by its own sum and
    then projected by `Projection.apply_rows`; rgb normalizes the row's
    camera response instead."""
    if proj.kind == "rgb":
        return chromaticity_rows(rows @ proj.basis.T)
    chroma, kept = chromaticity_rows(rows)
    return proj.apply_rows(chroma), kept


def reference_training_blocks(images, candidates, featurize):
    """Per candidate, `featurize` of each image relit alone, concatenated."""
    return [
        np.concatenate(
            [featurize(img.valid_pixels() * ill.spd.values)[0] for img in images]
        )
        for ill in candidates
    ]


#: Folded and relit features of a linear kind each round within 2 (bands + 2)
#: ulps of their column's scale (dot-product error bounds over the bands).
FOLD_ULPS = 4


def fold_bound(proj):
    """Largest folded-versus-relit difference per feature column: FOLD_ULPS
    (bands + 2) ulps of the column's scale, max |B| plus sum |mean * B| for a
    centered kind; rgb's chromaticities lie in [0, 1], so their scale is 1."""
    bands = proj.input_dim
    if proj.kind == "rgb":
        scale = np.ones(3)
    else:
        columns = proj.basis if proj.mean is not None else proj.basis.T
        scale = np.abs(columns).max(axis=0)
        if proj.mean is not None:
            scale += np.abs(proj.mean[:, None] * columns).sum(axis=0)
    return FOLD_ULPS * (bands + 2) * np.finfo(float).eps * scale


def nnmf_fold_bound(proj, z_norm):
    """Largest folded-versus-relit difference of nnmf features of norm
    `z_norm` (2-norm, per row). Their right-hand sides V . c differ by at most
    fold_bound(proj) a coordinate, as a linear kind's features do; NNLS moves
    its solution by at most the right-hand side's change over the Gram's least
    eigenvalue, and each solve adds a backward error of FOLD_ULPS k ulps of
    the Gram, amplified the same way."""
    lam = np.linalg.eigvalsh(proj.basis @ proj.basis.T)
    eps = np.finfo(float).eps
    shift = np.linalg.norm(fold_bound(proj)) + FOLD_ULPS * len(lam) * eps * lam[-1] * z_norm
    return shift / lam[0] if lam[0] > 0 else np.full_like(shift, np.inf)  # singular: no bound


#: Caps on `linalg.nnls_rows` blocks under test, the one row cap left: the
#: default; one row a block; blocks of three candidates' rows, which split
#: the 28 bundled candidates unevenly (9 x 3 + 1); and blocks that split each
#: candidate's rows unevenly in three. Only nnmf's features solve in such
#: blocks; no featurization is cut by it.
CAPS = ("default", "one", "uneven", "pixel_runs")


def set_cap(monkeypatch, cap, n_pixels):
    rows = {"one": 1, "uneven": 3 * n_pixels + 2, "pixel_runs": n_pixels // 3 + 1}
    if cap in rows:
        monkeypatch.setattr(linalg, "BATCH_ROWS", rows[cap])


class TestRelitTrainingStacks:
    """Training features and chromaticities pinned to a per-(candidate,
    image) relit reference at several NNLS block caps: every kind's features
    come from one folded product, the chromaticities from one relit
    candidate at a time."""

    @pytest.fixture(scope="class")
    def scenes(self, bundled_set):
        return training_scenes(bundled_set.axis, seed=7)

    @pytest.fixture(scope="class")
    def candidates(self, bundled_set):
        """The bundled candidates with every third one dark in the first ten
        bands, so candidates keep different numbers of pixels."""
        members = []
        for j, ill in enumerate(bundled_set):
            spd = ill.spd.values.copy()
            if j % 3 == 1:
                spd[:10] = 0.0
            members.append(Illuminant(ill.name, Spectrum(ill.spd.axis, spd)))
        return IlluminantSet(tuple(members))

    @pytest.fixture(scope="class")
    def projections(self, candidates, bundled_cameras, scenes):
        n = candidates.axis.count
        return {
            "identity": Projection("rand", n, 3, basis=np.eye(3, n)),
            "nnmf": fit_nnmf(training_chromaticities(scenes, candidates), 3, max_iter=30),
            "rand": fit_rand(n, 3, seed=2),
            "rgb": fit_rgb(read_sensitivities(bundled_cameras[0])),
            "ill_pca": fit_ill_pca(candidates, 4),
        }

    @pytest.mark.parametrize("cap", CAPS)
    @pytest.mark.parametrize("kind", ["identity", "nnmf", "rand", "rgb", "ill_pca"])
    def test_feature_blocks_match_per_image_features(
        self, candidates, scenes, projections, kind, cap, monkeypatch
    ):
        proj = projections[kind]
        n_pixels = sum(len(img.valid_pixels()) for img in scenes)
        set_cap(monkeypatch, cap, n_pixels)
        calls = []
        original = cbc.pixel_features
        monkeypatch.setattr(
            cbc, "pixel_features", lambda *a: calls.append((len(a[1]), len(a))) or original(*a)
        )
        feats = training_features(scenes, candidates, proj)
        monkeypatch.setattr(cbc, "pixel_features", original)
        # one folded call on all training pixels, whatever the cap, and no relit call
        assert calls == [(n_pixels, 3)]
        expected = reference_training_blocks(
            scenes, candidates, lambda rows: reference_features(proj, rows)
        )
        assert len({len(b) for b in expected}) > 1
        assert feats.projection is proj and feats.kept.shape == (28, n_pixels)
        kept = reference_training_blocks(
            scenes, candidates, lambda rows: (reference_features(proj, rows)[1], None)
        )
        assert feats.kept.tobytes() == np.stack(kept).tobytes()
        counts = feats.kept.sum(axis=1)
        assert counts.tolist() == [len(b) for b in expected]
        assert len(feats.feats) == counts.sum()
        blocks = np.split(feats.feats, np.cumsum(counts)[:-1])
        assert len(blocks) == len(expected) == 28
        # Folding reassociates each feature's sums: within FOLD_ULPS of its
        # column's scale. nnmf solves its NNLS on such folded right-hand
        # sides, and here agrees to 1e-12.
        bound = 1e-12 if kind == "nnmf" else fold_bound(proj)
        for got, want in zip(blocks, expected):
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= bound)
        # a model calibrates its bounds over all candidates' rows
        model = build_model(scenes, candidates, proj, n_bins=5, features=feats)
        lo, hi = calibrate_bounds(np.concatenate(expected), proj.output_dim)
        np.testing.assert_allclose(np.r_[model.lo, model.hi], np.r_[lo, hi], atol=1e-12)

    @pytest.mark.parametrize("cap", CAPS)
    @pytest.mark.parametrize("labelled", [False, True])
    def test_chromaticities_match_per_image_rows(
        self, candidates, scenes, cap, labelled, monkeypatch
    ):
        set_cap(monkeypatch, cap, sum(len(img.valid_pixels()) for img in scenes))
        blocks = reference_training_blocks(scenes, candidates, chromaticity_rows)
        rows = np.concatenate(blocks)
        rows = rows / rows.sum(axis=1, keepdims=True)
        got = training_chromaticities(scenes, candidates, labelled=labelled)
        assert got.rows.tobytes() == rows.tobytes()
        if labelled:
            labels = np.concatenate([np.full(len(b), j) for j, b in enumerate(blocks)])
            np.testing.assert_array_equal(got.labels, labels)
        else:
            assert got.labels is None

    def dark_problem(self):
        """Scenes that reflect only the first band, and candidates of which
        two emit nothing there."""
        axis = SpectralAxis(400, 10, 4)
        data = np.zeros((3, 3, 4))
        data[..., 0] = np.random.default_rng(0).random((3, 3)) + 0.1
        images = [SpectralImage(axis, data, np.ones((3, 3), bool))] * 2
        candidates = IlluminantSet(
            tuple(
                Illuminant(name, Spectrum(axis, spd))
                for name, spd in (
                    ("lit", [1.0, 1.0, 1.0, 1.0]),
                    ("dark", [0.0, 1.0, 1.0, 1.0]),
                    ("also_dark", [0.0, 2.0, 1.0, 1.0]),
                )
            )
        )
        return axis, images, candidates

    @pytest.mark.parametrize("cap", CAPS)
    def test_candidate_without_usable_pixels_is_named(self, cap, monkeypatch):
        axis, images, candidates = self.dark_problem()
        set_cap(monkeypatch, cap, 18)
        with pytest.raises(ValueError, match="under candidate 'dark'"):
            training_features(images, candidates, fit_rand(4, 2, seed=0))
        with pytest.raises(ValueError, match="every candidate needs"):
            training_chromaticities(images, candidates, labelled=True)
        assert training_chromaticities(images, candidates).n_rows == 18

    def test_scenes_without_usable_pixels_rejected(self):
        axis, _, candidates = self.dark_problem()
        black = SpectralImage(axis, np.zeros((2, 2, 4)), np.ones((2, 2), bool))
        masked = SpectralImage(axis, np.ones((2, 2, 4)), np.zeros((2, 2), bool))
        for images in ([black], [black, masked], []):
            with pytest.raises(ValueError, match="no usable pixels"):
                training_chromaticities(images, candidates)
        for images in ([black, masked], [masked]):
            with pytest.raises(ValueError, match="no usable training pixels under candidate 'lit'"):
                training_features(images, candidates, fit_rand(4, 2, seed=0))


@st.composite
def folding_cases(draw, kinds=("rand", "lda", "pca", "ill_pca", "rgb")):
    """A projection of one of `kinds`, reflectance rows and an SPD table:
    (projection, rows, spds). Entries are 0 or at least 1e-3, so every L1
    sum the black test reads is exactly 0 or above 1e-9, far from
    ZERO_NORM_EPS; an nnmf basis is non-negative the same way."""
    kind = draw(st.sampled_from(kinds))
    bands = draw(st.integers(2, 31))
    d_prime = 3 if kind == "rgb" else draw(st.integers(1, min(5, bands)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def sparse(shape, zeros):
        return rng.uniform(1e-3, 1.0, shape) * (rng.random(shape) >= zeros)

    rows = sparse((draw(st.integers(0, 40)), bands), draw(st.sampled_from([0.0, 0.3, 0.9])))
    rows[rng.random(len(rows)) < 0.2] = 0.0
    spds = sparse((draw(st.integers(1, 6)), bands), draw(st.sampled_from([0.0, 0.5])))
    if kind in ("rgb", "nnmf"):
        proj = Projection(kind, bands, d_prime, basis=sparse((d_prime, bands), 0.3))
    elif kind in ("pca", "ill_pca"):
        basis = np.linalg.qr(rng.standard_normal((bands, d_prime)))[0]
        mean = rng.uniform(-1.0, 1.0, bands) * draw(st.sampled_from([0.0, 1.0 / bands, 1.0]))
        proj = Projection(kind, bands, d_prime, basis=basis, mean=mean)
    else:
        proj = Projection(kind, bands, d_prime, basis=rng.uniform(-1.0, 1.0, (d_prime, bands)))
    return proj, rows, spds


class TestFoldedFeatures:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=200, deadline=None)
    @given(folding_cases())
    def test_folded_features_match_the_relit_stack(self, case):
        proj, rows, spds = case
        feats, kept = pixel_features(proj, rows, spds)
        per_candidate = [reference_features(proj, rows * s) for s in spds]
        want = np.concatenate([f for f, _ in per_candidate])
        want_kept = np.stack([m for _, m in per_candidate])
        assert kept.shape == (len(spds), len(rows))
        assert kept.tobytes() == want_kept.tobytes()
        assert feats.shape == want.shape == (kept.sum(), proj.output_dim)
        assert np.all(np.abs(feats - want) <= fold_bound(proj))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=200, deadline=None)
    @given(folding_cases(kinds=("nnmf",)))
    def test_folded_nnmf_features_match_per_candidate_features(self, case):
        proj, rows, spds = case
        feats, kept = pixel_features(proj, rows, spds)
        per_candidate = [reference_features(proj, rows * s) for s in spds]
        assert kept.tobytes() == np.stack([m for _, m in per_candidate]).tobytes()
        want = np.concatenate([f for f, _ in per_candidate])
        assert feats.shape == want.shape == (kept.sum(), proj.output_dim)
        z_norm = np.maximum(np.linalg.norm(feats, axis=1), np.linalg.norm(want, axis=1))
        bound = nnmf_fold_bound(proj, z_norm)
        assert np.all(np.abs(feats - want) <= bound[:, None])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=200, deadline=None)
    @given(folding_cases(kinds=("rand", "lda", "pca", "ill_pca", "rgb", "nnmf")))
    def test_radiance_features_match_the_reference(self, case):
        # radiance rows take the fold as its one unit SPD, and round within
        # the fold's bounds of the relit reference
        proj, rows, _ = case
        feats, kept = pixel_features(proj, rows)
        want, want_kept = reference_features(proj, rows)
        assert kept.shape == (len(rows),)
        assert kept.tobytes() == want_kept.tobytes()
        assert feats.shape == want.shape == (kept.sum(), proj.output_dim)
        if proj.kind == "nnmf":
            z_norm = np.maximum(np.linalg.norm(feats, axis=1), np.linalg.norm(want, axis=1))
            bound = nnmf_fold_bound(proj, z_norm)[:, None]
        else:
            bound = fold_bound(proj)
        assert np.all(np.abs(feats - want) <= bound)

    def test_spd_table_shape_checked(self):
        proj = fit_rand(4, 2, seed=0)
        for spds in (np.ones(4), np.ones((2, 3))):
            with pytest.raises(ValueError, match="SPDs"):
                pixel_features(proj, np.ones((5, 4)), spds)


@st.composite
def masked_images(draw):
    """A projection of any kind (`folding_cases`) and an image on its bands:
    a C-order or band-major cube with black pixels, every pixel kept, a
    random part masked, or its edge rows and columns masked, and at least
    one valid pixel: (projection, image)."""
    kinds = ("rand", "lda", "pca", "ill_pca", "rgb", "nnmf")
    proj, _, _ = draw(folding_cases(kinds=kinds))
    bands, (h, w) = proj.input_dim, draw(st.tuples(st.integers(1, 12), st.integers(1, 12)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cube = rng.uniform(1e-3, 1.0, (bands, h, w)) * (rng.random((bands, h, w)) >= 0.3)
    cube[:, rng.random((h, w)) < 0.2] = 0.0
    cube = cube.transpose(1, 2, 0)  # band-major, as `read_scube` returns a cube
    if draw(st.booleans()):
        cube = np.ascontiguousarray(cube)
    mask = np.ones((h, w), dtype=bool)
    how = draw(st.sampled_from(["all", "part", "edges"]))
    if how == "part":
        mask = rng.random((h, w)) >= draw(st.sampled_from([0.1, 0.5, 0.9]))
    elif how == "edges":
        top, bottom, left, right = (draw(st.integers(0, 2)) for _ in range(4))
        mask[:top], mask[h - bottom:], mask[:, :left], mask[:, w - right:] = False, False, False, False
    mask.flat[draw(st.integers(0, h * w - 1))] = True
    return proj, SpectralImage(SpectralAxis(400, 10, bands), cube, mask)


class TestImageFeatures:
    """An image is featurized from one product over its whole cube, whose
    rows its mask then keeps: as its gathered valid pixels are, bit for bit
    wherever BLAS rounds the cube's rows as it rounds the gathered ones, and
    within twice the fold's bounds where it does not (narrow products,
    width <= 4, can round by their row count and layout)."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @given(masked_images())
    def test_an_image_featurizes_as_its_gathered_pixels(self, case):
        proj, image = case
        got, want = block_features(proj, image), block_features(proj, image.valid_pixels())
        assert got.kept.tobytes() == want.kept.tobytes()
        assert got.feats.shape == want.feats.shape == (want.kept.sum(), proj.output_dim)
        cube_rows = image.data.reshape(-1, image.n_bands) @ proj.columns
        gathered = image.valid_pixels() @ proj.columns
        if cube_rows[image.mask.reshape(-1)].tobytes() == gathered.tobytes():
            assert got.feats.tobytes() == want.feats.tobytes()
            return
        if proj.kind == "nnmf":
            z_norm = np.maximum(*(np.linalg.norm(f, axis=1) for f in (got.feats, want.feats)))
            bound = 2 * nnmf_fold_bound(proj, z_norm)[:, None]
        else:
            bound = 2 * fold_bound(proj)
        assert np.all(np.abs(got.feats - want.feats) <= bound)

    def test_bench_sized_requests_featurize_as_their_gathered_pixels(self, bundled_set):
        # a 32 x 32 cube relit from band-major reflectance, as the classify
        # requests are, under a d' = 5 projection: its six-column product
        # rounds each row alone on numpy's scipy-openblas build
        proj = fit_ill_pca(bundled_set, 5)
        for seed in range(3):
            scene = generate_scene(SceneRecipe(32, 32, seed=seed), bundled_set.axis)
            band_major = np.ascontiguousarray(scene.data.transpose(2, 0, 1)).transpose(1, 2, 0)
            cube = SpectralImage(scene.axis, band_major, scene.mask)
            for ill in bundled_set:
                image = relight(cube, ill.normalized_spd())
                got = block_features(proj, image)
                want = block_features(proj, image.valid_pixels())
                assert got.kept.tobytes() == want.kept.tobytes()
                assert got.feats.tobytes() == want.feats.tobytes()

    @staticmethod
    def dark_band_camera(bands):
        """An rgb projection whose three channels all weight band 0 at 0."""
        rows = np.random.default_rng(5).uniform(0.1, 1.0, (3, bands))
        rows[:, 0] = 0.0
        return fit_rgb(SensitivityFunctions(SpectralAxis(400, 10, bands), rows, "dark"))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("band", [0, 3])
    @pytest.mark.parametrize("kind", ["rgb", "rand"])
    def test_a_non_finite_valid_pixel_raises(self, bad, band, kind):
        # band 0 is weighted 0 by every rgb column: 0 * nan and 0 * inf are nan
        proj = self.dark_band_camera(6) if kind == "rgb" else fit_rand(6, 2, seed=1)
        mask = np.ones((3, 4), dtype=bool)
        mask[0, 0] = False
        image = SpectralImage(SpectralAxis(400, 10, 6), np.full((3, 4, 6), 0.5), mask)
        stack = np.full((2, 5, 6), 0.5)
        stack[1, 2, band] = bad
        image.data[2, 1, band] = bad  # changed after the image was built
        for pixels in (image, stack, stack[1]):
            with pytest.raises(ValueError, match="radiance must be finite"):
                block_features(proj, pixels)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_masked_out_pixel_is_never_read(self, bad):
        proj = self.dark_band_camera(6)
        rng = np.random.default_rng(2)
        mask = rng.random((4, 4)) > 0.3
        mask[0, 0] = False
        image = SpectralImage(SpectralAxis(400, 10, 6), rng.random((4, 4, 6)), mask)
        want = block_features(proj, image)
        image.data[0, 0] = bad
        got = block_features(proj, image)
        assert got.feats.tobytes() == want.feats.tobytes()
        assert got.kept.tobytes() == want.kept.tobytes()


class TestScoreBytes:
    """Request scores pinned: every kind's model scores relit and noisy test
    images to the bytes below, so a change to how a request is featurized
    shows here unless no coordinate crosses a bin edge."""

    @pytest.fixture(scope="class")
    def problem(self, bundled_set, bundled_cameras):
        axis = bundled_set.axis
        scenes = [generate_scene(SceneRecipe(8, 8, seed=seed), axis) for seed in range(6)]
        train, test = scenes[:4], scenes[4:]
        rows = training_chromaticities(train, bundled_set, labelled=True)
        unlabelled = replace(rows, labels=None)
        projections = {
            "rgb": fit_rgb(read_sensitivities(bundled_cameras[0])),
            "rand": fit_rand(axis.count, 3, seed=3),
            "pca": fit_pca(unlabelled, 3),
            "ill_pca": fit_ill_pca(bundled_set, 3),
            "nnmf": fit_nnmf(unlabelled, 3, max_iter=30),
            "lda": fit_lda(rows, 3),
        }
        images = [relight(img, ill.spd) for img in test for ill in bundled_set]
        images += [add_noise(img, 20.0, seed) for seed, img in enumerate(images[::5])]
        return train, projections, images

    @pytest.mark.parametrize(
        "kind, mode, sha256",
        [
            ("rgb", "log", "e21e980dd5afbf98d958926ec7e7feb64058e0fe8402b11908dff0a96b78e5b5"),
            ("rgb", "dot", "0ef9cd9dd97a8dde76929107917657fc7d0763b33dca9a5b7102c2d9cdc8f1f9"),
            ("rand", "log", "8670f087602bac6c4f3fed9be283d9512b3d47c092d2c108d3d8150da11108e2"),
            ("rand", "dot", "2579d921060be6c854caad541d64a0aa47c783553f86387d7a6b031f702a1cb4"),
            ("pca", "log", "6cef2bd65a72678bbc63e571468ba19e06367349a536cb3ff77d25a6acb807a4"),
            ("pca", "dot", "99803a5c2b52924ddfec5b0a62943e8fe749f8b48701b9fef80d2e00edc3d650"),
            ("ill_pca", "log", "eb52e4233d88bcd379de3b55d91c579e6f23d5d5ba32cb841f594fa851099902"),
            ("ill_pca", "dot", "26d12b855916934c6d6898b15e810de1caa2bd977ff72ccaa6b5e49140cf5c72"),
            ("nnmf", "log", "9600382afff1c7df3f5899eed0ea358c7d67b60bf6f9f426d1c4fe754aee8b50"),
            ("nnmf", "dot", "964228161d5cf7df1f7524aa01162fa97f99af2cf461a693f03815094a3fd4af"),
            ("lda", "log", "c528cb163e8e2834776b7bda8f25ca59878953e6e373b004ea150267d637b2ba"),
            ("lda", "dot", "27ce3652284a481ee7e7602f84bd5d2b3cad234a0ec988e3c6e2906cf9a4b5d1"),
        ],
    )
    def test_request_scores_pinned(self, problem, bundled_set, kind, mode, sha256):
        # sha256 of each image's `score` in turn, on numpy's scipy-openblas
        # build; another BLAS may round the fits apart
        train, projections, images = problem
        model = build_model(train, bundled_set, projections[kind], n_bins=16)
        blob = b"".join(score(model, img, mode=mode).tobytes() for img in images)
        assert hashlib.sha256(blob).hexdigest() == sha256

    def test_no_kind_features_by_apply_rows(self, problem, bundled_set, monkeypatch):
        # training pixels and requests take one featurization path, the fold
        train, projections, images = problem
        monkeypatch.setattr(Projection, "apply_rows", mock.Mock(side_effect=AssertionError))
        for proj in projections.values():
            score(build_model(train, bundled_set, proj, n_bins=16), images[0])


def cbcm_bytes(n_dims, n_bins, records, lo=None, hi=None, smoothing=0.5, digest=bytes(32)):
    """`.cbcm` bytes written one candidate record at a time: `records` holds
    each candidate's (name, base probability, stored cells, their
    probabilities); the bounds default to [0, 1] in each dimension."""
    lo = np.zeros(n_dims) if lo is None else lo
    hi = np.ones(n_dims) if hi is None else hi
    parts = [cbc.CBCM_MAGIC, struct.pack("<III", n_dims, n_bins, len(records))]
    parts += [struct.pack("<dd", l, h) for l, h in zip(lo, hi)]
    parts += [struct.pack("<d", smoothing), digest]
    for name, base, cells, probs in records:
        raw = name.encode("utf-8")
        parts += [struct.pack("<I", len(raw)), raw, struct.pack("<dQ", base, len(cells))]
        parts += [np.asarray(cells, "<u8").tobytes(), np.asarray(probs, "<f8").tobytes()]
    return b"".join(parts)


@st.composite
def stored_tables(draw):
    """(n_dims, n_bins, candidates) for `table_from_counts`: 1-4 candidates,
    each a (name, pseudo-count, {stored cell: count}) over cell spaces up to
    2**62. A candidate may store no cell, and a stored count of 0 stores the
    cell at the base probability."""
    n_dims, n_bins = draw(st.sampled_from([(1, 2), (1, 6), (2, 5), (3, 4), (2, 2**31)]))
    n_cells = n_bins**n_dims
    pool = draw(
        st.lists(st.integers(0, n_cells - 1) | st.just(n_cells - 1), min_size=1, max_size=6)
    )
    names = draw(st.lists(st.text(min_size=1, max_size=3), min_size=1, max_size=4, unique=True))
    candidates = []
    for name in names:
        pseudo = draw(st.sampled_from([0.0, 0.5, 2.0]))
        count = st.sampled_from([0.0, 1.0, 3.0] if pseudo else [1.0, 3.0])
        stored = draw(st.dictionaries(st.sampled_from(pool), count, min_size=0 if pseudo else 1))
        candidates.append((name, pseudo, stored))
    return n_dims, n_bins, tuple(candidates)


def table_from_counts(n_dims, n_bins, candidates):
    """The model whose candidates hold these counts plus their pseudo-count in
    every cell of the grid, normalized; bounds, smoothing and digest are
    arbitrary."""
    n_cells = n_bins**n_dims
    union = sorted({cell for _, _, stored in candidates for cell in stored})
    probs = np.empty((len(candidates), len(union) + 1))
    occupied = np.zeros((len(candidates), len(union)), dtype=bool)
    for j, (_, pseudo, stored) in enumerate(candidates):
        total = sum(stored.values()) + pseudo * n_cells
        probs[j] = pseudo / total
        for cell, count in stored.items():
            k = union.index(cell)
            probs[j, k], occupied[j, k] = (count + pseudo) / total, True
    return CorrelationModel(
        n_bins=n_bins, lo=np.linspace(-1.0, 0.0, n_dims),
        hi=np.linspace(0.5, 2.0, n_dims), smoothing=0.25,
        candidate_names=tuple(name for name, _, _ in candidates),
        cells=np.append(np.array(union, dtype=np.int64), cbc.SENTINEL_CELL),
        probs=probs, occupied=occupied, projection_digest=hashlib.sha256(b"p").digest(),
    )


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

    @pytest.mark.parametrize(
        "n_dims, n_bins, sha256",
        [
            (2, 8, "f3d39d4bc5a39b83c101d0c854921af895b27f25a4eeeb8c5191f3da56065332"),
            (3, 5, "f77fe256d94cbeadf678e1044b22a6ba692b175fd12ba6c435c2af1b25500bb3"),
        ],
    )
    def test_bytes_match_the_per_candidate_build(self, tmp_path, n_dims, n_bins, sha256):
        # Digests of the files written when each candidate's histogram was
        # built on its own; the identity basis makes every product exact.
        axis, candidates, images = tiny_problem()
        proj = Projection("rand", 4, n_dims, basis=np.eye(n_dims, 4))
        path = tmp_path / "m.cbcm"
        write_model(path, build_model(images, candidates, proj, n_bins=n_bins))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256

    def test_stored_cell_at_the_base_probability_round_trips(self, tmp_path):
        # cell 1 is stored although its probability equals the base
        records = [("even", 0.25, [1], [0.25]), ("peaked", 0.1, [2], [0.7])]
        p1, p2 = tmp_path / "a.cbcm", tmp_path / "b.cbcm"
        p1.write_bytes(cbcm_bytes(1, 4, records))
        loaded = read_model(p1)
        assert loaded.cells.tolist() == [1, 2, cbc.SENTINEL_CELL]
        assert loaded.occupied.tolist() == [[True, False], [False, True]]
        assert loaded.probs.tolist() == [[0.25, 0.25, 0.25], [0.1, 0.7, 0.1]]
        assert [g.cells.tolist() for g in loaded.grids] == [[1], [2]]
        write_model(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_candidates_that_store_no_cell(self, tmp_path):
        # every cell at the base: the union is the sentinel alone, which every test cell reads
        proj = Projection("rand", 4, 1, basis=np.eye(1, 4))
        records = [("a", 0.25, [], []), ("b", 0.25, [], [])]
        p1, p2 = tmp_path / "a.cbcm", tmp_path / "b.cbcm"
        p1.write_bytes(cbcm_bytes(1, 4, records, digest=proj.digest))
        loaded = read_model(p1)
        assert loaded.cells.tolist() == [cbc.SENTINEL_CELL]
        assert loaded.probs.tolist() == [[0.25], [0.25]]
        assert loaded.occupied.shape == (2, 0)
        assert [g.cells.size for g in loaded.grids] == [0, 0]
        scores = score(loaded.with_projection(proj), np.array([[1.0, 2, 3, 4], [4, 3, 2, 1]]))
        assert scores.tolist() == [math.log(0.25)] * 2
        write_model(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    @settings(max_examples=200, deadline=None)
    @given(stored_tables())
    @example(
        # a 2**62-cell space, a candidate that stores no cell, and one cell
        # (cell 3) stored at its candidate's base probability
        (2, 2**31, (("empty", 1.0, {}), ("mixed", 0.5, {3: 0.0, 2**62 - 1: 4.0}))),
    )
    def test_table_round_trips_record_by_record(self, tmp_path_factory, spec):
        model = table_from_counts(*spec)
        path = tmp_path_factory.mktemp("cbcm") / "m.cbcm"
        write_model(path, model)
        assert path.read_bytes() == cbcm_bytes(
            model.n_dims,
            model.n_bins,
            [
                (name, grid.base_prob, grid.cells, grid.cell_probs)
                for name, grid in zip(model.candidate_names, model.grids)
            ],
            model.lo,
            model.hi,
            model.smoothing,
            model.projection_digest,
        )
        loaded = read_model(path)
        for name in ("cells", "probs", "occupied", "lo", "hi"):
            got, want = getattr(loaded, name), getattr(model, name)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

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

    @pytest.mark.parametrize(
        "lo0, hi0",
        [
            (math.nan, None), (math.inf, None), (-math.inf, None),
            (None, math.nan), (None, math.inf), (None, -math.inf),
            (-1e308, 1e308),
        ],
        ids=["lo-nan", "lo-inf", "lo--inf", "hi-nan", "hi-inf", "hi--inf", "wide"],
    )
    def test_non_finite_bounds_rejected(self, tmp_path, lo0, hi0):
        # None keeps the built bound; "wide" is finite but hi - lo overflows
        proj, model = self.build()
        lo, hi = model.lo.copy(), model.hi.copy()
        lo[0] = lo[0] if lo0 is None else lo0
        hi[0] = hi[0] if hi0 is None else hi0
        with pytest.raises(ValueError, match="bounds must be finite"):
            replace(model, lo=lo, hi=hi)
        path = tmp_path / "m.cbcm"
        write_model(path, model)
        blob = bytearray(path.read_bytes())
        # the first (lo, hi) pair follows the magic and three u32 counts
        struct.pack_into("<dd", blob, 5 + 12, lo[0], hi[0])
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="bounds must be finite"):
            read_model(path)

    @staticmethod
    def header_model(path, n_dims, n_bins, names, digest=bytes(32)):
        """Write a .cbcm whose candidates each hold all their mass in cell 0."""
        records = [(name, 0.0, [0], [1.0]) for name in names]
        path.write_bytes(cbcm_bytes(n_dims, n_bins, records, digest=digest))
        return path

    def test_one_cell_model_loads(self, tmp_path):
        model = read_model(self.header_model(tmp_path / "m.cbcm", 1, 1, ("a", "b")))
        assert model.probs.tolist() == [[1.0, 0.0], [1.0, 0.0]]

    @pytest.mark.parametrize(
        "n_dims, n_bins, names, match",
        [
            (0, 4, ("a", "b"), "n_dims and n_bins must be >= 1"),
            (1, 4, ("a", ""), "names must be unique and non-empty"),
        ],
        ids=["no-dimensions", "empty-name"],
    )
    def test_degenerate_model_file_rejected(self, tmp_path, n_dims, n_bins, names, match):
        path = self.header_model(tmp_path / "m.cbcm", n_dims, n_bins, names)
        with pytest.raises(FormatError, match=match):
            read_model(path)

    @pytest.mark.parametrize("key", ["n_dims", "n_bins"])
    def test_model_needs_a_dimension_and_a_bin(self, key):
        proj, model = self.build()
        # d' is the number of bounds: a model without any has no dimension
        empty = {"lo": np.zeros(0), "hi": np.zeros(0)} if key == "n_dims" else {"n_bins": 0}
        with pytest.raises(ValueError, match="n_dims and n_bins must be >= 1"):
            replace(model, **empty)

    def test_projection_of_another_dimension_rejected(self, tmp_path):
        # a 2-D model whose digest names a 3-D projection
        proj = fit_rand(4, 3, seed=0)
        path = self.header_model(tmp_path / "m.cbcm", 2, 4, ("a", "b"), proj.digest)
        loaded = read_model(path)
        with pytest.raises(ValueError, match="3-D projection for a 2-D model"):
            loaded.with_projection(proj)
        with pytest.raises(ValueError, match="3-D projection"):
            replace(loaded, projection=proj)

    def test_trailing_bytes_rejected(self, tmp_path):
        proj, model = self.build()
        path = tmp_path / "m.cbcm"
        write_model(path, model)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(FormatError):
            read_model(path)


def bin_coords(n_dims, n_bins, tmp_path):
    return bin_indices(np.zeros((1, n_dims)), np.zeros(n_dims), np.ones(n_dims), n_bins)


def fold_units(n_dims, n_bins, tmp_path):
    return next(cbc.prefix_cells(np.zeros((1, n_dims)), n_bins, (n_dims,)))


def build_tiny(n_dims, n_bins, tmp_path):
    _, candidates, images = tiny_problem()
    # the grid is checked before any feature is made
    with mock.patch.object(cbc, "training_features", side_effect=AssertionError("work began")):
        return build_model(images, candidates, fit_rand(4, n_dims, seed=0), n_bins)


def rebin_model(n_dims, n_bins, tmp_path):
    _, candidates, images = tiny_problem()
    return replace(build_model(images, candidates, fit_rand(4, n_dims, seed=0), 2), n_bins=n_bins)


def read_header(n_dims, n_bins, tmp_path):
    path = TestModelSerialization.header_model(tmp_path / "m.cbcm", n_dims, n_bins, ("a", "b"))
    return read_model(path)


#: (d', B) each entry rejects, and the message: no B, a B past the .cbcm
#: u32 and a cell space past int64, also for a numpy B, whose power wraps.
BAD_GRIDS = {
    "no-bins": (1, 0, "n_dims and n_bins must be >= 1, got 1, 0"),
    "past-max-bins": (1, 2**32, "n_bins must be <= MAX_BINS = 4294967295, got 4294967296"),
    "cell-space": (3, 2**21, "histogram cell space is too large to index"),
    "numpy-cell-space": (3, np.int64(2**31), "histogram cell space is too large to index"),
}


class TestOneGridRule:
    """`cell_count` is the one rule for the (B, d') of a model and of every
    binning: each entry rejects the same grids, with ValueError (FormatError
    for a file) and never a raw struct.error, before any work."""

    @pytest.mark.parametrize("entry, grid", [
        pytest.param(entry, grid, id=f"{entry.__name__}-{grid}")
        for entry in (bin_coords, fold_units, build_tiny, rebin_model, read_header)
        for grid in sorted(BAD_GRIDS)
        if (entry, grid) != (read_header, "past-max-bins")  # a u32 header cannot hold it
    ])
    def test_every_entry_rejects_the_grid(self, tmp_path, entry, grid):
        n_dims, n_bins, message = BAD_GRIDS[grid]
        error = FormatError if entry is read_header else ValueError
        with pytest.raises(error, match=re.escape(message)):
            entry(n_dims, n_bins, tmp_path)

    def test_largest_b_builds_writes_and_reads_back(self, tmp_path):
        _, candidates, images = tiny_problem()
        proj = fit_rand(4, 1, seed=0)
        model = build_model(images, candidates, proj, cbc.MAX_BINS)
        assert model.n_bins == cbc.MAX_BINS and model.n_dims == 1
        assert 0 <= model.cells[-2] < cbc.MAX_BINS  # the last stored cell lies in the grid
        first, again = tmp_path / "m.cbcm", tmp_path / "again.cbcm"
        write_model(first, model)
        loaded = read_model(first).with_projection(proj)
        write_model(again, loaded)
        assert again.read_bytes() == first.read_bytes()
        assert loaded.cells.tobytes() == model.cells.tobytes()
        assert loaded.probs.tobytes() == model.probs.tobytes()
        # the clamp bound B - 1 is exact in float64: hi bins to the last cell
        last = bin_indices(np.ones((1, 1)), np.zeros(1), np.ones(1), cbc.MAX_BINS)
        assert last.tolist() == [cbc.MAX_BINS - 1]
