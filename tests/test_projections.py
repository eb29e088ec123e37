"""Projection fitting, application, and serialization."""

import copy
import hashlib
import os
import pickle
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from illumest import projections, synth_dataset
from illumest.cbc import bin_indices
from illumest.evaluation import training_chromaticities
from illumest.illuminants import Illuminant, IlluminantSet
from illumest.io import FormatError, read_dataset_manifest, read_scube, read_sensitivities
from illumest.linalg import nnls_rows
from illumest.projections import (
    ALL_KINDS,
    KIND_ILL_PCA,
    KIND_LDA,
    KIND_NNMF,
    KIND_PCA,
    KIND_RAND,
    KIND_RGB,
    Projection,
    TrainingMatrix,
    fit_ill_pca,
    fit_lda,
    fit_nnmf,
    fit_pca,
    fit_rand,
    fit_rgb,
    leading_projection,
    nnmf_factorize,
    projection_from_bytes,
    projection_to_bytes,
    read_projection,
    write_projection,
)
from illumest.spectral import SensitivityFunctions, SpectralAxis, Spectrum


def simplex_rows(n, d, seed=0, labels_k=None):
    rng = np.random.default_rng(seed)
    rows = rng.dirichlet(np.ones(d) * 1.5, size=n)
    rows = rows / rows.sum(axis=1, keepdims=True)
    if labels_k is None:
        return TrainingMatrix(rows)
    labels = np.arange(n) % labels_k
    return TrainingMatrix(rows, labels=labels)


class TestTrainingMatrix:
    def test_accepts_unit_sum_rows(self):
        t = simplex_rows(6, 4)
        assert t.n_rows == 6 and t.n_dims == 4

    def test_rejects_unnormalized_rows(self):
        with pytest.raises(ValueError):
            TrainingMatrix(np.array([[0.5, 0.6]]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            TrainingMatrix(np.array([[1.2, -0.2]]))

    def test_label_codes_must_be_contiguous(self):
        rows = np.full((4, 2), 0.5)
        TrainingMatrix(rows, labels=np.array([0, 1, 0, 1]))
        with pytest.raises(ValueError):
            TrainingMatrix(rows, labels=np.array([1, 2, 1, 2]))
        with pytest.raises(ValueError):
            TrainingMatrix(rows, labels=np.array([0, 2, 0, 2]))
        with pytest.raises(ValueError):
            TrainingMatrix(rows, labels=np.array([0.0, 1.0, 0.0, 1.0]))

    def test_n_classes(self):
        t = simplex_rows(9, 3, labels_k=3)
        assert t.n_classes == 3


class TestProjectionValidation:
    def test_shape_by_kind(self):
        Projection(KIND_RAND, input_dim=5, output_dim=2, basis=np.ones((2, 5)))
        with pytest.raises(ValueError):
            Projection(KIND_RAND, input_dim=5, output_dim=2, basis=np.ones((5, 2)))

    def test_rgb_must_have_three_outputs(self):
        with pytest.raises(ValueError):
            Projection(KIND_RGB, input_dim=5, output_dim=2, basis=np.ones((2, 5)))

    def test_nnmf_basis_non_negative(self):
        with pytest.raises(ValueError):
            Projection(KIND_NNMF, 4, 2, basis=np.array([[1.0, 1, 1, 1], [1, -1, 1, 1]]))

    def test_centered_kinds_need_orthonormal_basis_and_mean(self):
        good = np.eye(4)[:, :2]
        Projection(KIND_PCA, 4, 2, basis=good, mean=np.zeros(4))
        with pytest.raises(ValueError):
            Projection(KIND_PCA, 4, 2, basis=good)  # missing mean
        with pytest.raises(ValueError):
            Projection(KIND_PCA, 4, 2, basis=good * 2.0, mean=np.zeros(4))

    def test_linear_kinds_reject_mean(self):
        with pytest.raises(ValueError):
            Projection(KIND_RAND, 4, 2, basis=np.ones((2, 4)), mean=np.zeros(4))


class TestApply:
    def test_linear_kinds_multiply_by_basis(self):
        basis = np.array([[1.0, 0.0, 1.0], [0.0, 2.0, 0.0]])
        p = Projection(KIND_RAND, 3, 2, basis=basis)
        rows = np.array([[1.0, 2.0, 3.0], [0.0, 1.0, 0.0]])
        np.testing.assert_allclose(p.apply_rows(rows), [[4.0, 4.0], [0.0, 2.0]])
        np.testing.assert_allclose(p.apply_rows(rows[0][None])[0], [4.0, 4.0])

    def test_centered_kinds_subtract_mean_first(self):
        basis = np.eye(3)[:, :1]
        p = Projection(KIND_PCA, 3, 1, basis=basis, mean=np.array([1.0, 2.0, 3.0]))
        out = p.apply_rows(np.array([[2.0, 2.0, 3.0]]))
        np.testing.assert_allclose(out, [[1.0]])

    def test_nnmf_kind_encodes_by_nnls(self):
        basis = np.array([[1.0, 0.0], [1.0, 1.0]])
        p = Projection(KIND_NNMF, 2, 2, basis=basis)
        # target = 1*row0 + 2*row1 exactly, so the encoding is (1, 2)
        np.testing.assert_allclose(p.apply_rows(np.array([[3.0, 2.0]]))[0], [1.0, 2.0], atol=1e-9)

    def test_nnmf_passes_the_einsum_right_hand_sides(self, monkeypatch):
        # a fixed-order einsum sums a row the same way wherever it sits
        rng = np.random.default_rng(17)
        basis = rng.random((3, 8))
        rows = rng.random((20, 8))
        rhs = np.einsum("nd,kd->nk", rows, basis)
        seen = []
        monkeypatch.setattr(
            projections, "nnls_rows", lambda v, b: seen.append(b.copy()) or nnls_rows(v, b)
        )
        z = Projection(KIND_NNMF, 8, 3, basis=basis).apply_rows(rows)
        assert seen[0].tobytes() == rhs.tobytes()
        assert z.tobytes() == nnls_rows(basis, rhs).tobytes()

    def test_nnmf_rejects_a_non_finite_row(self):
        rng = np.random.default_rng(18)
        basis = rng.random((3, 31))
        rows = rng.random((4, 31))
        rows[2, 5] = np.nan
        with pytest.raises(ValueError, match="finite"):
            Projection(KIND_NNMF, 31, 3, basis=basis).apply_rows(rows)
        # a linear kind carries the NaN into its features, which binning rejects
        feats = Projection(KIND_RAND, 31, 3, basis=basis).apply_rows(rows)
        assert np.isnan(feats[2]).all() and np.isfinite(np.delete(feats, 2, axis=0)).all()
        with pytest.raises(ValueError, match="finite"):
            bin_indices(feats, np.full(3, -30.0), np.full(3, 30.0), 5)

    def test_input_dim_checked(self):
        p = Projection(KIND_RAND, 3, 1, basis=np.ones((1, 3)))
        with pytest.raises(ValueError):
            p.apply_rows(np.ones((2, 4)))


class TestFitRgbAndRand:
    def test_rgb_uses_sensitivity_rows(self):
        axis = SpectralAxis(400, 10, 6)
        rows = np.abs(np.random.default_rng(0).random((3, 6)))
        sens = SensitivityFunctions(axis, rows, "cam_z")
        p = fit_rgb(sens)
        assert p.kind == KIND_RGB and p.output_dim == 3
        np.testing.assert_array_equal(p.basis, rows)
        assert p.metadata["camera"] == "cam_z"

    def test_rand_seeded_and_bounded(self):
        a = fit_rand(31, 4, seed=42)
        b = fit_rand(31, 4, seed=42)
        c = fit_rand(31, 4, seed=43)
        np.testing.assert_array_equal(a.basis, b.basis)
        assert not np.array_equal(a.basis, c.basis)
        assert a.basis.shape == (4, 31)
        assert np.all(a.basis >= -1.0) and np.all(a.basis < 1.0)
        assert a.metadata["seed"] == 42

    def test_rand_three_standard_seeds_distinct(self):
        bases = [fit_rand(31, 3, seed=s).basis for s in (42, 43, 44)]
        assert not np.array_equal(bases[0], bases[1])
        assert not np.array_equal(bases[0], bases[2])
        assert not np.array_equal(bases[1], bases[2])

    def test_rand_dims_checked(self):
        with pytest.raises(ValueError):
            fit_rand(3, 4, seed=0)


class TestFitPca:
    def test_hand_worked_example(self):
        rows = np.array([[0.2, 0.3, 0.5], [0.4, 0.3, 0.3], [0.3, 0.3, 0.4]])
        p = fit_pca(TrainingMatrix(rows), 1)
        np.testing.assert_allclose(p.mean, [0.3, 0.3, 0.4], atol=1e-15)
        s = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(p.basis[:, 0], [s, 0.0, -s], atol=1e-12)
        z = p.apply_rows(rows[0][None])[0]
        np.testing.assert_allclose(z, [-0.2 * s], atol=1e-12)

    def test_rank_deficient_request_rejected(self):
        rows = np.array([[0.2, 0.3, 0.5], [0.4, 0.3, 0.3], [0.3, 0.3, 0.4]])
        with pytest.raises(ValueError):
            fit_pca(TrainingMatrix(rows), 2)  # data varies along one axis only

    def test_matches_svd_subspace(self):
        for seed in range(5):
            t = simplex_rows(40, 6, seed=seed)
            d_prime = 3
            p = fit_pca(t, d_prime)
            centered = t.rows - t.rows.mean(axis=0)
            _, _, vt = np.linalg.svd(centered, full_matrices=False)
            oracle = vt[:d_prime].T
            mine = p.basis @ p.basis.T
            np.testing.assert_allclose(mine, oracle @ oracle.T, atol=1e-8)

    def test_projected_training_data_is_decorrelated(self):
        t = simplex_rows(60, 5, seed=3)
        p = fit_pca(t, 3)
        z = p.apply_rows(t.rows)
        cov = np.cov(z, rowvar=False)
        off = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off)) < 1e-10
        assert cov[0, 0] >= cov[1, 1] >= cov[2, 2]

    def test_sign_convention(self):
        t = simplex_rows(30, 4, seed=9)
        p = fit_pca(t, 2)
        for col in p.basis.T:
            assert col[np.argmax(np.abs(col))] > 0


class TestFitIllPca:
    def make_set(self, n=12, d=8, seed=1):
        rng = np.random.default_rng(seed)
        axis = SpectralAxis(400, 10, d)
        return IlluminantSet(
            tuple(
                Illuminant(f"L{i}", Spectrum(axis, rng.random(d) + 0.05))
                for i in range(n)
            )
        )

    def test_trains_on_normalized_spds(self):
        s = self.make_set()
        p = fit_ill_pca(s, 3)
        assert p.kind == KIND_ILL_PCA
        chroma = s.chromaticity_matrix()
        np.testing.assert_allclose(p.mean, chroma.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(p.basis.T @ p.basis, np.eye(3), atol=1e-10)
        assert p.metadata["n_illuminants"] == 12

    def test_matches_svd_subspace(self):
        s = self.make_set(seed=5)
        p = fit_ill_pca(s, 4)
        chroma = s.chromaticity_matrix()
        centered = chroma - chroma.mean(axis=0)
        _, _, vt = np.linalg.svd(centered, full_matrices=False)
        oracle = vt[:4].T
        np.testing.assert_allclose(
            p.basis @ p.basis.T, oracle @ oracle.T, atol=1e-8
        )


class TestNnmf:
    def test_losses_monotone_non_increasing(self):
        rng = np.random.default_rng(2)
        x = rng.random((15, 9))
        _, _, losses = nnmf_factorize(x, 4, seed=0, max_iter=200)
        diffs = np.diff(losses)
        assert np.all(diffs <= 1e-9 * max(losses[0], 1.0))

    def test_exact_low_rank_recovery(self):
        rng = np.random.default_rng(3)
        u0 = rng.random((12, 3))
        v0 = rng.random((3, 8))
        x = u0 @ v0
        _, _, losses = nnmf_factorize(x, 3, seed=1, max_iter=4000, tol=1e-15)
        assert losses[-1] < 1e-6 * float(np.linalg.norm(x) ** 2)

    def test_factor_shapes_and_nonnegativity(self):
        rng = np.random.default_rng(4)
        x = rng.random((10, 7))
        u, v, _ = nnmf_factorize(x, 2, seed=0)
        assert u.shape == (10, 2) and v.shape == (2, 7)
        assert np.all(u >= 0) and np.all(v >= 0)

    def test_seeded_reproducibility(self):
        rng = np.random.default_rng(5)
        x = rng.random((8, 6))
        u1, v1, l1 = nnmf_factorize(x, 2, seed=7, max_iter=50)
        u2, v2, l2 = nnmf_factorize(x, 2, seed=7, max_iter=50)
        np.testing.assert_array_equal(u1, u2)
        np.testing.assert_array_equal(v1, v2)
        assert l1 == l2

    @pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
    def test_factors_do_not_depend_on_the_input_layout(self, rank):
        # np.sum and a rank-1 product add in memory order, so a column-major
        # or strided x must be read as its C-order copy
        rng = np.random.default_rng(3)
        x = rng.random((600, 31)) ** 3
        x /= x.sum(axis=1, keepdims=True)
        wide = np.zeros((600, 62))
        wide[:, ::2] = x
        want = nnmf_factorize(x, rank, seed=0, max_iter=50)
        for layout in (np.asfortranarray(x), wide[:, ::2]):
            u, v, losses = nnmf_factorize(layout, rank, seed=0, max_iter=50)
            assert u.tobytes() == want[0].tobytes() and v.tobytes() == want[1].tobytes()
            assert np.array(losses).tobytes() == np.array(want[2]).tobytes()

    def test_rejects_negative_input_and_bad_rank(self):
        with pytest.raises(ValueError):
            nnmf_factorize(np.array([[1.0, -1.0]]), 1)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="x must be a finite"):
                nnmf_factorize(np.array([[bad, 1.0], [0.5, 0.2]]), 1, max_iter=20)
        with pytest.raises(ValueError):
            nnmf_factorize(np.ones((3, 3)), 4)
        with pytest.raises(ValueError, match="max_iter must be >= 1"):
            nnmf_factorize(np.ones((3, 3)), 2, max_iter=0)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_rejects_a_bad_tol(self, tol):
        with pytest.raises(ValueError, match=f"tol must be finite and >= 0, got {tol}"):
            nnmf_factorize(np.ones((3, 3)), 2, tol=tol)

    def test_fit_nnmf_projection(self):
        # Rows built as an exact rank-3 non-negative product (then scaled to
        # unit sum, which preserves the rank) are representable, so the
        # fitted basis and its NNLS encoding must reconstruct them closely.
        rng = np.random.default_rng(6)
        w = rng.random((25, 3))
        h = rng.random((3, 6)) + 0.1
        rows = w @ h
        rows /= rows.sum(axis=1, keepdims=True)
        t = TrainingMatrix(rows)
        p = fit_nnmf(t, 3, seed=0, max_iter=3000)
        assert p.kind == KIND_NNMF
        assert np.all(p.basis >= 0)
        assert p.metadata["seed"] == 0
        assert p.metadata["iterations"] >= 1
        assert p.metadata["final_loss"] >= 0
        z = p.apply_rows(t.rows)
        assert np.all(z >= 0)
        rel = np.linalg.norm(t.rows - z @ p.basis) ** 2 / np.linalg.norm(t.rows) ** 2
        assert rel < 1e-3


TINY = np.finfo(np.float64).tiny


def direct_nnmf(x, rank, seed, max_iter, tol):
    """The multiplicative updates of `nnmf_factorize`, run for all `max_iter`
    rounds with ||X - U V||^2 formed directly each round. Returns per round
    t (0 = start) the direct loss, the bound `err` the fit's docstring states
    for a Gram-form loss there, the stopping margin (the fit stops at round
    t when margins[t] <= 0) and V."""
    n, d = x.shape
    rng = np.random.default_rng(seed)
    amp = float(np.sqrt(max(x.mean(), TINY) / rank))
    u = rng.random((n, rank)) * amp
    v = rng.random((rank, d)) * amp
    xx = float(np.sum(x * x))
    ulp = 4 * (n + rank) * (d + rank) * np.finfo(np.float64).eps
    losses, errs, margins, vs = [float(np.sum(np.square(x - u @ v)))], [0.0], [None], [v]
    for _ in range(max_iter):
        u = u * ((x @ v.T) / (u @ (v @ v.T) + 1e-9))
        v = v * ((u.T @ x) / ((u.T @ u) @ v + 1e-9))
        uv = u @ v
        prev = losses[-1]
        losses.append(float(np.sum(np.square(x - uv))))
        errs.append(ulp * (xx + float(np.vdot(uv, uv))))
        margins.append(prev - losses[-1] - tol * max(prev, TINY))
        vs.append(v)
    return losses, errs, margins, vs


@st.composite
def nnmf_problems(draw):
    """(x, rank, seed, tol, max_iter): dense, sparse or exactly low-rank
    non-negative matrices at three scales."""
    n, d = draw(st.integers(1, 24)), draw(st.integers(1, 12))
    rank = draw(st.integers(1, min(n, d)))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    shape = draw(st.sampled_from(["dense", "sparse", "low-rank"]))
    if shape == "low-rank":
        x = rng.random((n, rank)) @ rng.random((rank, d))
    else:
        x = rng.random((n, d)) * (rng.random((n, d)) < (0.3 if shape == "sparse" else 1.0))
    x *= draw(st.sampled_from([1e-6, 1.0, 1e3]))
    tol = draw(
        st.sampled_from([0.0, 1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 0.5])
        | st.floats(0.0, 1.0, allow_nan=False)
    )
    return x, rank, seed, tol, draw(st.integers(1, 150))


class TestNnmfGramLoss:
    """`nnmf_factorize` takes its stopping-test losses from Gram terms; each
    is non-negative and within the stated `err` of the direct loss, the first
    and last are the direct loss, and a stopping decision is the direct
    loss's wherever its margin is clear of the previous loss's bound."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=150, deadline=None)
    @given(nnmf_problems())
    def test_losses_and_stopping_match_the_direct_loss(self, problem):
        x, rank, seed, tol, max_iter = problem
        _, v, losses = nnmf_factorize(x, rank, seed=seed, max_iter=max_iter, tol=tol)
        ref, errs, margins, vs = direct_nnmf(x, rank, seed, max_iter, tol)
        end = len(losses) - 1
        np.testing.assert_array_equal(v, vs[end])
        assert losses[0] == ref[0] and losses[end] == ref[end]
        for t in range(1, end):
            assert 0.0 <= losses[t] and abs(losses[t] - ref[t]) <= errs[t]
        # the fit went on past every round before `end` and stopped at `end`,
        # unless max_iter ended it; only a margin within the previous loss's
        # bound may take the other decision
        for t in range(1, min(end + 1, max_iter)):
            if abs(margins[t]) > (1.0 + tol) * errs[t - 1]:
                assert (margins[t] <= 0) == (t == end)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_a_margin_at_zero_takes_the_direct_decision(self, seed):
        # Round 1's previous loss is the direct starting loss, so when the
        # fit takes the direct loss there its stopping test is the direct
        # loop's, bit for bit. A tol within a few ulps of round 1's relative
        # improvement puts that margin at about 0, where the Gram-form loss,
        # a few ulps of ||X||^2 off, would decide some of them the other way.
        x = np.random.default_rng(seed).random((20, 9))
        ref = direct_nnmf(x, 2, 0, 1, 0.0)[0]
        edge = (ref[0] - ref[1]) / ref[0]
        for step in range(-16, 17):
            tol = edge + step * np.spacing(edge)
            _, v, losses = nnmf_factorize(x, 2, seed=0, max_iter=3, tol=tol)
            _, _, margins, vs = direct_nnmf(x, 2, 0, 3, tol)
            end = next((t for t in (1, 2) if margins[t] <= 0), 3)
            assert len(losses) - 1 == end, f"tol {step} ulps from round 1's edge"
            np.testing.assert_array_equal(v, vs[end])

    def test_proj_bytes_pinned(self, tmp_path, bundled_set):
        # sha256 of each `.proj` from the direct-loss fit, on numpy's
        # scipy-openblas build at any thread count; another BLAS may round
        # the products apart
        manifest, _ = synth_dataset(
            tmp_path, 3, bundled_set.axis, base_seed=17, width=8, height=8
        )
        train, _ = read_dataset_manifest(manifest)
        rows = training_chromaticities([read_scube(p) for p in train], bundled_set)
        pinned = {
            1: "4340c1eec32479c322e1bc6e1e8b2484cbbece25793349c8bbeec58f809448b8",
            2: "96f3a7ead0e3c17399f18265268ec6738c7cc982c2ca95712f63318b380fe4e5",
            3: "3299f3c99295b852e46120cffc7c90c1201b749db84fed5798495b0e84a138d9",
            4: "5e8f3960034367dcba92bb3df6c9db6bb2c1ed39a8ce183e7503c31fc313be7b",
            5: "d8a15a939966e3a721ab3d2f6e6c0983765e2c5de12f17f958fbe8f340194387",
        }
        for d_prime, digest in pinned.items():
            path = tmp_path / f"nnmf{d_prime}.proj"
            write_projection(path, fit_nnmf(rows, d_prime, seed=d_prime))
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


    def test_proj_bytes_do_not_depend_on_the_blas_thread_count(self):
        # OpenBLAS splits a long dot product across threads, which sums it in
        # another order; ||X||^2 and the direct losses are numpy's own sums,
        # so a fit matrix of the grid_nnmf size writes one `.proj` at 1 and
        # at 2 threads
        script = (
            "import sys, numpy as np\n"
            "from illumest.projections import TrainingMatrix, fit_nnmf, projection_to_bytes\n"
            "rows = np.random.default_rng(11).random((2560, 31))\n"
            "rows /= rows.sum(axis=1, keepdims=True)\n"
            "proj = fit_nnmf(TrainingMatrix(rows), 3, max_iter=40)\n"
            "sys.stdout.write(projection_to_bytes(proj).hex())\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        blobs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
            done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                  text=True, timeout=300, check=True)
            blobs.append(done.stdout)
        assert len(blobs[0]) > 0 and blobs[0] == blobs[1]


class TestFitLda:
    def two_class_matrix(self, seed=0):
        rng = np.random.default_rng(seed)
        centers = np.array([[0.7, 0.2, 0.1], [0.2, 0.7, 0.1]])
        rows, labels = [], []
        for c, center in enumerate(centers):
            for _ in range(20):
                r = np.clip(center + rng.normal(0, 0.01, 3), 1e-3, None)
                rows.append(r / r.sum())
                labels.append(c)
        return TrainingMatrix(np.array(rows), labels=np.array(labels))

    def test_separates_classes(self):
        t = self.two_class_matrix()
        p = fit_lda(t, 1)
        z = p.apply_rows(t.rows)[:, 0]
        z0, z1 = z[t.labels == 0], z[t.labels == 1]
        gap = abs(z0.mean() - z1.mean())
        spread = max(z0.std(), z1.std())
        assert gap > 10 * spread

    def test_output_dim_capped_by_classes(self):
        t = self.two_class_matrix()
        with pytest.raises(ValueError):
            fit_lda(t, 2)  # two classes allow only one discriminant

    def test_needs_labels(self):
        with pytest.raises(ValueError):
            fit_lda(simplex_rows(10, 3), 1)

    def test_basis_rows_unit_norm_and_deterministic(self):
        t = simplex_rows(36, 5, seed=8, labels_k=4)
        p1 = fit_lda(t, 3)
        p2 = fit_lda(t, 3)
        np.testing.assert_array_equal(p1.basis, p2.basis)
        np.testing.assert_allclose(
            np.linalg.norm(p1.basis, axis=1), np.ones(3), atol=1e-10
        )
        assert p1.metadata["n_classes"] == 4


class TestLeadingProjection:
    """`leading_projection(fit at D, k)` is what the sweep serves d' = k
    from: a rand, pca or ill_pca fit at k bit for bit, and lda's within the
    last bit at k = 1. Fitted on the bundled set and a synthetic split at
    the sweep's sizes (31 bands, 28 candidates, D = 5)."""

    D = 5

    @pytest.fixture(scope="class")
    def training(self, tmp_path_factory, bundled_set):
        manifest, _ = synth_dataset(
            tmp_path_factory.mktemp("leading"), 4, bundled_set.axis, base_seed=3,
            width=16, height=16,
        )
        images = [read_scube(p) for p in read_dataset_manifest(manifest)[0]]
        return {labelled: training_chromaticities(images, bundled_set, labelled=labelled)
                for labelled in (False, True)}

    def fits(self, kind, training, bundled_set):
        """`kind`'s fit at each d' of 1..D, by d'."""
        fit = {
            KIND_RAND: lambda d: fit_rand(bundled_set.axis.count, d, seed=43),
            KIND_PCA: lambda d: fit_pca(training[False], d),
            KIND_ILL_PCA: lambda d: fit_ill_pca(bundled_set, d),
            KIND_LDA: lambda d: fit_lda(training[True], d),
        }[kind]
        return {d: fit(d) for d in range(1, self.D + 1)}

    @pytest.mark.parametrize("kind", [KIND_RAND, KIND_PCA, KIND_ILL_PCA])
    def test_bytes_equal_the_direct_fit(self, kind, training, bundled_set):
        fits = self.fits(kind, training, bundled_set)
        assert leading_projection(fits[self.D], self.D) is fits[self.D]
        for k in range(1, self.D):
            got = leading_projection(fits[self.D], k)
            assert projection_to_bytes(got) == projection_to_bytes(fits[k]), k

    def test_lda_equal_but_in_the_last_bit_at_one(self, training, bundled_set):
        fits = self.fits(KIND_LDA, training, bundled_set)
        for k in range(2, self.D):
            got = leading_projection(fits[self.D], k)
            assert projection_to_bytes(got) == projection_to_bytes(fits[k]), k
        # fit_lda divides each direction by `np.linalg.norm(w, axis=0)`, and
        # numpy sums a (31, 1) array's column in another order than a
        # (31, k > 1) one's, so the lone direction may round apart in the
        # last bit; everything else is the d' = 1 fit's
        got = leading_projection(fits[self.D], 1)
        np.testing.assert_allclose(got.basis, fits[1].basis, rtol=0, atol=1e-15)
        assert (got.input_dim, got.output_dim, got.metadata) == (31, 1, fits[1].metadata)

    def test_rejects_other_kinds_and_k_outside_the_fit(self, training, bundled_set, bundled_cameras):
        fits = self.fits(KIND_PCA, training, bundled_set)
        for k in (0, -1, self.D + 1):
            with pytest.raises(ValueError, match="no leading"):
                leading_projection(fits[self.D], k)
        rgb = fit_rgb(read_sensitivities(bundled_cameras[0]))
        nnmf = fit_nnmf(training[False], 2, max_iter=5)
        for proj in (rgb, nnmf):
            for k in range(1, proj.output_dim + 1):
                with pytest.raises(ValueError, match=f"{proj.kind} fit"):
                    leading_projection(proj, k)


class TestSerialization:
    def sample_projections(self):
        axis = SpectralAxis(400, 10, 5)
        rng = np.random.default_rng(0)
        sens = SensitivityFunctions(axis, rng.random((3, 5)), "cam_q")
        out = [fit_rgb(sens), fit_rand(5, 2, seed=3)]
        out.append(
            Projection(
                KIND_PCA, 5, 2, basis=np.eye(5)[:, :2], mean=np.arange(5.0),
                metadata={"n_rows": 9},
            )
        )
        out.append(
            Projection(
                KIND_ILL_PCA, 5, 1, basis=np.eye(5)[:, :1], mean=np.full(5, 0.2),
                metadata={"n_illuminants": 4},
            )
        )
        out.append(Projection(KIND_NNMF, 5, 2, basis=rng.random((2, 5))))
        out.append(Projection(KIND_LDA, 5, 2, basis=rng.standard_normal((2, 5))))
        return out

    def test_round_trip_every_kind(self):
        for p in self.sample_projections():
            blob = projection_to_bytes(p)
            q = projection_from_bytes(blob)
            assert q.kind == p.kind
            assert q.input_dim == p.input_dim and q.output_dim == p.output_dim
            np.testing.assert_array_equal(q.basis, p.basis)
            if p.mean is None:
                assert q.mean is None
            else:
                np.testing.assert_array_equal(q.mean, p.mean)
            assert q.metadata == p.metadata
            assert projection_to_bytes(q) == blob

    def test_every_kind_reads_its_basis_layout(self):
        # one layout rule: (input_dim, output_dim) for the centered kinds,
        # (output_dim, input_dim) for the others, when built and when read
        for p in self.sample_projections():
            centered = p.kind in (KIND_PCA, KIND_ILL_PCA)
            assert p.basis.shape == ((5, p.output_dim) if centered else (p.output_dim, 5))
            with pytest.raises(ValueError, match=f"{p.kind} basis must have shape"):
                Projection(p.kind, 5, p.output_dim, basis=p.basis.T, mean=p.mean)
            blob = projection_to_bytes(p)
            end = 15 + 8 * (0 if p.mean is None else 5) + 8 * p.basis.size
            assert projection_from_bytes(blob[:end]).basis.tobytes() == p.basis.tobytes()
            with pytest.raises(FormatError, match="truncated basis"):
                projection_from_bytes(blob[: end - 1])

    def test_kind_codes_are_frozen(self):
        # byte 5 of the serialization is the kind code; the mapping is part
        # of the on-disk contract and must never drift
        wanted = {
            KIND_RGB: 0, KIND_RAND: 1, KIND_PCA: 2,
            KIND_ILL_PCA: 3, KIND_NNMF: 4, KIND_LDA: 5,
        }
        assert list(ALL_KINDS) == list(wanted)
        for p in self.sample_projections():
            assert projection_to_bytes(p)[5] == wanted[p.kind]

    def test_file_round_trip(self, tmp_path):
        p = fit_rand(7, 3, seed=1)
        path = tmp_path / "p.proj"
        write_projection(path, p)
        q = read_projection(path)
        np.testing.assert_array_equal(q.basis, p.basis)
        assert q.metadata == p.metadata

    def test_hash_is_stable_and_discriminating(self):
        a = fit_rand(6, 2, seed=1)
        b = fit_rand(6, 2, seed=2)
        assert a.digest == fit_rand(6, 2, seed=1).digest == hashlib.sha256(
            projection_to_bytes(a)).digest()
        assert a.digest != b.digest
        assert len(a.digest) == 32
        # held, like `columns`: a digest is made once per projection
        assert a.digest is a.digest

    def test_a_held_digest_cannot_go_stale(self):
        # a projection is frozen and holds read-only copies of what it was given
        basis, metadata = np.eye(2, 6), {"seed": 1, "runs": [{"n": 2}]}
        p = Projection(KIND_RAND, 6, 2, basis=basis, metadata=metadata)
        digest = p.digest
        basis[0, 0], metadata["note"] = 5.0, "x"
        with pytest.raises(TypeError):
            p.metadata["note"] = "x"
        with pytest.raises(TypeError):
            p.metadata["runs"][0]["n"] = 3
        with pytest.raises(ValueError, match="read-only"):
            p.basis[0, 0] = 5.0
        with pytest.raises(AttributeError):
            p.output_dim = 1
        assert hashlib.sha256(projection_to_bytes(p)).digest() == digest
        assert projection_to_bytes(p).endswith(b'{"runs":[{"n":2}],"seed":1}')
        centered = self.sample_projections()[2]
        with pytest.raises(ValueError, match="read-only"):
            centered.mean[0] = 1.0
        # `leading_projection`, a read back, pickle and deepcopy make projections of their own
        assert projection_from_bytes(projection_to_bytes(p)).digest == digest
        assert leading_projection(p, 1).basis.flags.writeable is False
        for q in (pickle.loads(pickle.dumps(p)), copy.deepcopy(centered)):
            assert q.digest == (p if q.kind == KIND_RAND else centered).digest
            assert not q.basis.flags.writeable

    def test_bad_magic_and_truncation(self):
        blob = projection_to_bytes(fit_rand(4, 2, seed=0))
        with pytest.raises(FormatError):
            projection_from_bytes(b"XXXX" + blob[4:])
        with pytest.raises(FormatError):
            projection_from_bytes(blob[:12])

    def test_non_finite_mean_rejected(self, tmp_path):
        p = self.sample_projections()[2]  # pca, carries a mean
        path = tmp_path / "nan_mean.proj"
        write_projection(path, p)
        blob = bytearray(path.read_bytes())
        blob[15:23] = struct.pack("<d", float("nan"))  # first mean entry
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="mean"):
            read_projection(path)

    def test_unknown_kind_code_rejected(self):
        blob = bytearray(projection_to_bytes(fit_rand(4, 2, seed=0)))
        blob[5] = 99
        with pytest.raises(FormatError):
            projection_from_bytes(bytes(blob))
