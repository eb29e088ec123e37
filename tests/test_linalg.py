"""Numerical kernels: symmetric/generalized eigensolvers and NNLS."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from illumest import cbc, linalg
from illumest.linalg import (
    BATCH_ROWS,
    KKT_TOL,
    NNLS_ENUM_MAX_K,
    generalized_eig,
    nnls,
    nnls_rows,
    symmetric_eig,
)
from nnls_oracle import target_nnls


def brute_force_nnls(basis, target):
    """Exact NNLS by enumerating active sets (small k only).

    Independent of the production solver: every subset of coordinates is
    solved unconstrained; feasible candidates compete on the objective.
    """
    k = basis.shape[0]
    best = np.zeros(k)
    best_obj = float(np.sum(target**2))
    for r in range(1, k + 1):
        for subset in itertools.combinations(range(k), r):
            idx = np.asarray(subset)
            sub, *_ = np.linalg.lstsq(basis[idx].T, target, rcond=None)
            if np.any(sub < 0):
                continue
            z = np.zeros(k)
            z[idx] = sub
            obj = float(np.sum((target - z @ basis) ** 2))
            if obj < best_obj - 1e-12:
                best, best_obj = z, obj
    return best, best_obj


def rhs_of(basis, targets):
    """targets @ basis.T by the fixed-order einsum `Projection.apply_rows`
    uses, so a row's right-hand side does not depend on its batch."""
    return np.einsum("nd,kd->nk", targets, basis)


def gram_nnls(basis, target):
    """The Gram-form scalar `nnls` of one target on a (k, d) basis."""
    return nnls(basis @ basis.T, basis @ target)


def solve_rows(basis, targets):
    """`nnls_rows` of target rows, through their right-hand sides."""
    return nnls_rows(basis, rhs_of(basis, targets))


def objective(basis, targets, z):
    return np.sum((targets - z @ basis) ** 2, axis=-1)


def assert_kkt(basis, targets, z, support_tol=KKT_TOL):
    """z >= 0, gradient <= tol off the support, |gradient| small on it.

    tol = KKT_TOL * max(1, |basis @ row|_inf), the certificate nnls_rows
    applies; `support_tol` loosens stationarity for rows the scalar solver
    returns, whose subproblems go through lstsq.
    """
    rhs = targets @ basis.T
    grad = rhs - z @ (basis @ basis.T)
    scale = np.maximum(1.0, np.max(np.abs(rhs), axis=1, keepdims=True))
    assert np.all(z >= 0)
    assert np.all(np.where(z == 0, grad, 0.0) <= KKT_TOL * scale)
    assert np.all(np.where(z > 0, np.abs(grad), 0.0) <= support_tol * scale)


def clipped_targets(basis, z_support, clip, mu):
    """Targets whose unique NNLS optimum is z_support with `clip` zeroed.

    t = z* basis + w with basis @ w = -mu, where mu > 0 exactly on the clipped
    coordinates: then z* satisfies the KKT conditions with those coordinates
    at zero and strictly positive multipliers on them.
    """
    z = np.where(clip, 0.0, z_support)
    multipliers = np.where(clip, mu, 0.0)
    w = -np.linalg.solve(basis @ basis.T, multipliers.T).T @ basis
    return z, z @ basis + w


def counting_scalar_solver(monkeypatch):
    calls = []
    scalar = linalg.nnls

    def counted(gram, atb, *args, **kwargs):
        calls.append(atb.copy())
        return scalar(gram, atb, *args, **kwargs)

    monkeypatch.setattr(linalg, "nnls", counted)
    return calls


def recorded_layers(monkeypatch):
    """Every list of support layers `nnls_rows` builds, in build order."""
    built = []
    build = linalg._support_layers

    def recorded(gram):
        built.append(build(gram))
        return built[-1]

    monkeypatch.setattr(linalg, "_support_layers", recorded)
    return built


class TestSymmetricEig:
    def test_known_two_by_two(self):
        evals, evecs = symmetric_eig([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(evals, [3.0, 1.0], atol=1e-12)
        s = 1.0 / np.sqrt(2.0)
        for col, wanted in zip(evecs.T, ([s, s], [s, -s])):
            assert min(np.abs(col - wanted).max(), np.abs(col + wanted).max()) < 1e-12

    def test_reconstruction_and_order(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            m = rng.standard_normal((n, n))
            a = (m + m.T) / 2.0
            evals, evecs = symmetric_eig(a)
            assert np.all(np.diff(evals) <= 1e-12)
            np.testing.assert_allclose(a @ evecs, evecs * evals, atol=1e-9)
            np.testing.assert_allclose(evecs.T @ evecs, np.eye(n), atol=1e-10)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            symmetric_eig([[1.0, 2.0], [0.0, 1.0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            symmetric_eig(np.ones((2, 3)))

    def test_tiny_asymmetry_tolerated(self):
        a = np.array([[2.0, 1.0], [1.0 + 1e-13, 2.0]])
        evals, _ = symmetric_eig(a)
        np.testing.assert_allclose(evals, [3.0, 1.0], atol=1e-9)


class TestGeneralizedEig:
    def test_known_diagonal_pair(self):
        a = np.diag([2.0, 1.0])
        b = np.diag([4.0, 1.0])
        evals, vecs = generalized_eig(a, b)
        np.testing.assert_allclose(evals, [1.0, 0.5], atol=1e-12)
        np.testing.assert_allclose(vecs.T @ b @ vecs, np.eye(2), atol=1e-12)
        assert abs(abs(vecs[1, 0]) - 1.0) < 1e-12  # w=1 pairs with axis 2
        assert abs(abs(vecs[0, 1]) - 0.5) < 1e-12

    def test_definition_and_b_orthonormality(self):
        rng = np.random.default_rng(4)
        for _ in range(15):
            n = int(rng.integers(2, 6))
            m = rng.standard_normal((n, n))
            a = (m + m.T) / 2.0
            c = rng.standard_normal((n, n))
            b = c @ c.T + n * np.eye(n)
            evals, vecs = generalized_eig(a, b)
            np.testing.assert_allclose(a @ vecs, b @ vecs * evals, atol=1e-8)
            np.testing.assert_allclose(vecs.T @ b @ vecs, np.eye(n), atol=1e-9)
            assert np.all(np.diff(evals) <= 1e-10)

    def test_rejects_indefinite_b(self):
        with pytest.raises(ValueError):
            generalized_eig(np.eye(2), np.diag([1.0, -1.0]))


class TestNnls:
    def test_unconstrained_interior_solution(self):
        basis = np.array([[1.0, 1.0]])
        target = np.array([1.0, 3.0])
        np.testing.assert_allclose(gram_nnls(basis, target), [2.0], atol=1e-12)

    def test_active_constraint_hand_case(self):
        # Unconstrained solution is (1, -1); the optimum clips coordinate 2
        # to zero and re-solves to z = (0.5, 0).
        basis = np.array([[1.0, 1.0], [1.0, 0.0]])
        target = np.array([0.0, 1.0])
        z = gram_nnls(basis, target)
        np.testing.assert_allclose(z, [0.5, 0.0], atol=1e-10)

    def test_zero_target_gives_zero(self):
        basis = np.eye(3)
        np.testing.assert_array_equal(gram_nnls(basis, np.zeros(3)), np.zeros(3))

    def test_matches_active_set_enumeration(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            k = int(rng.integers(1, 4))
            d = int(rng.integers(k, 6))
            basis = rng.standard_normal((k, d))
            target = rng.standard_normal(d)
            z = gram_nnls(basis, target)
            assert np.all(z >= 0)
            obj = float(np.sum((target - z @ basis) ** 2))
            _, best_obj = brute_force_nnls(basis, target)
            assert obj <= best_obj + 1e-8 * max(1.0, best_obj)

    def test_kkt_certificate_on_larger_problems(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            k = int(rng.integers(2, 9))
            d = int(rng.integers(2, 12))
            basis = rng.standard_normal((k, d))
            target = rng.standard_normal(d)
            z = gram_nnls(basis, target)
            assert np.all(z >= 0)
            grad = basis @ target - (basis @ basis.T) @ z
            scale = max(1.0, float(np.max(np.abs(basis @ target))))
            # Stationarity on the support, feasibility of the gradient off it.
            assert np.all(grad <= 1e-6 * scale)
            assert np.all(np.abs(grad[z > 0]) <= 1e-6 * scale)

    def test_duplicate_rows_do_not_cycle(self):
        basis = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        z = gram_nnls(basis, np.array([2.0, 3.0]))
        np.testing.assert_allclose(z @ basis, [2.0, 3.0], atol=1e-10)
        assert np.all(z >= 0)

    def test_iteration_cap_raises(self):
        basis = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(RuntimeError):
            nnls(basis @ basis.T, np.array([1.0, 1.0]), max_iter=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_right_hand_side_raises(self, bad):
        with pytest.raises(ValueError, match="finite"):
            nnls(np.eye(3), np.array([1.0, bad, 0.5]))

    def test_shapes_checked(self):
        for gram, atb in ((np.eye(3), np.ones(2)), (np.ones((2, 3)), np.ones(2))):
            with pytest.raises(ValueError, match="incompatible shapes"):
                nnls(gram, atb)


class TestNnlsRows:
    def test_matches_single_row_solver(self):
        rng = np.random.default_rng(7)
        basis = rng.random((4, 9))
        targets = rng.standard_normal((12, 9))
        batch = solve_rows(basis, targets)
        for i in range(12):
            np.testing.assert_allclose(batch[i], gram_nnls(basis, targets[i]), atol=1e-9)
            np.testing.assert_allclose(batch[i], target_nnls(basis, targets[i]), atol=1e-9)

    def test_nonnegative_targets_reconstruct_exactly_in_span(self):
        rng = np.random.default_rng(8)
        basis = rng.random((3, 8))
        weights = rng.random((10, 3))
        targets = weights @ basis
        sol = solve_rows(basis, targets)
        np.testing.assert_allclose(sol @ basis, targets, atol=1e-8)

    def test_clipped_coordinates_match_enumeration_oracle(self, monkeypatch):
        calls = counting_scalar_solver(monkeypatch)
        rng = np.random.default_rng(9)
        for k in range(1, 7):
            for n_clip in range(1, k + 1):
                calls.clear()
                d = int(rng.integers(k, 32))
                basis = rng.random((k, d))
                clip = np.zeros((6, k), dtype=bool)
                for row in clip:
                    row[rng.choice(k, size=n_clip, replace=False)] = True
                z_want, targets = clipped_targets(
                    basis,
                    rng.uniform(0.2, 1.5, size=(6, k)),
                    clip,
                    rng.uniform(0.1, 1.0, size=(6, k)),
                )
                z = solve_rows(basis, targets)
                assert_kkt(basis, targets, z)
                np.testing.assert_allclose(z, z_want, atol=1e-9)
                assert np.array_equal(z == 0, clip)
                got = objective(basis, targets, z)
                for i in range(len(targets)):
                    _, best_obj = brute_force_nnls(basis, targets[i])
                    assert got[i] <= best_obj + 1e-9 * max(1.0, best_obj)
                # within the cap every row is solved by enumeration and certified
                assert bool(calls) == (k > NNLS_ENUM_MAX_K)

    def test_zero_and_negative_targets_give_exact_zeros(self):
        rng = np.random.default_rng(10)
        for k in range(1, 7):
            basis = rng.random((k, 31))
            targets = np.vstack([np.zeros((2, 31)), -rng.random((5, 31))])
            np.testing.assert_array_equal(solve_rows(basis, targets), 0.0)

    def test_duplicated_basis_row_matches_scalar_objective(self, monkeypatch):
        rng = np.random.default_rng(11)
        basis = rng.random((4, 9))
        basis = np.vstack([basis, basis[1]])  # rank 4 with 5 rows
        targets = rng.standard_normal((40, 9)) + rng.random((40, 5)) @ basis
        scalar = np.array([gram_nnls(basis, t) for t in targets])
        oracle = np.array([target_nnls(basis, t) for t in targets])
        calls = counting_scalar_solver(monkeypatch)
        z = solve_rows(basis, targets)
        assert not calls
        assert_kkt(basis, targets, z)
        for other in (scalar, oracle):
            np.testing.assert_allclose(
                objective(basis, targets, z),
                objective(basis, targets, other),
                rtol=1e-10,
                atol=1e-12,
            )

    def test_gram_that_rounds_singular_matches_scalar_objective(self):
        # independent rows (sigma_min ~ 7e-10), but the Gram rounds to [[1,1],[1,1]]
        basis = np.array([[1.0, 0.0], [1.0, 1e-9]])
        targets = np.array([[1.0, -1.0], [0.5, 0.5], [2.0, 1e-9], [1.0, 2.0], [-1.0, 1.0]])
        z = solve_rows(basis, targets)
        assert np.all(z >= 0)
        for solver in (gram_nnls, target_nnls):
            other = np.array([solver(basis, t) for t in targets])
            np.testing.assert_allclose(
                objective(basis, targets, z), objective(basis, targets, other), atol=1e-12
            )

    def test_singular_layer_leaves_its_rows_to_the_scalar_solver(self, monkeypatch):
        rng = np.random.default_rng(14)
        # integer entries keep the Gram exact, so every sub-Gram holding the
        # duplicated rows 0 and 3 is exactly singular and its layer's inversion
        # raises once the rank test passes every support
        basis = rng.integers(0, 4, size=(3, 7)).astype(float)
        basis = np.vstack([basis, basis[0]])
        targets = rng.standard_normal((30, 7))
        want = objective(basis, targets, solve_rows(basis, targets))
        monkeypatch.setattr(np.linalg, "matrix_rank", lambda a, hermitian: len(a))
        built = recorded_layers(monkeypatch)
        calls = counting_scalar_solver(monkeypatch)
        z = solve_rows(basis, targets)
        # built once; only the size-1 layer inverts, every larger one holds 0 and 3
        assert [[idx.shape[1] for idx, _ in layer] for layer in built] == [[1]]
        assert calls
        assert_kkt(basis, targets, z, support_tol=1e-6)
        np.testing.assert_allclose(objective(basis, targets, z), want, atol=1e-12)

    def test_basis_above_cap_uses_scalar_solver(self, monkeypatch):
        rng = np.random.default_rng(12)
        k = NNLS_ENUM_MAX_K + 1
        basis = rng.random((k, 31))
        targets = rng.standard_normal((8, 31))
        gram, rhs = basis @ basis.T, rhs_of(basis, targets)
        unconstrained = np.linalg.solve(gram, rhs.T).T
        clipped = np.flatnonzero(np.any(unconstrained < 0, axis=1))
        calls = counting_scalar_solver(monkeypatch)
        z = nnls_rows(basis, rhs)
        assert len(calls) == len(clipped) > 0
        for i, atb in zip(clipped, calls):
            assert atb.tobytes() == rhs[i].tobytes()
            np.testing.assert_array_equal(z[i], nnls(gram, rhs[i]))

    def test_no_support_layers_past_the_cap(self, monkeypatch):
        # building them would enumerate 2^k - 1 supports
        def refuse(gram):
            raise AssertionError(f"support layers built for a basis of {len(gram)}")

        monkeypatch.setattr(linalg, "_support_layers", refuse)
        calls = counting_scalar_solver(monkeypatch)
        rng = np.random.default_rng(17)
        basis = rng.random((NNLS_ENUM_MAX_K + 1, 31))
        targets = rng.standard_normal((40, 31))
        z = solve_rows(basis, targets)
        assert calls
        assert_kkt(basis, targets, z, support_tol=1e-6)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("k", [2, NNLS_ENUM_MAX_K + 1])
    def test_non_finite_right_hand_side_raises(self, bad, k):
        rng = np.random.default_rng(15)
        basis = rng.random((k, 7))
        rhs = rhs_of(basis, rng.standard_normal((5, 7)))
        rhs[3, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            nnls_rows(basis, rhs)

    def test_shapes_checked(self):
        for rhs in (np.ones((4, 2)), np.ones(3)):
            with pytest.raises(ValueError, match="incompatible shapes"):
                nnls_rows(np.ones((3, 5)), rhs)

    @pytest.mark.parametrize("k", [3, NNLS_ENUM_MAX_K + 1])
    def test_rows_past_the_cap_solve_block_by_block(self, k, monkeypatch):
        # the one row cap left: cbc featurizes a relit case in one call
        assert BATCH_ROWS == 2048 and not hasattr(cbc, "BATCH_ROWS")
        rng = np.random.default_rng(16)
        basis = rng.random((k, 31))
        n = 2 * BATCH_ROWS + 300
        rhs = rhs_of(basis, rng.standard_normal((n, 31)) + rng.random((n, k)) @ basis)
        enumerated = []
        enumerate_supports = linalg._enumerate_supports

        def recorded(sub, layers):
            enumerated.append((len(sub), layers))
            return enumerate_supports(sub, layers)

        monkeypatch.setattr(linalg, "_enumerate_supports", recorded)
        built = recorded_layers(monkeypatch)
        z = nnls_rows(basis, rhs)
        monkeypatch.undo()
        assert 0 < np.count_nonzero(np.any(z == 0, axis=1)) < n  # some rows clip
        # within the enumeration cap, one enumeration per block, of that block's
        # rows, all on the one set of layers built for the call
        assert len(enumerated) == (3 if k <= NNLS_ENUM_MAX_K else 0)
        assert len(built) == (1 if k <= NNLS_ENUM_MAX_K else 0)
        assert all(0 < m <= BATCH_ROWS and layers is built[0] for m, layers in enumerated)
        blocks = [nnls_rows(basis, rhs[s : s + BATCH_ROWS]) for s in range(0, n, BATCH_ROWS)]
        assert [len(b) for b in blocks] == [BATCH_ROWS, BATCH_ROWS, 300]
        assert z.tobytes() == np.concatenate(blocks).tobytes()


@st.composite
def nnls_batches(draw):
    """A basis (k <= 6, d <= 31), up to 300 targets and a row permutation.

    Half the draws put every entry on a coarse dyadic grid, so that exact
    ties, zero and duplicated rows and dependent supports come up often;
    batches this large also reach the blocked, multi-threaded BLAS kernels.
    """
    k = draw(st.integers(1, 6))
    d = draw(st.integers(1, 31))
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        basis = rng.integers(-8, 9, size=(k, d)) / 4.0
        targets = rng.integers(-8, 9, size=(n, d)) / 4.0
    else:
        basis = rng.standard_normal((k, d))
        targets = rng.standard_normal((n, d))
    return basis, targets, rng.permutation(n)


@st.composite
def fallback_batches(draw):
    """A k = 6 basis, above the enumeration cap, and up to 60 targets: every
    row the fast path leaves goes to the scalar solver. Half the bases are
    dependent: rank 1..5 products of dyadic factors, so the Gram and its
    singular sub-Grams are exact."""
    k, d = 6, draw(st.integers(2, 31))
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        rank = draw(st.integers(1, 5))
        basis = (rng.integers(-4, 5, size=(k, rank)) / 2.0) @ (
            rng.integers(-4, 5, size=(rank, d)) / 2.0
        )
    else:
        basis = rng.standard_normal((k, d))
    return basis, rng.standard_normal((n, d))


class TestNnlsRowsProperties:
    @settings(max_examples=100, deadline=None)
    @given(nnls_batches())
    def test_feasible_certified_and_no_worse_than_scalar(self, batch):
        basis, targets, _ = batch
        z = solve_rows(basis, targets)
        assert_kkt(basis, targets, z, support_tol=1e-6)
        scalar = np.array([gram_nnls(basis, t) for t in targets])
        scale = np.maximum(1.0, np.sum(targets**2, axis=1))
        got = objective(basis, targets, z)
        assert np.all(got <= objective(basis, targets, scalar) + 1e-9 * scale)

    @settings(max_examples=300, deadline=None)
    @given(nnls_batches())
    def test_permuting_rows_permutes_solutions_bitwise(self, batch):
        basis, targets, perm = batch
        np.testing.assert_array_equal(
            solve_rows(basis, targets[perm]), solve_rows(basis, targets)[perm]
        )

    @settings(max_examples=100, deadline=None)
    @given(nnls_batches())
    def test_enumerated_rows_do_not_depend_on_their_batch(self, batch):
        basis, targets, _ = batch
        rhs = rhs_of(basis, targets)
        layers = linalg._support_layers(basis @ basis.T)
        z = linalg._enumerate_supports(rhs, layers)
        for i in range(len(rhs)):
            alone = linalg._enumerate_supports(rhs[i : i + 1], layers)
            assert alone.tobytes() == z[i : i + 1].tobytes()

    @settings(max_examples=100, deadline=None)
    @given(fallback_batches())
    def test_scalar_fallback_matches_the_target_form_oracle(self, batch):
        # each row that reaches the Gram-form scalar solver, checked against
        # the target-form Lawson-Hanson on its own target
        basis, targets = batch
        rhs = rhs_of(basis, targets)
        with pytest.MonkeyPatch.context() as patch:
            calls = counting_scalar_solver(patch)
            z = nnls_rows(basis, rhs)
        rows = [int(np.flatnonzero((rhs == atb).all(axis=1))[0]) for atb in calls]
        oracle = np.array([target_nnls(basis, targets[i]) for i in rows]).reshape(-1, 6)
        assert_kkt(basis, targets[rows], z[rows], support_tol=1e-6)
        scale = np.maximum(1.0, np.sum(targets[rows] ** 2, axis=1))
        got = objective(basis, targets[rows], z[rows])
        want = objective(basis, targets[rows], oracle)
        assert np.all(np.abs(got - want) <= 1e-9 * scale)
