"""Dense linear algebra used by the projection fitters.

`symmetric_eig` and `generalized_eig` wrap library eigensolvers behind a
fixed contract (descending eigenvalues, checked symmetry, B-orthonormal
generalized eigenvectors). NNLS sees only the Gram V V^T of a basis V and
right-hand sides V . t: `nnls` is Lawson-Hanson for one of them, in the Gram
form of Bro & De Jong's FNNLS. `nnls_rows` solves blocks of BATCH_ROWS rows
without looping over rows: a LAPACK normal-equations fast path, whose rows
depend on their block, then, for up to NNLS_ENUM_MAX_K basis vectors, exact
enumeration of every independent support by sub-Gram inverses made once a
call (Van Benthem & Keenan, J. Chemometrics 2004), whose rows depend only on
themselves. Every enumerated row is certified by the KKT conditions; rows
that fail it, or every row when the basis passes the cap, reach `nnls`.
"""

from __future__ import annotations

import itertools
from typing import Optional

import numpy as np

#: Absolute scale for the symmetry check in symmetric_eig.
SYMMETRY_TOL = 1e-10

#: KKT tolerance for the active-set solver: a solution is accepted when every
#: inactive coordinate has gradient <= KKT_TOL * max(1, |A^T b|_inf).
KKT_TOL = 1e-8

#: Largest basis size whose supports nnls_rows enumerates (2^k - 1 of them);
#: above it the rows the fast path leaves go to the scalar solver. It covers
#: the d' = 1..5 that the experiments use, where a row needs at most 30
#: floats of per-support solutions, so enumeration memory stays a small
#: multiple of the batch's. scripts/nnls_enum_cap.py measures larger k.
NNLS_ENUM_MAX_K = 5

#: Most rows one `nnls_rows` block takes. Fast-path rows depend on their
#: block, so this cap is part of what fixes nnmf features' bytes.
BATCH_ROWS = 2048


def symmetric_eig(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    Returns (eigenvalues, eigenvectors) with eigenvectors in columns,
    orthonormal, ordered to match the descending eigenvalues. Raises if the
    input is not square or not symmetric within SYMMETRY_TOL (relative to
    the largest entry magnitude, floored at 1).
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix must be finite")
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 0.0)
    if float(np.max(np.abs(a - a.T))) > SYMMETRY_TOL * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    sym = (a + a.T) / 2.0
    evals, evecs = np.linalg.eigh(sym)
    return evals[::-1].copy(), evecs[:, ::-1].copy()


def generalized_eig(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve A v = w B v for symmetric A and symmetric positive-definite B.

    Returns (eigenvalues descending, eigenvectors in columns) with the
    eigenvectors B-orthonormal: V^T B V = I. Implemented by Cholesky
    whitening: with B = L L^T, the problem becomes the ordinary symmetric
    problem (L^-1 A L^-T) y = w y and v = L^-T y.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    try:
        chol = np.linalg.cholesky(b)
    except np.linalg.LinAlgError as exc:
        raise ValueError("B must be symmetric positive definite") from exc
    # M = L^-1 A L^-T via two triangular solves.
    half = np.linalg.solve(chol, a)
    whitened = np.linalg.solve(chol, half.T).T
    evals, y = symmetric_eig(whitened)
    vecs = np.linalg.solve(chol.T, y)
    return evals, vecs


def nnls(gram: np.ndarray, atb: np.ndarray, max_iter: Optional[int] = None) -> np.ndarray:
    """Non-negative least squares from Gram terms: argmin_{z >= 0} || t - z @ V ||^2.

    `gram` is the (k, k) V V^T of a (k, d) basis V, `atb` the (k,) V @ t, and
    the result z is (k,). Lawson-Hanson in the Gram form of FNNLS (Bro & De
    Jong, J. Chemometrics 11(5), 1997): grow the passive set P by the most
    violated gradient coordinate, solve G[P,P] z = atb[P] by least squares,
    and step back along the segment to the feasible region when that goes
    negative. Terminates when the KKT conditions hold to KKT_TOL.
    """
    g = np.asarray(gram, dtype=np.float64)
    atb = np.asarray(atb, dtype=np.float64)
    if atb.ndim != 1 or g.shape != (len(atb), len(atb)):
        raise ValueError(f"incompatible shapes {g.shape} and {atb.shape}")
    if not np.all(np.isfinite(g)):
        raise ValueError("Gram must be finite")
    if not np.all(np.isfinite(atb)):
        raise ValueError("right-hand side must be finite")
    k = len(atb)
    tol = KKT_TOL * max(1.0, float(np.max(np.abs(atb))) if k else 1.0)

    z = np.zeros(k)
    passive = np.zeros(k, dtype=bool)
    # Anti-cycling: coordinates that entered the passive set but were clipped
    # straight back out stay blocked until z actually moves.
    blocked = np.zeros(k, dtype=bool)

    for _ in range(3 * k + 30 if max_iter is None else max_iter):
        grad = atb - g @ z
        candidates = ~passive & ~blocked & (grad > tol)
        if not np.any(candidates):
            return z
        j = int(np.argmax(np.where(candidates, grad, -np.inf)))
        passive[j] = True
        changed = False
        # Inner loop: solve on the passive set, clip back while infeasible.
        while np.any(passive):
            idx = np.flatnonzero(passive)
            sub, *_ = np.linalg.lstsq(g[idx[:, None], idx], atb[idx], rcond=None)
            if np.all(sub > 0):
                z = np.zeros(k)
                z[idx] = sub
                changed = True
                break
            cur = z[idx]
            bad = sub <= 0
            denom = cur - sub  # >= 0 wherever bad; == 0 only when cur == sub == 0
            with np.errstate(divide="ignore", invalid="ignore"):
                raw = cur / denom
            steps = np.where(bad, np.where(denom > 0, raw, 0.0), np.inf)
            alpha = float(np.min(steps))
            if alpha > 0:
                changed = True
            new_vals = cur + alpha * (sub - cur)
            new_vals[steps <= alpha] = 0.0  # binding coordinates hit zero exactly
            z = np.zeros(k)
            z[idx] = np.maximum(new_vals, 0.0)
            drop = idx[z[idx] <= 0]
            z[drop] = 0.0
            passive[drop] = False
        if changed:
            blocked[:] = False
        else:
            blocked[j] = True
    raise RuntimeError("nnls: iteration cap exceeded without reaching KKT conditions")


def _support_layers(gram: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The supports with a regular sub-Gram and the inverses of those sub-Grams.

    One layer per support size: the index arrays (n_supports, size) of its
    supports in lexicographic order and the (n_supports, size, size) inverses
    of their sub-Grams G[S,S]. Regularity is judged by `np.linalg.matrix_rank`
    on the sub-Gram, not on the basis rows: the Gram's condition number is the
    square of theirs, so independent rows can still give a sub-Gram that
    rounds to singular. Some optimal NNLS solution always has an independent
    support, so dropping dependent ones loses nothing; a row whose optimum
    needs a support dropped only for rounding fails the certificate in
    `nnls_rows`. When the whole Gram has full rank every sub-Gram does too
    (its eigenvalues interlace), and no subset check runs. A layer whose
    inversion raises, a sub-Gram that passed the rank test but not the LU
    pivots, is left out; rows that needed it fail the certificate too.
    """
    k = gram.shape[0]
    full_rank = np.linalg.matrix_rank(gram, hermitian=True) == k
    out = []
    for size in range(1, k + 1):
        idx = np.array(list(itertools.combinations(range(k), size)), dtype=np.intp)
        sub = gram[idx[:, :, None], idx[:, None, :]]
        if not full_rank:
            regular = np.linalg.matrix_rank(sub, hermitian=True) == size
            idx, sub = idx[regular], sub[regular]
        if len(idx):
            try:
                out.append((idx, np.linalg.inv(sub)))
            except np.linalg.LinAlgError:
                continue
    return out


def _enumerate_supports(
    rhs: np.ndarray, layers: list[tuple[np.ndarray, np.ndarray]]
) -> np.ndarray:
    """Exact NNLS for every row of `rhs` (m, k) = targets @ basis.T.

    For each support S of the `_support_layers`, all of its rows at once take
    z = G[S,S]^-1 rhs[:, S]. A feasible solution (z > 0) is stationary on S,
    so its objective relative to |target|^2 is -z . rhs[S]; the empty support
    scores 0, and each row keeps the lowest score, the first found on ties.
    Both sums are accumulated term by term in a fixed order, not by BLAS, so
    a row's result depends only on that row.
    """
    m, k = rhs.shape
    rows = np.arange(m)
    best = np.zeros((m, k))
    best_obj = np.zeros(m)
    for idx, inv in layers:
        sub_rhs = rhs.T[idx]  # (n_supports, size, m)
        z = inv[:, :, :1] * sub_rhs[:, None, 0]
        for j in range(1, idx.shape[1]):
            z += inv[:, :, j, None] * sub_rhs[:, None, j]
        obj = -z[:, 0] * sub_rhs[:, 0]
        for j in range(1, idx.shape[1]):
            obj -= z[:, j] * sub_rhs[:, j]
        obj[~np.all(z > 0, axis=1)] = np.inf
        pick = np.argmin(obj, axis=0)
        better = obj[pick, rows] < best_obj
        r, p = rows[better], pick[better]
        best[r] = 0.0
        best[r[:, None], idx[p]] = z[p, :, r]
        best_obj[r] = obj[p, r]
    return best


def nnls_rows(basis: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Row-wise NNLS from right-hand sides: row i is nnls(V V^T, rhs[i]) for
    the (k, d) `basis` V and the (n, k) `rhs` = targets @ V^T.

    Consecutive blocks of at most BATCH_ROWS rows are solved each on its own,
    from a copy of the block's rows. In a block, any row whose unconstrained
    normal-equations solution is non-negative takes it; that LAPACK solve
    rounds a row by its block. With at most NNLS_ENUM_MAX_K basis vectors the
    other rows are solved exactly from fixed-order products with the
    sub-Gram inverses of every regular support, made once a call
    (`_support_layers`, `_enumerate_supports`), so an enumerated row depends
    only on itself. It must then pass the KKT certificate, with tol = KKT_TOL
    * max(1, |rhs row|_inf): |gradient| <= tol on the support and gradient
    <= tol off it. Rows that fail it, and every remaining row when the basis
    exceeds the cap, go to the scalar `nnls`.

    The solutions are written over `rhs` when it is a writable float64
    ndarray, block by block, and returned; pass a copy to keep it. Besides rhs
    a call holds one block's copy, its solutions and the support layers, so
    it adds nothing that grows with n. A non-finite basis or rhs raises
    ValueError.
    """
    v = np.asarray(basis, dtype=np.float64)
    b = np.require(rhs, np.float64, "WE")  # the ndarray the solutions go to
    if v.ndim != 2 or b.ndim != 2 or b.shape[1] != v.shape[0]:
        raise ValueError(f"incompatible shapes {v.shape} and {b.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("basis must be finite")
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand sides must be finite")
    gram, layers = v @ v.T, None
    for start in range(0, len(b), BATCH_ROWS):
        block = b[start : start + BATCH_ROWS].copy()  # z overwrites these rows
        z = b[start : start + BATCH_ROWS]
        pending = np.arange(len(block))
        try:
            candidate = np.linalg.solve(gram, block.T).T
        except np.linalg.LinAlgError:  # a singular Gram: no fast path
            pass
        else:
            ok = np.all(candidate >= 0, axis=1)
            z[ok] = candidate[ok]
            pending = pending[~ok]
        if len(pending) and len(gram) <= NNLS_ENUM_MAX_K:
            layers = _support_layers(gram) if layers is None else layers
            sub = _enumerate_supports(block[pending], layers)
            z[pending] = sub
            grad = block[pending] - np.einsum("mj,jk->mk", sub, gram)
            tol = KKT_TOL * np.maximum(1.0, np.max(np.abs(block[pending]), axis=1))
            violation = np.where(sub > 0, np.abs(grad), grad)
            pending = pending[np.any(violation > tol[:, None], axis=1)]
        for i in pending:
            z[i] = nnls(gram, block[i])
    return b
