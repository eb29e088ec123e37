"""Target-form Lawson-Hanson NNLS: an oracle for the Gram-form solvers.

`linalg.nnls` and `linalg.nnls_rows` see only the Gram V V^T and the
right-hand side V . t. This solver works on the basis rows and the target
itself, solving each passive-set subproblem by least squares on the basis
columns, so it shares no subproblem arithmetic with them.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from illumest.linalg import KKT_TOL


def target_nnls(
    basis: np.ndarray,
    target: np.ndarray,
    max_iter: Optional[int] = None,
) -> np.ndarray:
    """Non-negative least squares: argmin_{z >= 0} || target - z @ basis ||^2.

    `basis` is (k, d), `target` is (d,), the result z is (k,). Lawson-Hanson
    active-set iteration: grow the passive set by the most violated gradient
    coordinate, solve the unconstrained subproblem on it, and step back along
    the segment to the feasible region when the subproblem goes negative.
    Terminates when the KKT conditions hold to KKT_TOL.
    """
    v = np.asarray(basis, dtype=np.float64)
    c = np.asarray(target, dtype=np.float64)
    if v.ndim != 2 or c.ndim != 1 or v.shape[1] != c.shape[0]:
        raise ValueError(f"incompatible shapes {v.shape} and {c.shape}")
    k = v.shape[0]
    if max_iter is None:
        max_iter = 3 * k + 30
    atb = v @ c
    gram = v @ v.T
    tol = KKT_TOL * max(1.0, float(np.max(np.abs(atb))) if k else 1.0)

    z = np.zeros(k)
    passive = np.zeros(k, dtype=bool)
    # Anti-cycling: coordinates that entered the passive set but were clipped
    # straight back out stay blocked until z actually moves.
    blocked = np.zeros(k, dtype=bool)

    for _ in range(max_iter):
        grad = atb - gram @ z
        candidates = ~passive & ~blocked & (grad > tol)
        if not np.any(candidates):
            return z
        j = int(np.argmax(np.where(candidates, grad, -np.inf)))
        passive[j] = True
        changed = False
        # Inner loop: solve on the passive set, clip back while infeasible.
        while np.any(passive):
            idx = np.flatnonzero(passive)
            sub, *_ = np.linalg.lstsq(v[idx].T, c, rcond=None)
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
