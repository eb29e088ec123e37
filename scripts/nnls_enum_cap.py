"""Measure batched NNLS support enumeration against the scalar solver.

Run from the repository root:  python scripts/nnls_enum_cap.py [--rows N]

Targets are smooth random spectra (31 bands, L1-normalised like the
chromaticities the nnmf projection encodes); each basis is an NNMF fit of
2,000 of them. For k = 4..10 the script times `nnls_rows` on the right-hand
sides V . t of the rows the unconstrained fast path leaves, once by support
enumeration (NNLS_ENUM_MAX_K raised to k) and once by the Gram-form scalar
Lawson-Hanson solver (NNLS_ENUM_MAX_K set to 0), and checks that the two
reach the same objective. The last column is the traced peak memory of
solving one large batch, above the batch itself, which `nnls_rows`
overwrites with its solutions. It enumerates the batch in blocks of
BATCH_ROWS rows, so the peak grows with the largest support layer of one block (about
C(k, k/2) * k/2 floats a row), not with the batch.
"""

from __future__ import annotations

import argparse
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from illumest import linalg  # noqa: E402
from illumest.projections import nnmf_factorize  # noqa: E402

BANDS = 31


def smooth_spectra(rng: np.random.Generator, n: int) -> np.ndarray:
    """n spectra, each a sum of four Gaussian bumps plus a little noise."""
    wl = np.linspace(0.0, 1.0, BANDS)
    centers = rng.uniform(0.0, 1.0, (n, 4, 1))
    widths = rng.uniform(0.05, 0.3, (n, 4, 1))
    heights = rng.random((n, 4, 1))
    x = np.sum(heights * np.exp(-((wl - centers) ** 2) / (2 * widths**2)), axis=1)
    x += 0.02 * rng.random((n, BANDS))
    return x / x.sum(axis=1, keepdims=True)


def rhs_of(v: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """targets @ v.T by the fixed-order einsum `Projection.apply_rows` uses."""
    return np.einsum("nd,kd->nk", targets, v)


def timed(fn, *args) -> tuple[float, np.ndarray]:
    start = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - start, out


def traced_peak_mib(fn, *args) -> float:
    tracemalloc.start()
    fn(*args)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak / 2**20


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=1024, help="batch for the time table")
    parser.add_argument("--big-rows", type=int, default=16384, help="batch for the memory table")
    args = parser.parse_args()
    rng = np.random.default_rng(0)
    train = smooth_spectra(rng, 2000)
    targets = smooth_spectra(rng, args.rows)
    big = smooth_spectra(rng, args.big_rows)
    cap = linalg.NNLS_ENUM_MAX_K
    print(
        f"input of the memory column: {big.nbytes / 2**20:.1f} MiB of targets, "
        f"solved in blocks of {linalg.BATCH_ROWS} rows"
    )
    print(
        f"{'k':>2} {'clipped':>8} {'enum ms':>9} {'scalar ms':>10} {'ratio':>6} "
        f"{'obj diff':>9} {'peak MiB':>9}"
    )
    for k in range(4, 11):
        v = nnmf_factorize(train, k, seed=0)[1]
        unconstrained = np.linalg.solve(v @ v.T, v @ targets.T).T
        clipped = targets[np.any(unconstrained < 0, axis=1)]
        rhs, big_rhs = rhs_of(v, clipped), rhs_of(v, big)
        linalg.NNLS_ENUM_MAX_K = k
        t_enum, z_enum = timed(linalg.nnls_rows, v, rhs.copy())  # solved over its rhs
        peak = traced_peak_mib(linalg.nnls_rows, v, big_rhs)
        linalg.NNLS_ENUM_MAX_K = 0
        t_scalar, z_scalar = timed(linalg.nnls_rows, v, rhs)
        linalg.NNLS_ENUM_MAX_K = cap
        obj = [np.sum((clipped - z @ v) ** 2, axis=1) for z in (z_enum, z_scalar)]
        print(
            f"{k:>2} {len(clipped):>8} {t_enum * 1e3:>9.1f} {t_scalar * 1e3:>10.1f} "
            f"{t_scalar / t_enum:>6.1f} {np.max(obj[0] - obj[1]):>9.1e} {peak:>9.1f}"
        )


if __name__ == "__main__":
    main()
