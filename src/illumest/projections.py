"""Low-dimensional spectral projections and their fitting routines.

Six families share one `Projection` type: fixed camera sensitivities, random
bases, data PCA, illuminant PCA, non-negative factorization, and supervised
discriminant directions. Each maps a d-dimensional chromaticity (or, for the
camera family, a raw radiance vector) to a d'-dimensional coordinate used
for histogram binning.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Optional

import numpy as np

from .illuminants import IlluminantSet
# `nnls` is not called here; it stays a module attribute because
# bench/spans.py traces the scalar solver at this site as well.
from .linalg import generalized_eig, nnls, nnls_rows, symmetric_eig  # noqa: F401
from .spectral import SensitivityFunctions

KIND_RGB = "rgb"
KIND_RAND = "rand"
KIND_PCA = "pca"
KIND_ILL_PCA = "ill_pca"
KIND_NNMF = "nnmf"
KIND_LDA = "lda"

ALL_KINDS = (KIND_RGB, KIND_RAND, KIND_PCA, KIND_ILL_PCA, KIND_NNMF, KIND_LDA)
_KIND_CODE = {kind: i for i, kind in enumerate(ALL_KINDS)}
_CODE_KIND = {i: kind for kind, i in _KIND_CODE.items()}

#: Kinds whose basis is stored with components in columns (d, d') and whose
#: application subtracts a stored mean first.
_CENTERED_KINDS = (KIND_PCA, KIND_ILL_PCA)

#: Kinds whose fit at d' leads with their fit at each smaller d' (`leading_projection`).
NESTED_KINDS = (KIND_RAND, KIND_PCA, KIND_ILL_PCA, KIND_LDA)

PROJ_MAGIC = b"PROJ1"

ROW_SUM_TOL = 1e-9
_ORTHO_TOL = 1e-8
_RANK_TOL = 1e-10
#: LDA's within-scatter shrinkage, relative to its mean variance.
_LDA_GAMMA_SCALE = 1e-6
#: The relative loss improvement at which an nnmf fit stops.
NNMF_TOL = 1e-9


@dataclass
class Projection:
    """A fitted spectral-dimension reducer.

    basis shape by kind: (output_dim, input_dim) for rgb/rand/nnmf/lda,
    (input_dim, output_dim) for the centered PCA kinds, which also carry a
    mean vector. `metadata` is a small JSON-serializable dict (seed, source
    counts, final loss, ...) preserved by the file format.
    """

    kind: str
    input_dim: int
    output_dim: int
    basis: np.ndarray
    mean: Optional[np.ndarray] = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in ALL_KINDS:
            raise ValueError(f"unknown projection kind {self.kind!r}")
        if self.output_dim < 1 or self.input_dim < 1:
            raise ValueError("dimensions must be positive")
        self.basis = np.asarray(self.basis, dtype=np.float64)
        if not np.all(np.isfinite(self.basis)):
            raise ValueError("basis must be finite")
        if self.kind in _CENTERED_KINDS:
            want = (self.input_dim, self.output_dim)
        else:
            want = (self.output_dim, self.input_dim)
        if self.basis.shape != want:
            raise ValueError(
                f"{self.kind} basis must have shape {want}, got {self.basis.shape}"
            )
        if self.kind == KIND_RGB and self.output_dim != 3:
            raise ValueError("rgb projections are 3-dimensional")
        if self.kind == KIND_NNMF and np.any(self.basis < 0):
            raise ValueError("nnmf basis must be non-negative")
        if self.kind in _CENTERED_KINDS:
            if self.mean is None:
                raise ValueError(f"{self.kind} projections need a mean vector")
            self.mean = np.asarray(self.mean, dtype=np.float64)
            if self.mean.shape != (self.input_dim,):
                raise ValueError(
                    f"mean must have shape ({self.input_dim},), got {self.mean.shape}"
                )
            if not np.all(np.isfinite(self.mean)):
                raise ValueError("mean must be finite")
            gram = self.basis.T @ self.basis
            if np.max(np.abs(gram - np.eye(self.output_dim))) > _ORTHO_TOL:
                raise ValueError(f"{self.kind} basis columns must be orthonormal")
        elif self.mean is not None:
            raise ValueError(f"{self.kind} projections do not carry a mean")

    @cached_property
    def columns(self) -> np.ndarray:
        """The basis as (input_dim, output_dim) columns, then a ones column for
        every kind but rgb: the [B | 1] that `cbc.pixel_features` multiplies
        rows by, made on first use and held with the projection."""
        columns = self.basis if self.mean is not None else self.basis.T
        if self.kind == KIND_RGB:
            return columns
        return np.hstack([columns, np.ones((len(columns), 1))])

    @cached_property
    def shift(self) -> Optional[np.ndarray]:
        """mean @ basis, which a centered kind's features subtract (None for
        the other kinds), made on first use and held with the projection."""
        return None if self.mean is None else self.mean @ self.basis

    @cached_property
    def digest(self) -> bytes:
        """sha256 of the projection's file bytes (32 bytes): what a model
        stores to name its projection, made once and held with it."""
        return hashlib.sha256(projection_to_bytes(self)).digest()

    def apply_rows(self, rows: np.ndarray) -> np.ndarray:
        """Project (N, input_dim) vectors to (N, output_dim) coordinates."""
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != self.input_dim:
            raise ValueError(
                f"expected (N, {self.input_dim}) input, got {rows.shape}"
            )
        if self.kind in _CENTERED_KINDS:
            return (rows - self.mean) @ self.basis
        if self.kind == KIND_NNMF:
            # einsum, unlike BLAS, sums a row in one order wherever it sits
            return nnls_rows(self.basis, np.einsum("nd,kd->nk", rows, self.basis))
        return rows @ self.basis.T


@dataclass
class TrainingMatrix:
    """Chromaticity samples as rows, optionally labelled for supervised fits.

    Every row is a unit-L1 non-negative vector (enforced to ROW_SUM_TOL).
    Labels, when present, are integer class codes 0..n_classes-1 with every
    class represented.
    """

    rows: np.ndarray
    labels: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.rows = np.asarray(self.rows, dtype=np.float64)
        if self.rows.ndim != 2 or self.rows.shape[0] < 1:
            raise ValueError("rows must be a non-empty 2-D array")
        if not np.all(np.isfinite(self.rows)):
            raise ValueError("rows must be finite")
        if np.any(self.rows < 0):
            raise ValueError("rows must be non-negative")
        sums = self.rows.sum(axis=1)
        worst = float(np.max(np.abs(sums - 1.0)))
        if worst > ROW_SUM_TOL:
            raise ValueError(
                f"rows must sum to 1 within {ROW_SUM_TOL}, worst deviation {worst:g}"
            )
        if self.labels is not None:
            labels = np.asarray(self.labels)
            if labels.shape != (self.rows.shape[0],):
                raise ValueError("labels must have one entry per row")
            if not np.issubdtype(labels.dtype, np.integer):
                raise ValueError("labels must be integers")
            uniq = np.unique(labels)
            if uniq[0] != 0 or not np.array_equal(uniq, np.arange(uniq.size)):
                raise ValueError("labels must be exactly the codes 0..n_classes-1")
            self.labels = labels.astype(np.int64)

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    @property
    def n_dims(self) -> int:
        return self.rows.shape[1]

    @property
    def n_classes(self) -> int:
        if self.labels is None:
            raise ValueError("training matrix has no labels")
        return int(self.labels.max()) + 1


def _fix_signs(columns: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive."""
    out = columns.copy()
    for j in range(out.shape[1]):
        i = int(np.argmax(np.abs(out[:, j])))
        if out[i, j] < 0:
            out[:, j] = -out[:, j]
    return out


def fit_rgb(sens: SensitivityFunctions) -> Projection:
    """Projection through fixed camera sensitivities (always 3 outputs)."""
    return Projection(
        kind=KIND_RGB,
        input_dim=sens.axis.count,
        output_dim=3,
        basis=sens.rows.copy(),
        metadata={"camera": sens.camera_name},
    )


def fit_rand(input_dim: int, output_dim: int, seed: int) -> Projection:
    """Seeded random basis with entries uniform on [-1, 1)."""
    if output_dim > input_dim:
        raise ValueError("output_dim cannot exceed input_dim")
    rng = np.random.default_rng(seed)
    basis = rng.uniform(-1.0, 1.0, size=(output_dim, input_dim))
    return Projection(
        kind=KIND_RAND,
        input_dim=input_dim,
        output_dim=output_dim,
        basis=basis,
        metadata={"seed": int(seed)},
    )


def covariance_components(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Mean and eigenvectors (in columns, eigenvalues descending) of the
    (N-1)-normalized sample covariance of rows x (N >= 2), and how many
    components it supports: those whose eigenvalue passes _RANK_TOL times the
    largest, none if no eigenvalue is positive."""
    mean = x.mean(axis=0)
    centered = x - mean
    evals, evecs = symmetric_eig(centered.T @ centered / (x.shape[0] - 1))
    supported = int(np.count_nonzero(evals > max(float(evals[0]), 0.0) * _RANK_TOL))
    return mean, evecs, supported


def _pca_core(x: np.ndarray, output_dim: int, kind: str, metadata: dict) -> Projection:
    n, d = x.shape
    if n < 2:
        raise ValueError("PCA needs at least two samples")
    if not 1 <= output_dim <= d:
        raise ValueError(f"need 1 <= output_dim <= {d}, got {output_dim}")
    mean, evecs, supported = covariance_components(x)
    if output_dim > supported:
        raise ValueError(
            f"sample covariance supports fewer than {output_dim} components"
        )
    basis = _fix_signs(evecs[:, :output_dim])
    return Projection(
        kind=kind,
        input_dim=d,
        output_dim=output_dim,
        basis=basis,
        mean=mean,
        metadata=metadata,
    )


def fit_pca(training: TrainingMatrix, output_dim: int) -> Projection:
    """Principal directions of centered chromaticity samples.

    Components come from the eigendecomposition of the (N-1)-normalized
    sample covariance; each is sign-fixed so its largest-magnitude entry is
    positive.
    """
    return _pca_core(
        training.rows, output_dim, KIND_PCA, {"n_rows": training.n_rows}
    )


def fit_ill_pca(candidates: IlluminantSet, output_dim: int) -> Projection:
    """PCA on the candidates' L1-normalized SPDs instead of image data."""
    x = candidates.chromaticity_matrix()
    return _pca_core(
        x, output_dim, KIND_ILL_PCA, {"n_illuminants": len(candidates)}
    )


def nnmf_factorize(
    x: np.ndarray,
    rank: int,
    seed: int = 0,
    max_iter: int = 300,
    tol: float = NNMF_TOL,
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Multiplicative-update factorization X ~ U V with U, V >= 0.

    Returns (U (n, rank), V (rank, d), losses) where losses[t] is the squared
    Frobenius reconstruction error before iteration t; the sequence is
    non-increasing. Iteration stops when the relative loss improvement drops
    to `tol` (finite, >= 0) or after `max_iter` rounds.

    losses[0] and losses[-1] are ||X - U V||^2 computed directly; those in
    between come from the Gram terms the V update forms, ||X||^2 -
    2 <U^T X, V> + <U^T U, V V^T> (Lee & Seung, NIPS 2001), and each lies
    within err = 4 (n + rank)(d + rank) eps (||X||^2 + ||U V||^2) of the direct
    value. A round whose Gram loss is at most err, or whose stopping margin is
    within err plus (1 + tol) times the previous loss's err of the threshold,
    takes the direct loss; so losses are non-negative, and a stopping decision
    can differ from the direct loss's only where that margin is within
    (1 + tol) times the previous loss's err of the threshold.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or not np.all(np.isfinite(x)) or np.any(x < 0):
        raise ValueError("x must be a finite, non-negative 2-D array")
    n, d = x.shape
    if not 1 <= rank <= min(n, d):
        raise ValueError(f"need 1 <= rank <= {min(n, d)}, got {rank}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    tiny = np.finfo(np.float64).tiny
    rng = np.random.default_rng(seed)
    amp = float(np.sqrt(max(x.mean(), tiny) / rank))
    u = rng.random((n, rank)) * amp
    v = rng.random((rank, d)) * amp
    guard = 1e-9  # keeps multiplicative denominators away from zero
    # numpy's own sums, not BLAS dots: their order, and so the losses the
    # stopping rule reads, must not depend on the BLAS thread count
    xx = float(np.sum(np.square(x)))
    err_scale = 4 * (n + rank) * (d + rank) * np.finfo(np.float64).eps

    def direct() -> float:
        return float(np.sum(np.square(x - u @ v)))

    losses, err = [direct()], 0.0  # err bounds losses[-1]'s distance to direct()
    for _ in range(max_iter):
        u *= (x @ v.T) / (u @ (v @ v.T) + guard)
        utx, utu = u.T @ x, u.T @ u
        v *= utx / (utu @ v + guard)
        uvuv = float(np.vdot(utu, v @ v.T))
        loss = xx - 2.0 * float(np.vdot(utx, v)) + uvuv
        prev, prev_err, err = losses[-1], err, err_scale * (xx + uvuv)
        margin = prev - loss - tol * max(prev, tiny)
        if loss <= err or abs(margin) <= err + (1.0 + tol) * prev_err:
            loss, err = direct(), 0.0
        losses.append(loss)
        if prev - loss <= tol * max(prev, tiny):
            break
    losses[-1] = direct()
    return u, v, losses


def fit_nnmf(
    training: TrainingMatrix, output_dim: int, seed: int = 0, max_iter: int = 300
) -> Projection:
    """Non-negative basis from multiplicative updates (to NNMF_TOL); encoding solves NNLS."""
    _, v, losses = nnmf_factorize(training.rows, output_dim, seed=seed, max_iter=max_iter)
    return Projection(
        kind=KIND_NNMF,
        input_dim=training.n_dims,
        output_dim=output_dim,
        basis=v,
        metadata={
            "seed": int(seed),
            "iterations": len(losses) - 1,
            "final_loss": losses[-1],
        },
    )


def fit_lda(training: TrainingMatrix, output_dim: int) -> Projection:
    """Supervised directions separating the labelled illuminant classes.

    Solves the generalized eigenproblem of between-class scatter against
    shrinkage-regularized within-class scatter (gamma shrinkage scaled by
    mean within-scatter variance). output_dim is capped by n_classes - 1.
    """
    if training.labels is None:
        raise ValueError("LDA needs a labelled training matrix")
    k = training.n_classes
    if k < 2:
        raise ValueError("LDA needs at least two classes")
    if not 1 <= output_dim <= k - 1:
        raise ValueError(f"need 1 <= output_dim <= {k - 1}, got {output_dim}")
    x, labels = training.rows, training.labels
    d = training.n_dims
    mean = x.mean(axis=0)
    s_within = np.zeros((d, d))
    s_between = np.zeros((d, d))
    for c in range(k):
        xc = x[labels == c]
        mc = xc.mean(axis=0)
        centered = xc - mc
        s_within += centered.T @ centered
        offset = (mc - mean)[:, None]
        s_between += xc.shape[0] * (offset @ offset.T)
    base = float(np.trace(s_within)) / d
    gamma = _LDA_GAMMA_SCALE * (base if base > 0 else 1.0)
    evals, vecs = generalized_eig(s_between, s_within + gamma * np.eye(d))
    if evals[output_dim - 1] < -1e-8:
        raise ValueError("discriminant eigenvalues are not non-negative")
    w = vecs[:, :output_dim]
    w = w / np.linalg.norm(w, axis=0, keepdims=True)
    w = _fix_signs(w)
    return Projection(
        kind=KIND_LDA,
        input_dim=d,
        output_dim=output_dim,
        basis=w.T.copy(),
        metadata={"n_classes": k, "gamma": gamma},
    )


def leading_projection(proj: Projection, k: int) -> Projection:
    """The first k components of a nested kind's fit (basis columns of a
    centered kind, rows otherwise; `proj` itself at k = output_dim). A fit at
    d' = k is this bit for bit, but lda's at k = 1 may differ in the last bit:
    `np.linalg.norm` sums its lone column in another order."""
    if proj.kind not in NESTED_KINDS or not 1 <= k <= proj.output_dim:
        raise ValueError(f"no leading {k} components of a {proj.output_dim}-D {proj.kind} fit")
    basis = proj.basis[:, :k] if proj.mean is not None else proj.basis[:k]
    return proj if k == proj.output_dim else replace(proj, output_dim=k, basis=basis.copy())


# ---------------------------------------------------------------------------
# .proj serialization
#
# magic "PROJ1", u8 kind code, u32 input_dim, u32 output_dim, u8 has_mean
# (+ input_dim f64 means), basis as row-major f64 in the kind's natural
# shape, then sorted-key JSON metadata to end of file. Little-endian.
# ---------------------------------------------------------------------------


def projection_to_bytes(proj: Projection) -> bytes:
    head = PROJ_MAGIC + struct.pack(
        "<BIIB",
        _KIND_CODE[proj.kind],
        proj.input_dim,
        proj.output_dim,
        0 if proj.mean is None else 1,
    )
    parts = [head]
    if proj.mean is not None:
        parts.append(proj.mean.astype("<f8", copy=False).tobytes())
    parts.append(np.ascontiguousarray(proj.basis, dtype="<f8").tobytes())
    metadata = json.dumps(proj.metadata, sort_keys=True, separators=(",", ":"), allow_nan=False)
    parts.append(metadata.encode("utf-8"))
    return b"".join(parts)


def _reject_constant(name: str):
    """JSON's non-standard NaN and infinities, which no written file holds."""
    raise ValueError(f"non-finite constant {name}")


def projection_from_bytes(blob: bytes, source: str = "<bytes>") -> Projection:
    from .io import FormatError

    if len(blob) < 5 or blob[:5] != PROJ_MAGIC:
        raise FormatError(f"{source}: not a projection file (bad magic)")
    if len(blob) < 5 + 10:
        raise FormatError(f"{source}: truncated header")
    code, input_dim, output_dim, has_mean = struct.unpack_from("<BIIB", blob, 5)
    if code not in _CODE_KIND:
        raise FormatError(f"{source}: unknown projection kind code {code}")
    kind = _CODE_KIND[code]
    offset = 5 + 10
    mean = None
    if has_mean:
        end = offset + 8 * input_dim
        if len(blob) < end:
            raise FormatError(f"{source}: truncated mean vector")
        mean = np.frombuffer(blob, dtype="<f8", count=input_dim, offset=offset).copy()
        offset = end
    if kind in _CENTERED_KINDS:
        shape = (input_dim, output_dim)
    else:
        shape = (output_dim, input_dim)
    count = shape[0] * shape[1]
    end = offset + 8 * count
    if len(blob) < end:
        raise FormatError(f"{source}: truncated basis")
    basis = np.frombuffer(blob, dtype="<f8", count=count, offset=offset).reshape(shape)
    tail = blob[end:]
    try:
        metadata = json.loads(tail.decode("utf-8"), parse_constant=_reject_constant) if tail else {}
    except (ValueError, RecursionError) as exc:  # undecodable, malformed, non-finite or too deep
        raise FormatError(f"{source}: bad metadata block: {exc}") from exc
    if not isinstance(metadata, dict):
        raise FormatError(f"{source}: metadata must be a JSON object")
    try:
        return Projection(
            kind=kind,
            input_dim=input_dim,
            output_dim=output_dim,
            basis=basis.copy(),
            mean=mean,
            metadata=metadata,
        )
    except ValueError as exc:
        raise FormatError(f"{source}: {exc}") from exc


def write_projection(path, proj: Projection) -> None:
    Path(path).write_bytes(projection_to_bytes(proj))


def read_projection(path) -> Projection:
    path = Path(path)
    return projection_from_bytes(path.read_bytes(), source=str(path))

