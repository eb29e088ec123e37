"""Candidate illuminant sets and the clustered projection-set selection."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .io import FormatError, read_illuminant_manifest, read_spd_csv
from .spectral import SpectralAxis, Spectrum, require_same_axis


@dataclass
class Illuminant:
    """A named light source with a non-negative, not-all-zero SPD."""

    name: str
    spd: Spectrum

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("illuminant needs a non-empty name")
        v = self.spd.values
        if np.any(v < 0):
            raise ValueError(f"illuminant {self.name!r}: SPD must be non-negative")
        if v.sum() <= 0:
            raise ValueError(f"illuminant {self.name!r}: SPD is all zero")

    def normalized_spd(self) -> Spectrum:
        """SPD scaled to unit L1 norm."""
        v = self.spd.values
        return Spectrum(self.spd.axis, v / v.sum())


@dataclass
class IlluminantSet:
    """An ordered collection of candidates on a shared wavelength grid."""

    members: tuple[Illuminant, ...]

    def __post_init__(self) -> None:
        self.members = tuple(self.members)
        if not self.members:
            raise ValueError("illuminant set cannot be empty")
        axis = self.members[0].spd.axis
        for m in self.members[1:]:
            require_same_axis(axis, m.spd.axis, f"illuminant {m.name!r}")
        names = [m.name for m in self.members]
        if len(set(names)) != len(names):
            raise ValueError("illuminant names must be unique")

    @property
    def axis(self) -> SpectralAxis:
        return self.members[0].spd.axis

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __getitem__(self, i: int) -> Illuminant:
        return self.members[i]

    def names(self) -> list[str]:
        return [m.name for m in self.members]

    def index_of(self, name: str) -> int:
        for i, m in enumerate(self.members):
            if m.name == name:
                return i
        raise KeyError(f"no illuminant named {name!r}")

    def spd_matrix(self) -> np.ndarray:
        """Raw SPDs stacked as rows, (n_members, bands)."""
        return np.stack([m.spd.values for m in self.members])

    def chromaticity_matrix(self) -> np.ndarray:
        """L1-normalized SPDs (`normalized_spd`) stacked as rows."""
        return np.stack([m.normalized_spd().values for m in self.members])

    def subset(self, names: Sequence[str]) -> "IlluminantSet":
        """Members with the given names, kept in this set's order."""
        wanted = set(names)
        missing = wanted - set(self.names())
        if missing:
            raise KeyError(f"names not in set: {sorted(missing)}")
        picked = tuple(m for m in self.members if m.name in wanted)
        return IlluminantSet(picked)


def load_illuminants(manifest_path) -> IlluminantSet:
    """Load a `path,name` manifest of single-column SPD CSVs."""
    entries = read_illuminant_manifest(manifest_path)
    members = []
    for csv_path, name in entries:
        axis, values = read_spd_csv(csv_path)
        if members and axis != members[0].spd.axis:
            raise FormatError(
                f"{manifest_path}: {csv_path}: grid [{axis}] does not match "
                f"[{members[0].spd.axis}] of {entries[0][0]}"
            )
        if values.shape[1] != 1:
            raise FormatError(
                f"{csv_path}: illuminant files need exactly 1 value column"
            )
        col = values[:, 0]
        neg = np.flatnonzero(col < 0)
        if neg.size:
            raise FormatError(f"{csv_path}:{neg[0] + 2}: negative SPD value")
        try:
            members.append(Illuminant(name, Spectrum(axis, col)))
        except ValueError as exc:  # an all-zero SPD
            raise FormatError(f"{csv_path}: {exc}") from exc
    return IlluminantSet(tuple(members))


# ---------------------------------------------------------------------------
# k-means (Lloyd + greedy seeding). Deterministic for a fixed seed: ties
# break to the lowest index and empty clusters are reseeded to the point
# farthest from its centroid.
# ---------------------------------------------------------------------------


def _sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - centers[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def _plus_plus_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = rng.integers(n)
    best = np.einsum("ij,ij->i", points - points[chosen[0]], points - points[chosen[0]])
    for c in range(1, k):
        total = float(best.sum())
        if total <= 0:
            # All remaining mass at distance zero (duplicates): take the
            # lowest-index point not yet chosen.
            taken = set(chosen[:c].tolist())
            nxt = next(i for i in range(n) if i not in taken)
            chosen[c] = nxt
        else:
            r = rng.random() * total
            cum = np.cumsum(best)
            chosen[c] = min(int(np.searchsorted(cum, r, side="right")), n - 1)
        d_new = np.einsum(
            "ij,ij->i", points - points[chosen[c]], points - points[chosen[c]]
        )
        best = np.minimum(best, d_new)
    return chosen


def _fix_empty(assign: np.ndarray, d2: np.ndarray, k: int) -> None:
    """Give every empty cluster the farthest point from a multi-member cluster."""
    n = assign.shape[0]
    for c in range(k):
        if not np.any(assign == c):
            counts = np.bincount(assign, minlength=k)
            movable = counts[assign] > 1
            cur = np.where(movable, d2[np.arange(n), assign], -np.inf)
            assign[int(np.argmax(cur))] = c


def kmeans(
    points: np.ndarray,
    k: int,
    seed: int,
    max_iter: int = 100,
) -> tuple[np.ndarray, np.ndarray]:
    """Cluster rows of `points` into k groups.

    Returns (assignments (n,), centroids (k, dim)). Assignments use the
    final centroids; every cluster is non-empty. Within-cluster squared
    distance never increases across Lloyd iterations.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError("points must be 2-D")
    n = pts.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}, got k={k}")
    rng = np.random.default_rng(seed)
    centers = pts[_plus_plus_init(pts, k, rng)].copy()
    assign = np.full(n, -1, dtype=np.int64)
    for _ in range(max_iter):
        d2 = _sq_dists(pts, centers)
        new_assign = np.argmin(d2, axis=1)
        _fix_empty(new_assign, d2, k)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for c in range(k):
            centers[c] = pts[assign == c].mean(axis=0)
    d2 = _sq_dists(pts, centers)
    assign = np.argmin(d2, axis=1)
    _fix_empty(assign, d2, k)
    return assign, centers


def select_projection_set(
    full_set: IlluminantSet, k: int = 10, seed: int = 0
) -> IlluminantSet:
    """Pick k spectrally spread members by clustering normalized SPDs.

    Clusters the L1-normalized SPDs with k-means and keeps, per cluster, the
    member closest to the centroid (lowest manifest index on ties). The
    result keeps the original ordering.
    """
    if len(full_set) < k:
        raise ValueError(f"cannot pick {k} from {len(full_set)} illuminants")
    feats = full_set.chromaticity_matrix()
    assign, centers = kmeans(feats, k, seed)
    picked_idx = []
    for c in range(k):
        members = np.flatnonzero(assign == c)
        d2 = np.einsum(
            "ij,ij->i", feats[members] - centers[c], feats[members] - centers[c]
        )
        picked_idx.append(int(members[int(np.argmin(d2))]))
    picked_idx = sorted(set(picked_idx))
    if len(picked_idx) != k:
        raise RuntimeError("clustering produced duplicate representatives")
    members = tuple(full_set[i] for i in picked_idx)
    return IlluminantSet(members)
