"""File formats: spectral cubes, SPD/sensitivity CSVs, and plain-text manifests.

All binary formats are little-endian and round-trip bit-exactly. Every float
written to a text format uses Python's shortest round-trip repr so repeated
runs produce byte-identical files.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .spectral import SensitivityFunctions, SpectralAxis, SpectralImage

SCUBE_MAGIC = b"SCUB1"


class FormatError(ValueError):
    """Raised when a file does not match its declared format."""


def format_float(x: float) -> str:
    """Shortest decimal string that round-trips to the same float64."""
    return repr(float(x))


# ---------------------------------------------------------------------------
# .scube: spectral cube
#
# magic "SCUB1", u32 width, u32 height, u32 bands, f64 start_nm, f64 step_nm,
# float32 samples plane-sequential (band-major: band 0 as a full row-major
# H x W plane, then band 1, ...), then u8 mask (H x W row-major, 0/1).
# Sample storage is float32, so writing quantizes values to float32 once;
# read/write cycles after that are bit-stable.
# ---------------------------------------------------------------------------


def write_scube(path, image: SpectralImage) -> None:
    path = Path(path)
    h, w, nb = image.data.shape
    header = SCUBE_MAGIC + struct.pack(
        "<IIIdd", w, h, nb, image.axis.start_nm, image.axis.step_nm
    )
    planes = np.ascontiguousarray(
        image.data.transpose(2, 0, 1).astype("<f4", copy=False)
    )
    mask = np.ascontiguousarray(image.mask.astype(np.uint8))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(planes.tobytes())
        fh.write(mask.tobytes())


def read_scube(path) -> SpectralImage:
    path = Path(path)
    blob = path.read_bytes()
    if len(blob) < 5 or blob[:5] != SCUBE_MAGIC:
        raise FormatError(f"{path}: not a spectral cube (bad magic)")
    if len(blob) < 5 + 12 + 16:
        raise FormatError(f"{path}: truncated header")
    w, h, nb, start_nm, step_nm = struct.unpack_from("<IIIdd", blob, 5)
    offset = 5 + 12 + 16
    n_samples = h * w * nb
    expected = offset + 4 * n_samples + h * w
    if len(blob) != expected:
        raise FormatError(
            f"{path}: expected {expected} bytes for {w}x{h}x{nb}, got {len(blob)}"
        )
    planes = np.frombuffer(blob, dtype="<f4", count=n_samples, offset=offset)
    data = planes.reshape(nb, h, w).transpose(1, 2, 0).astype(np.float64)
    mask_raw = np.frombuffer(blob, dtype=np.uint8, offset=offset + 4 * n_samples)
    if np.any(mask_raw > 1):
        raise FormatError(f"{path}: mask bytes must be 0 or 1")
    mask = mask_raw.reshape(h, w).astype(bool)
    try:
        axis = SpectralAxis(start_nm, step_nm, nb)
        return SpectralImage(axis, data, mask)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# SPD / sensitivity CSV
#
# Header: wavelength_nm,value[,value2,...]. Wavelengths must be strictly
# increasing on a uniform grid (tolerance 1e-6 nm); at least two rows.
# ---------------------------------------------------------------------------

_AXIS_TOL_NM = 1e-6


def read_spd_csv(path) -> tuple[SpectralAxis, np.ndarray]:
    """Read a spectral CSV. Returns (axis, values) with values (count, n_cols)."""
    path = Path(path)
    lines = [ln.strip() for ln in path.read_text(encoding="utf-8").splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise FormatError(f"{path}: empty file")
    header = [f.strip() for f in lines[0].split(",")]
    if header[0] != "wavelength_nm" or len(header) < 2:
        raise FormatError(
            f"{path}: header must be 'wavelength_nm,value[,...]', got {lines[0]!r}"
        )
    n_cols = len(header) - 1
    rows = []
    for lineno, ln in enumerate(lines[1:], start=2):
        fields = [f.strip() for f in ln.split(",")]
        if len(fields) != n_cols + 1:
            raise FormatError(
                f"{path}:{lineno}: expected {n_cols + 1} fields, got {len(fields)}"
            )
        try:
            rows.append([float(f) for f in fields])
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from exc
    if len(rows) < 2:
        raise FormatError(f"{path}: need at least two wavelength rows")
    table = np.asarray(rows, dtype=np.float64)
    if not np.all(np.isfinite(table)):
        raise FormatError(f"{path}: non-finite value")
    wl = table[:, 0]
    if np.any(np.diff(wl) <= 0):
        raise FormatError(f"{path}: wavelengths must be strictly increasing")
    step = (wl[-1] - wl[0]) / (len(wl) - 1)
    ideal = wl[0] + step * np.arange(len(wl))
    if np.max(np.abs(wl - ideal)) > _AXIS_TOL_NM:
        raise FormatError(f"{path}: wavelengths are not on a uniform grid")
    try:
        axis = SpectralAxis(float(wl[0]), float(step), len(wl))
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return axis, table[:, 1:]


def write_spd_csv(path, axis: SpectralAxis, values: np.ndarray) -> None:
    """Write one or more spectral columns. `values` is (count,) or (count, k)."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = values[:, None]
    if values.shape[0] != axis.count:
        raise ValueError(
            f"values have {values.shape[0]} rows, axis expects {axis.count}"
        )
    names = ["value"] + [f"value{i}" for i in range(2, values.shape[1] + 1)]
    out = ["wavelength_nm," + ",".join(names)]
    for wl, row in zip(axis.wavelengths(), values):
        out.append(
            format_float(wl) + "," + ",".join(format_float(v) for v in row)
        )
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")


def read_sensitivities(path, camera_name: Optional[str] = None) -> SensitivityFunctions:
    """Read a 3-column sensitivity CSV (columns: R, G, B)."""
    path = Path(path)
    axis, values = read_spd_csv(path)
    if values.shape[1] != 3:
        raise FormatError(
            f"{path}: sensitivity files need exactly 3 value columns, got {values.shape[1]}"
        )
    neg = np.argwhere(values < 0)
    if neg.size:
        raise FormatError(f"{path}:{neg[0][0] + 2}: negative sensitivity value")
    name = camera_name if camera_name is not None else path.stem
    return SensitivityFunctions(axis, values.T.copy(), camera_name=name)


# ---------------------------------------------------------------------------
# Plain-text manifests. Blank lines and lines starting with '#' are skipped.
# Relative paths resolve against the manifest file's directory.
# ---------------------------------------------------------------------------


def _content_lines(path: Path) -> list[tuple[int, str]]:
    out = []
    for lineno, ln in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        ln = ln.strip()
        if ln and not ln.startswith("#"):
            out.append((lineno, ln))
    return out


def read_illuminant_manifest(path) -> list[tuple[Path, str]]:
    """Lines of `path,name`; returns [(resolved csv path, display name)]."""
    path = Path(path)
    base = path.parent
    entries = []
    seen = set()
    for lineno, ln in _content_lines(path):
        parts = [p.strip() for p in ln.split(",")]
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise FormatError(f"{path}:{lineno}: expected 'path,name'")
        rel, name = parts
        if name in seen:
            raise FormatError(f"{path}:{lineno}: duplicate illuminant name {name!r}")
        seen.add(name)
        entries.append(((base / rel).resolve(), name))
    if not entries:
        raise FormatError(f"{path}: no illuminant entries")
    return entries


def write_illuminant_manifest(path, entries: Sequence[tuple[str, str]]) -> None:
    lines = [f"{rel},{name}" for rel, name in entries]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_dataset_manifest(path) -> tuple[list[Path], list[Path]]:
    """Lines of `split,path` with split in {train, test}."""
    path = Path(path)
    base = path.parent
    train: list[Path] = []
    test: list[Path] = []
    for lineno, ln in _content_lines(path):
        parts = [p.strip() for p in ln.split(",")]
        if len(parts) != 2 or parts[0] not in ("train", "test") or not parts[1]:
            raise FormatError(f"{path}:{lineno}: expected 'train,path' or 'test,path'")
        (train if parts[0] == "train" else test).append((base / parts[1]).resolve())
    if not train or not test:
        raise FormatError(f"{path}: manifest needs at least one train and one test scene")
    return train, test


def write_dataset_manifest(path, train: Sequence[str], test: Sequence[str]) -> None:
    lines = [f"train,{p}" for p in train] + [f"test,{p}" for p in test]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_name_list(path) -> list[str]:
    """One name per line (projection-set membership files)."""
    path = Path(path)
    names = [ln for _, ln in _content_lines(path)]
    if not names:
        raise FormatError(f"{path}: empty name list")
    if len(set(names)) != len(names):
        raise FormatError(f"{path}: duplicate names")
    return names


def write_name_list(path, names: Sequence[str]) -> None:
    Path(path).write_text("\n".join(names) + "\n", encoding="utf-8")
