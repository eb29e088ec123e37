"""Deterministic synthetic reflectance scenes for demos and self-tests.

Scenes are piecewise-rectangular mixtures of a few smooth spectral basis
functions with mild per-pixel texture, so their chromaticities occupy a
low-dimensional manifold the projection fitters can learn.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .io import write_dataset_manifest, write_scube
from .spectral import SpectralAxis, SpectralImage

#: Reflectance floor keeps every pixel strictly positive (no black pixels
#: unless masked), which keeps chromaticities well-defined.
REFLECTANCE_FLOOR = 0.02


@dataclass
class SceneRecipe:
    """Parameters for one generated reflectance scene."""

    width: int = 32
    height: int = 32
    basis_count: int = 6
    patch_count: int = 12
    mask_fraction: float = 0.05
    texture: float = 0.08
    seed: int = 0

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError("scene dimensions must be positive")
        if self.basis_count < 1 or self.patch_count < 0:
            raise ValueError("basis_count must be >= 1 and patch_count >= 0")
        if not 0 <= self.mask_fraction < 1:
            raise ValueError("mask_fraction must be in [0, 1)")
        if not (np.isfinite(self.texture) and self.texture >= 0):
            raise ValueError("texture must be finite and non-negative")


def generate_scene(recipe: SceneRecipe, axis: SpectralAxis) -> SpectralImage:
    """Generate a reflectance scene (values in [REFLECTANCE_FLOOR, 1])."""
    rng = np.random.default_rng(recipe.seed)
    wl = axis.wavelengths()
    span = max(axis.stop_nm - axis.start_nm, 1.0)

    centers = rng.uniform(axis.start_nm, axis.stop_nm, size=recipe.basis_count)
    widths = rng.uniform(0.08 * span, 0.35 * span, size=recipe.basis_count)
    amps = rng.uniform(0.35, 1.0, size=recipe.basis_count)
    basis = amps[:, None] * np.exp(
        -((wl[None, :] - centers[:, None]) ** 2) / (2 * widths[:, None] ** 2)
    )

    h, w = recipe.height, recipe.width
    # Patch 0 is the background; rectangles overwrite it in draw order.
    patch_map = np.zeros((h, w), dtype=np.int64)
    for p in range(1, recipe.patch_count + 1):
        y0 = int(rng.integers(0, h))
        x0 = int(rng.integers(0, w))
        y1 = int(rng.integers(y0, h)) + 1
        x1 = int(rng.integers(x0, w)) + 1
        patch_map[y0:y1, x0:x1] = p
    weights = rng.dirichlet(np.ones(recipe.basis_count), size=recipe.patch_count + 1)
    scales = rng.uniform(0.4, 1.0, size=recipe.patch_count + 1)

    spectra = (weights * scales[:, None]) @ basis  # one spectrum per patch
    data = spectra[patch_map]
    if recipe.texture > 0:
        gain = 1.0 + recipe.texture * rng.standard_normal((h, w, 1))
        data = data * np.clip(gain, 0.2, 1.8)
    data = np.clip(data, REFLECTANCE_FLOOR, 1.0)

    mask = rng.random((h, w)) >= recipe.mask_fraction
    if not mask.any():
        mask[0, 0] = True
    return SpectralImage(axis, data, mask)


def white_scene(axis: SpectralAxis, width: int = 8, height: int = 8) -> SpectralImage:
    """A perfectly flat (unit reflectance) scene; relit, it IS the illuminant."""
    data = np.ones((height, width, axis.count))
    mask = np.ones((height, width), dtype=bool)
    return SpectralImage(axis, data, mask)


def synth_dataset(
    out_dir,
    n_scenes: int,
    axis: SpectralAxis,
    base_seed: int = 0,
    width: int = 32,
    height: int = 32,
    basis_count: int = 6,
    patch_count: int = 12,
    mask_fraction: float = 0.05,
    texture: float = 0.08,
) -> tuple[Path, list[Path]]:
    """Write n_scenes cubes plus a 2:1 train/test manifest; returns its path.

    Scene i is seeded with base_seed + i. Every third scene (i % 3 == 2)
    goes to the test split, the rest to train, so the split is deterministic
    and roughly 2:1 at any n_scenes.
    """
    if n_scenes < 3:
        raise ValueError("need at least 3 scenes for a train/test split")
    recipe = SceneRecipe(
        width=width,
        height=height,
        basis_count=basis_count,
        patch_count=patch_count,
        mask_fraction=mask_fraction,
        texture=texture,
    )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    train, test, paths = [], [], []
    for i in range(n_scenes):
        scene = generate_scene(replace(recipe, seed=base_seed + i), axis)
        name = f"scene_{i:03d}.scube"
        write_scube(out_dir / name, scene)
        paths.append(out_dir / name)
        (test if i % 3 == 2 else train).append(name)
    manifest = out_dir / "dataset.txt"
    write_dataset_manifest(manifest, train, test)
    return manifest, paths


def demo_dataset(out_dir) -> tuple[Path, list[Path]]:
    """Materialize the package's standard demo dataset (fully deterministic).

    24 scenes of 32x32 pixels on the default 400-700/10 nm grid, seeded from
    0, split 16 train / 8 test by the standard 2:1 rule. Every call writes
    byte-identical files, so this doubles as the reference corpus for the
    self-test suite.
    """
    axis = SpectralAxis()
    return synth_dataset(out_dir, 24, axis, base_seed=0)
