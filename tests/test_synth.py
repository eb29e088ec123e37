"""Deterministic synthetic scene generation."""

import numpy as np
import pytest

from illumest.io import read_dataset_manifest, read_scube
from illumest.spectral import SpectralAxis
from illumest.synth import (
    REFLECTANCE_FLOOR,
    SceneRecipe,
    demo_dataset,
    generate_scene,
    synth_dataset,
    white_scene,
)


class TestGenerateScene:
    def test_deterministic_per_seed(self):
        axis = SpectralAxis()
        a = generate_scene(SceneRecipe(seed=5), axis)
        b = generate_scene(SceneRecipe(seed=5), axis)
        c = generate_scene(SceneRecipe(seed=6), axis)
        np.testing.assert_array_equal(a.data, b.data)
        np.testing.assert_array_equal(a.mask, b.mask)
        assert not np.array_equal(a.data, c.data)

    def test_reflectance_range(self):
        img = generate_scene(SceneRecipe(seed=1), SpectralAxis())
        assert img.data.min() >= REFLECTANCE_FLOOR
        assert img.data.max() <= 1.0

    def test_shape_and_mask(self):
        img = generate_scene(
            SceneRecipe(width=16, height=12, mask_fraction=0.1, seed=2),
            SpectralAxis(),
        )
        assert img.data.shape == (12, 16, 31)
        assert img.mask.any()
        # roughly the requested fraction is masked out
        frac = 1.0 - img.mask.mean()
        assert 0.0 <= frac < 0.4

    def test_spectra_are_smooth_mixtures(self):
        # neighboring bands of a Gaussian-mixture reflectance move gradually
        img = generate_scene(SceneRecipe(seed=3, texture=0.0), SpectralAxis())
        jumps = np.abs(np.diff(img.data, axis=2)).max()
        assert jumps < 0.35

    def test_recipe_validation(self):
        with pytest.raises(ValueError):
            SceneRecipe(width=0)
        with pytest.raises(ValueError):
            SceneRecipe(mask_fraction=1.0)
        with pytest.raises(ValueError):
            SceneRecipe(texture=-0.1)
        with pytest.raises(ValueError, match="texture must be finite"):
            SceneRecipe(texture=float("nan"))


class TestWhiteScene:
    def test_unit_reflectance_everywhere(self):
        axis = SpectralAxis()
        img = white_scene(axis)
        assert img.data.shape == (8, 8, 31)
        assert np.all(img.data == 1.0)
        assert img.mask.all()


class TestSynthDataset:
    def test_writes_scenes_and_split(self, tmp_path):
        axis = SpectralAxis(400, 20, 5)
        manifest, paths = synth_dataset(tmp_path, 7, axis, base_seed=3)
        assert len(paths) == 7
        train, test = read_dataset_manifest(manifest)
        assert len(train) == 5 and len(test) == 2
        # scenes 2 and 5 are the test scenes (every third index)
        assert [p.name for p in test] == ["scene_002.scube", "scene_005.scube"]
        img = read_scube(paths[0])
        assert img.axis == axis

    def test_deterministic_bytes(self, tmp_path):
        axis = SpectralAxis(400, 20, 5)
        _, p1 = synth_dataset(tmp_path / "a", 4, axis, base_seed=0)
        _, p2 = synth_dataset(tmp_path / "b", 4, axis, base_seed=0)
        for a, b in zip(p1, p2):
            assert a.read_bytes() == b.read_bytes()

    def test_minimum_size_enforced(self, tmp_path):
        with pytest.raises(ValueError):
            synth_dataset(tmp_path, 2, SpectralAxis())

    @pytest.mark.parametrize(
        "option", [{"mask_fraction": 1.5}, {"texture": -1.0}, {"texture": float("nan")}]
    )
    def test_bad_recipe_rejected_before_the_directory_is_made(self, tmp_path, option):
        out = tmp_path / "out"
        with pytest.raises(ValueError):
            synth_dataset(out, 3, SpectralAxis(), **option)
        assert not out.exists()


class TestDemoDataset:
    def test_standard_shape(self, demo_data):
        manifest, paths = demo_data
        assert len(paths) == 24
        train, test = read_dataset_manifest(manifest)
        assert len(train) == 16 and len(test) == 8
        img = read_scube(paths[0])
        assert img.axis == SpectralAxis()
        assert img.data.shape == (32, 32, 31)

    def test_rematerialization_is_identical(self, demo_data, tmp_path):
        _, paths = demo_data
        _, fresh = demo_dataset(tmp_path / "again")
        for a, b in zip(paths, fresh):
            assert a.read_bytes() == b.read_bytes()
