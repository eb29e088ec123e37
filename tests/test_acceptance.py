"""Top-level acceptance checks, one test per numbered criterion.

Each test is self-contained and asserts both the behavioural requirement and
its runtime budget. The terminal summary (see conftest.py) prints one
PASS/FAIL line per criterion.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from illumest.baselines import spectral_gray_world
from illumest.bundled import bundled_camera_paths, bundled_illuminant_manifest
from illumest.cbc import build_model, read_model, write_model
from illumest.evaluation import GridConfig, angular_error_deg, run_grid, run_noise
from illumest.illuminants import load_illuminants
from illumest.io import (
    read_dataset_manifest,
    read_illuminant_manifest,
    read_name_list,
    read_scube,
    read_spd_csv,
    write_dataset_manifest,
    write_illuminant_manifest,
    write_name_list,
    write_scube,
    write_spd_csv,
)
from illumest.linalg import nnls
from nnls_oracle import target_nnls
from illumest.projections import (
    TrainingMatrix,
    fit_ill_pca,
    fit_pca,
    fit_rand,
    nnmf_factorize,
    projection_to_bytes,
    read_projection,
    write_projection,
)
from illumest.spectral import SpectralAxis, SpectralImage, noise_sigma, relight
from illumest.synth import white_scene


def simplex_rows(rng, n, d):
    return rng.dirichlet(np.ones(d), size=n)


def test_c01_angular_error_closed_forms_and_invariances():
    t0 = time.perf_counter()
    v = np.array([3.2, 1.1, 0.4])
    assert abs(angular_error_deg(v, v)) <= 1e-9
    assert abs(angular_error_deg([1.0, 0.0, 0.0], [0.0, 2.0, 0.0]) - 90.0) <= 1e-9
    assert abs(angular_error_deg([1.0, 0.0], [1.0, 1.0]) - 45.0) <= 1e-9

    rng = np.random.default_rng(11)
    for _ in range(1000):
        d = int(rng.integers(2, 9))
        a = rng.random(d) + 1e-3
        b = rng.random(d) + 1e-3
        ab = angular_error_deg(a, b)
        assert abs(ab - angular_error_deg(b, a)) <= 1e-9
        s, t = rng.uniform(0.1, 10.0, size=2)
        assert abs(ab - angular_error_deg(s * a, t * b)) <= 1e-9
    assert time.perf_counter() - t0 < 1.0


def test_c02_pca_matches_eigendecomposition_truncation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(21)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(2, 9))
        d_prime = int(rng.integers(1, min(n - 1, d - 1) + 1))
        rows = simplex_rows(rng, n, d)
        proj = fit_pca(TrainingMatrix(rows), d_prime)
        recon = proj.mean + proj.apply_rows(rows) @ proj.basis.T
        mse = float(np.mean((rows - recon) ** 2))

        # independent route: SVD of the centered matrix, truncate, reproject
        centered = rows - rows.mean(axis=0)
        _, _, vt = np.linalg.svd(centered, full_matrices=False)
        top = vt[:d_prime].T
        recon_ref = rows.mean(axis=0) + centered @ top @ top.T
        mse_ref = float(np.mean((rows - recon_ref) ** 2))
        assert abs(mse - mse_ref) <= 1e-8
    assert time.perf_counter() - t0 < 5.0


def test_c03_nnls_and_nnmf_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(31)

    compared = 0
    for _ in range(50):
        k = int(rng.integers(1, 7))
        d = int(rng.integers(k, 11))
        basis = rng.standard_normal((k, d))
        z_true = rng.uniform(0.2, 1.5, size=k)
        target = z_true @ basis + 0.01 * rng.standard_normal(d)
        gram = basis @ basis.T
        atb = basis @ target
        unconstrained = np.linalg.solve(gram, atb)
        if unconstrained.min() >= 0.0:
            # the Gram-form solver and the target-form Lawson-Hanson oracle
            for z in (nnls(gram, atb), target_nnls(basis, target)):
                assert np.max(np.abs(z - unconstrained)) <= 1e-8
            compared += 1
    assert compared >= 25  # the oracle comparison must actually exercise cases

    for i in range(10):
        n = int(rng.integers(4, 13))
        d = int(rng.integers(4, 13))
        rank = int(rng.integers(1, 5))
        x = rng.random((n, d))
        _, _, losses = nnmf_factorize(x, rank, seed=i, max_iter=120, tol=0.0)
        diffs = np.diff(losses)
        assert np.all(diffs <= 1e-12 * max(1.0, losses[0]))

    for i in range(5):
        n, d, rank = 8, 6, int(rng.integers(1, 4))
        w = rng.random((n, rank)) + 0.1
        h = rng.random((rank, d)) + 0.1
        x = w @ h
        _, _, losses = nnmf_factorize(x, rank, seed=i, max_iter=4000, tol=1e-16)
        assert losses[-1] < 1e-6 * float(np.sum(x * x))
    assert time.perf_counter() - t0 < 30.0


def test_c04_self_consistent_classification_is_perfect(demo_data, tmp_path):
    t0 = time.perf_counter()
    manifest, paths = demo_data
    # test scenes drawn from the training pool: every query illuminant was
    # seen during histogram building, so classification must be exact
    overlap = tmp_path / "overlap.txt"
    write_dataset_manifest(
        overlap, [str(p) for p in paths], [str(p) for p in paths[:8]]
    )
    cfg = GridConfig(
        dataset=overlap,
        illuminants=bundled_illuminant_manifest(),
        methods=("pca", "ill_pca"),
        d_primes=(5,),
        bins=(30,),
        downsample_eval=2,
        allow_overlap=True,
    )
    rows = run_grid(cfg).sorted_rows()
    checked = 0
    for row in rows:
        if row.method not in ("pca", "ill_pca"):
            continue
        assert row.summary.mean <= 1e-12
        assert row.cases and all(c.predicted == c.true_name for c in row.cases)
        checked += 1
    assert checked == 2
    assert time.perf_counter() - t0 < 300.0


def test_c05_held_out_error_improves_with_dimensionality(demo_data):
    t0 = time.perf_counter()
    manifest, _ = demo_data
    cfg = GridConfig(
        dataset=manifest,
        illuminants=bundled_illuminant_manifest(),
        methods=("ill_pca",),
        d_primes=(2, 3, 5),
        bins=(30,),
        downsample_eval=2,
    )
    rows = run_grid(cfg).sorted_rows()
    mean_at = {r.d_prime: r.summary.mean for r in rows if r.method == "ill_pca"}
    assert set(mean_at) == {2, 3, 5}
    assert mean_at[5] <= mean_at[3] <= mean_at[2]
    assert time.perf_counter() - t0 < 600.0


def test_c06_noise_formula_and_clean_row_identity(demo_data):
    assert noise_sigma(1.0, 20.0) == 0.1
    assert noise_sigma(2.0, 40.0) == 0.02

    manifest, _ = demo_data
    cfg = GridConfig(
        dataset=manifest,
        illuminants=bundled_illuminant_manifest(),
        methods=("ill_pca",),
        d_primes=(2,),
        bins=(5,),
        downsample_eval=8,
        noise_method="ill_pca",
        noise_d_prime=2,
        noise_bins=5,
        noise_levels=(20.0,),
    )
    grid_row = next(
        r
        for r in run_grid(cfg).sorted_rows()
        if r.method == "ill_pca" and r.d_prime == 2 and r.n_bins == 5
    )
    clean_row = next(
        r for r in run_noise(cfg).sorted_rows() if r.noise_label == "clean"
    )
    assert clean_row.summary == grid_row.summary
    assert clean_row.cases is not None and grid_row.cases is not None
    assert len(clean_row.cases) == len(grid_row.cases)
    for a, b in zip(clean_row.cases, grid_row.cases):
        assert a == b  # exact float equality: identical bits


def test_c07_gray_world_identity_on_flat_scenes(bundled_set):
    t0 = time.perf_counter()
    scene = white_scene(bundled_set.axis)
    for ill in bundled_set:
        lit = relight(scene, ill.spd)
        name, estimate = spectral_gray_world(lit, bundled_set)
        assert name == ill.name
        assert angular_error_deg(estimate, ill.spd) <= 1e-9
    assert time.perf_counter() - t0 < 10.0


def test_c08_formats_round_trip_and_runs_are_deterministic(
    demo_data, tmp_path, bundled_set
):
    rng = np.random.default_rng(81)
    axis = SpectralAxis(400.0, 10.0, 6)

    # spectral cube
    img = SpectralImage(
        axis,
        rng.random((5, 4, 6), dtype=np.float32).astype(np.float64),
        rng.random((5, 4)) > 0.2,
    )
    cube_path = tmp_path / "cube.scube"
    write_scube(cube_path, img)
    first = cube_path.read_bytes()
    back = read_scube(cube_path)
    write_scube(cube_path, back)
    assert cube_path.read_bytes() == first
    np.testing.assert_array_equal(back.data, img.data)
    np.testing.assert_array_equal(back.mask, img.mask)

    # SPD tables, single and multi column
    for cols in (1, 3):
        values = rng.random((6, cols)) if cols > 1 else rng.random(6)
        p = tmp_path / f"spd_{cols}.csv"
        write_spd_csv(p, axis, values)
        blob = p.read_bytes()
        got_axis, got = read_spd_csv(p)
        write_spd_csv(p, got_axis, got if cols > 1 else got[:, 0])
        assert p.read_bytes() == blob

    # projection files
    proj = fit_ill_pca(bundled_set, 3)
    proj_path = tmp_path / "basis.proj"
    write_projection(proj_path, proj)
    blob = proj_path.read_bytes()
    write_projection(proj_path, read_projection(proj_path))
    assert proj_path.read_bytes() == blob

    # correlation model files
    scenes = [read_scube(p) for p in demo_data[1][:2]]
    model = build_model(scenes, bundled_set, proj, n_bins=5)
    model_path = tmp_path / "model.cbcm"
    write_model(model_path, model)
    blob = model_path.read_bytes()
    write_model(model_path, read_model(model_path))
    assert model_path.read_bytes() == blob

    # manifests and name lists
    man = tmp_path / "illums.txt"
    write_illuminant_manifest(man, [("a.csv", "A"), ("b.csv", "B")])
    blob = man.read_bytes()
    entries = read_illuminant_manifest(man)
    write_illuminant_manifest(man, [(p.name, n) for p, n in entries])
    assert man.read_bytes() == blob

    ds = tmp_path / "dataset.txt"
    write_dataset_manifest(ds, ["s0.scube", "s1.scube"], ["s2.scube"])
    blob = ds.read_bytes()
    train, test = read_dataset_manifest(ds)
    write_dataset_manifest(ds, [p.name for p in train], [p.name for p in test])
    assert ds.read_bytes() == blob

    names = tmp_path / "names.txt"
    write_name_list(names, ["D65", "A"])
    blob = names.read_bytes()
    write_name_list(names, read_name_list(names))
    assert names.read_bytes() == blob

    # a full grid run is reproducible to the byte
    cfg = dict(
        dataset=demo_data[0],
        illuminants=bundled_illuminant_manifest(),
        methods=("ill_pca",),
        d_primes=(2,),
        bins=(5,),
        downsample_eval=8,
    )
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    raw_a, raw_b = tmp_path / "a_raw.csv", tmp_path / "b_raw.csv"
    report_a = run_grid(GridConfig(**cfg))
    report_b = run_grid(GridConfig(**cfg))
    report_a.write_csv(out_a)
    report_a.write_raw_csv(raw_a)
    report_b.write_csv(out_b)
    report_b.write_raw_csv(raw_b)
    assert out_a.read_bytes() == out_b.read_bytes()
    assert raw_a.read_bytes() == raw_b.read_bytes()

    # seeded random projections: distinct across seeds, stable per seed
    blobs = [projection_to_bytes(fit_rand(31, 3, seed)) for seed in (42, 43, 44)]
    again = [projection_to_bytes(fit_rand(31, 3, seed)) for seed in (42, 43, 44)]
    assert blobs == again
    assert len({b for b in blobs}) == 3


def test_c09_real_dataset_ordering():
    root = os.environ.get("ILLUMEST_MIE_DIR")
    if not root:
        pytest.skip("ILLUMEST_MIE_DIR is not set; external-dataset check skipped")
    manifest = Path(root) / "dataset.txt"
    if not manifest.is_file():
        pytest.skip(f"no dataset manifest at {manifest}")
    train, test = read_dataset_manifest(manifest)
    if (len(train), len(test)) != (272, 137):
        pytest.skip(
            f"split is {len(train)}/{len(test)}, expected 272/137; "
            "check the conversion"
        )
    cfg = GridConfig(
        dataset=manifest,
        illuminants=bundled_illuminant_manifest(),
        methods=("rgb", "pca", "ill_pca"),
        d_primes=(3,),
        bins=(30,),
        cameras=(bundled_camera_paths()[0],),
    )
    rows = run_grid(cfg).sorted_rows()
    mean_of = {}
    for row in rows:
        if row.method in ("rgb", "pca", "ill_pca") and row.variant != "avg":
            mean_of[row.method] = row.summary.mean
    assert set(mean_of) == {"rgb", "pca", "ill_pca"}
    assert mean_of["ill_pca"] < mean_of["pca"] < mean_of["rgb"]
    assert abs(mean_of["ill_pca"] - 5.87) <= 1.0
