"""End-to-end command-line workflows."""

import numpy as np
import pytest

from illumest.bundled import bundled_illuminant_manifest
from illumest.cli import main
from illumest.illuminants import load_illuminants
from illumest.io import read_dataset_manifest, read_name_list, read_scube, write_scube
from illumest.projections import read_projection
from illumest.spectral import relight


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small synthetic dataset generated through the CLI itself."""
    root = tmp_path_factory.mktemp("cli_ws")
    scenes = root / "scenes"
    rc = main(
        [
            "synth",
            "--out", str(scenes),
            "--scenes", "6",
            "--width", "8",
            "--height", "8",
            "--seed", "0",
        ]
    )
    assert rc == 0
    return root


def run_ok(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    assert rc == 0, out.err
    return out.out


class TestSynth:
    def test_writes_dataset(self, workspace):
        manifest = workspace / "scenes" / "dataset.txt"
        train, test = read_dataset_manifest(manifest)
        assert len(train) == 4 and len(test) == 2
        img = read_scube(train[0])
        assert img.data.shape == (8, 8, 31)

    def test_custom_axis(self, tmp_path, capsys):
        out = run_ok(
            capsys,
            [
                "synth", "--out", str(tmp_path / "s"), "--scenes", "3",
                "--width", "4", "--height", "4",
                "--step", "20", "--bands", "5",
            ],
        )
        assert "wrote 3 scenes" in out
        train, _ = read_dataset_manifest(tmp_path / "s" / "dataset.txt")
        img = read_scube(train[0])
        assert img.axis.step_nm == 20.0 and img.n_bands == 5


class TestSelect:
    def test_writes_name_list(self, tmp_path, capsys):
        names_file = tmp_path / "pset.txt"
        out = run_ok(
            capsys,
            ["select-projection-set", "--k", "4", "--out", str(names_file)],
        )
        assert "selected 4 of 28" in out
        names = read_name_list(names_file)
        assert len(names) == 4
        full = load_illuminants(bundled_illuminant_manifest())
        assert set(names) <= set(full.names())


class TestFit:
    def test_ill_pca(self, workspace, tmp_path, capsys):
        out_path = tmp_path / "illpca.proj"
        run_ok(
            capsys,
            ["fit", "--method", "ill_pca", "--d-prime", "2", "--out", str(out_path)],
        )
        proj = read_projection(out_path)
        assert proj.kind == "ill_pca"
        assert proj.output_dim == 2 and proj.input_dim == 31

    def test_rand_seeded(self, tmp_path, capsys):
        a, b = tmp_path / "a.proj", tmp_path / "b.proj"
        run_ok(capsys, ["fit", "--method", "rand", "--seed", "42", "--out", str(a)])
        run_ok(capsys, ["fit", "--method", "rand", "--seed", "42", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_pca_needs_dataset(self, tmp_path, capsys):
        rc = main(["fit", "--method", "pca", "--out", str(tmp_path / "p.proj")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "error:" in err and "--dataset" in err

    def test_pca_from_dataset(self, workspace, tmp_path, capsys):
        out_path = tmp_path / "pca.proj"
        run_ok(
            capsys,
            [
                "fit", "--method", "pca", "--d-prime", "3",
                "--dataset", str(workspace / "scenes" / "dataset.txt"),
                "--downsample", "4",
                "--out", str(out_path),
            ],
        )
        assert read_projection(out_path).kind == "pca"

    def test_rgb_from_camera(self, tmp_path, capsys, bundled_cameras):
        out_path = tmp_path / "rgb.proj"
        run_ok(
            capsys,
            [
                "fit", "--method", "rgb",
                "--camera", str(bundled_cameras[0]),
                "--out", str(out_path),
            ],
        )
        proj = read_projection(out_path)
        assert proj.kind == "rgb" and proj.output_dim == 3
        assert proj.metadata["camera"] == "camera_a"


@pytest.fixture(scope="module")
def fitted(workspace, tmp_path_factory):
    root = tmp_path_factory.mktemp("fitted")
    proj_path = root / "illpca.proj"
    model_path = root / "model.cbcm"
    dataset = workspace / "scenes" / "dataset.txt"
    assert main(
        ["fit", "--method", "ill_pca", "--d-prime", "2", "--out", str(proj_path)]
    ) == 0
    assert main(
        [
            "build-model",
            "--projection", str(proj_path),
            "--dataset", str(dataset),
            "--bins", "8",
            "--downsample", "2",
            "--out", str(model_path),
        ]
    ) == 0
    return proj_path, model_path, dataset


class TestModelAndClassify:
    def test_model_file_written(self, fitted):
        _, model_path, _ = fitted
        assert model_path.stat().st_size > 0

    def test_classify_output_format(self, fitted, tmp_path, capsys):
        proj_path, model_path, dataset = fitted
        _, test_paths = read_dataset_manifest(dataset)
        full = load_illuminants(bundled_illuminant_manifest())
        ill = full[full.index_of("D65")]
        cube = relight(read_scube(test_paths[0]), ill.normalized_spd())
        cube_path = tmp_path / "radiance.scube"
        write_scube(cube_path, cube)
        out = run_ok(
            capsys,
            [
                "classify",
                "--model", str(model_path),
                "--projection", str(proj_path),
                "--cube", str(cube_path),
                "--truth", "D65",
            ],
        )
        lines = out.splitlines()
        assert lines[0].startswith("predicted: ")
        predicted = lines[0].split(": ", 1)[1]
        assert predicted in full.names()
        score_lines = [l for l in lines if l.startswith("score,")]
        assert len(score_lines) == 28
        err_lines = [l for l in lines if l.startswith("angular_error_deg,")]
        assert len(err_lines) == 1
        assert np.isfinite(float(err_lines[0].split(",")[1]))


    def test_degenerate_smoothing_is_an_error(self, fitted, tmp_path, capsys):
        proj_path, _, dataset = fitted
        rc = main(
            [
                "build-model",
                "--projection", str(proj_path),
                "--dataset", str(dataset),
                "--bins", "8",
                "--smoothing", "0",
                "--out", str(tmp_path / "m.cbcm"),
            ]
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and "smoothing" in err
        assert not (tmp_path / "m.cbcm").exists()


class TestReports:
    def test_grid_and_noise_runs(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"dataset = {workspace / 'scenes' / 'dataset.txt'}\n"
            f"illuminants = {bundled_illuminant_manifest()}\n"
            "methods = ill_pca\n"
            "d_primes = 2\n"
            "bins = 5\n"
            "downsample_eval = 4\n"
            "noise_d_prime = 2\n"
            "noise_bins = 5\n"
            "noise_levels = 20\n"
        )
        grid_out = tmp_path / "grid.csv"
        out = run_ok(
            capsys, ["grid", "--config", str(cfg), "--out", str(grid_out)]
        )
        assert "wrote" in out
        assert grid_out.exists()
        raw_default = tmp_path / "grid_raw.csv"
        assert raw_default.exists()
        lines = grid_out.read_text().splitlines()
        assert lines[0].startswith("method,")
        assert lines[1].startswith("ill_pca,2,5,-,-,")

        noise_out = tmp_path / "noise.csv"
        run_ok(capsys, ["noise", "--config", str(cfg), "--out", str(noise_out)])
        rows = noise_out.read_text().splitlines()
        assert rows[1].startswith("ill_pca,2,5,-,clean,")
        assert rows[2].startswith("ill_pca,2,5,-,20,")

    def test_error_is_one_line_diagnostic(self, tmp_path, capsys):
        rc = main(["grid", "--config", str(tmp_path / "missing.cfg"), "--out", "x"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ")


class TestExportCoords:
    def test_coordinate_table(self, tmp_path, capsys):
        out_path = tmp_path / "coords.csv"
        run_ok(capsys, ["export-pca-coords", "--out", str(out_path)])
        lines = out_path.read_text().splitlines()
        assert lines[0] == "name,c1,c2,c3"
        assert len(lines) == 29
        assert lines[1].startswith("A,")
