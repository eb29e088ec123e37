"""End-to-end command-line workflows."""

from dataclasses import replace

import numpy as np
import pytest

from illumest import cli, evaluation
from illumest.bundled import bundled_illuminant_manifest
from illumest.cbc import read_model
from illumest.cli import main
from illumest.evaluation import GridConfig, _Runner, parse_config, run_grid, run_noise
from illumest.illuminants import load_illuminants
from illumest.io import (
    read_dataset_manifest,
    read_name_list,
    read_scube,
    read_sensitivities,
    write_dataset_manifest,
    write_illuminant_manifest,
    write_name_list,
    write_scube,
    write_spd_csv,
)
from illumest.projections import projection_to_bytes, read_projection
from illumest.spectral import SpectralAxis, relight


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


#: Every file reader the commands call, by (module, name): each in `cli`, the
#: cube reader of `evaluation.read_scenes`, which reads their cubes, and the
#: names-file reader of `evaluation.projection_set`.
READERS = tuple((cli, name) for name in (
    "load_illuminants", "parse_config", "read_dataset_manifest", "read_model",
    "read_projection", "read_sensitivities",
)) + ((evaluation, "read_scube"), (evaluation, "read_name_list"))


@pytest.fixture
def reads(monkeypatch):
    """The name of each file reader call the commands make, in order."""
    log = []
    for owner, name in READERS:
        original = getattr(owner, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            log.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return log


class TestFitSharesTheRunnersPath:
    """`fit` goes through the grid runner's projection set, d' check and fit
    dispatch; the demo scenes (32 x 32) take the grid's fit downsampling."""

    def config(self, demo_data, **overrides):
        return GridConfig(
            dataset=demo_data[0], illuminants=bundled_illuminant_manifest(), **overrides
        )

    @pytest.mark.parametrize("method", ["rgb", "rand", "pca", "ill_pca", "nnmf", "lda"])
    def test_proj_bytes_equal_the_runners(
        self, method, demo_data, bundled_cameras, tmp_path, capsys
    ):
        out = tmp_path / f"{method}.proj"
        camera = bundled_cameras[0]
        run_ok(
            capsys,
            [
                "fit", "--method", method, "--d-prime", "3", "--seed", "0",
                "--dataset", str(demo_data[0]), "--camera", str(camera),
                "--out", str(out),
            ],
        )
        cfg = self.config(
            demo_data, methods=(method,), cameras=(camera,), rand_seeds=(0,)
        )
        runner = _Runner(cfg)
        [[(_, _, proj)]] = runner._fits((method,), (3,), runner._read((method,)))
        assert out.read_bytes() == projection_to_bytes(proj)

    def test_camera_on_another_grid_rejected_by_both(
        self, demo_data, bundled_cameras, tmp_path, capsys
    ):
        sens = read_sensitivities(bundled_cameras[0])
        shifted = tmp_path / "shifted.csv"
        write_spd_csv(shifted, SpectralAxis(410.0, 10.0, sens.axis.count), sens.rows.T)
        out = tmp_path / "rgb.proj"
        rc = main(["fit", "--method", "rgb", "--camera", str(shifted), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "shifted: camera grid does not match illuminants" in err
        assert not out.exists()
        cfg = self.config(demo_data, methods=("rgb",), cameras=(shifted,))
        with pytest.raises(ValueError, match="camera grid does not match illuminants"):
            run_grid(cfg)

    def test_lda_beyond_the_set_rejected_before_any_scene_read(
        self, demo_data, tmp_path, capsys, monkeypatch
    ):
        reads = []

        def counted(path):
            reads.append(path)
            return read_scube(path)

        monkeypatch.setattr(evaluation, "read_scube", counted)
        argv = ["fit", "--method", "lda", "--dataset", str(demo_data[0])]
        rc = main(argv + ["--d-prime", "10", "--out", str(tmp_path / "bad.proj")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "lda cannot fit d' = 10: at most 9 with 10 projection-set candidates" in err
        assert reads == []
        run_ok(capsys, argv + ["--d-prime", "9", "--out", str(tmp_path / "ok.proj")])
        assert len(reads) == 16  # the counter sees the training scenes of a valid fit

    @pytest.mark.parametrize("method", ["pca", "lda"])
    def test_zero_downsample_is_an_error(self, method, demo_data, tmp_path, capsys, reads):
        out = tmp_path / "p.proj"
        rc = main(
            [
                "fit", "--method", method, "--dataset", str(demo_data[0]),
                "--downsample", "0", "--out", str(out),
            ]
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert err == "error: --downsample must be >= 1, got 0\n"
        assert reads == [] and not out.exists()


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


class TestSettingsRejectedBeforeAnyRead:
    """An out-of-range setting fails with a one-line diagnostic that names
    its option, before the command reads a file (or, for a cell space that
    needs the projection's d', before it reads anything else)."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fit", "--method", "rand", "--seed", "-1"], "--seed must be >= 0, got -1"),
            (["fit", "--method", "nnmf", "--seed", "-1"], "--seed must be >= 0, got -1"),
            (
                ["fit", "--method", "ill_pca", "--projection-set-seed", "-1"],
                "--projection-set-seed must be >= 0, got -1",
            ),
            (
                ["fit", "--method", "ill_pca", "--projection-set-k", "1"],
                "--projection-set-k must be >= 2, got 1",
            ),
            (["fit", "--method", "rand", "--d-prime", "0"], "--d-prime must be >= 1, got 0"),
            (
                ["fit", "--method", "nnmf", "--nnmf-max-iter", "0"],
                "--nnmf-max-iter must be >= 1, got 0",
            ),
            (["select-projection-set", "--seed", "-1"], "--seed must be >= 0, got -1"),
            (["select-projection-set", "--k", "1"], "--k must be >= 2, got 1"),
            (["synth", "--seed", "-1"], "--seed must be >= 0, got -1"),
            (["synth", "--scenes", "2"], "--scenes must be >= 3, got 2"),
            (["synth", "--width", "0"], "--width must be >= 1, got 0"),
            (["synth", "--height", "0"], "--height must be >= 1, got 0"),
            (["synth", "--basis", "0"], "--basis must be >= 1, got 0"),
            (["synth", "--bands", "0"], "--bands must be >= 1, got 0"),
            (["synth", "--patches", "-1"], "--patches must be >= 0, got -1"),
            (["classify", "--downsample", "0"], "--downsample must be >= 1, got 0"),
            (["synth", "--mask-fraction", "1.5"], "--mask-fraction must be in [0, 1), got 1.5"),
            (["synth", "--mask-fraction", "-1"], "--mask-fraction must be in [0, 1), got -1.0"),
            (["synth", "--mask-fraction", "nan"], "--mask-fraction must be in [0, 1), got nan"),
            (["synth", "--texture", "-1"], "--texture must be finite and >= 0, got -1.0"),
            (["synth", "--texture", "nan"], "--texture must be finite and >= 0, got nan"),
            (["synth", "--texture", "inf"], "--texture must be finite and >= 0, got inf"),
            (["synth", "--start", "nan"], "--start must be finite, got nan"),
            (["synth", "--step", "0"], "--step must be finite and > 0, got 0.0"),
            (["synth", "--step", "nan"], "--step must be finite and > 0, got nan"),
            (["export-pca-coords", "--components", "0"], "--components must be >= 1, got 0"),
        ],
        ids=[
            "fit-rand-seed", "fit-nnmf-seed", "fit-projection-set-seed", "fit-projection-set-k",
            "fit-d-prime", "fit-nnmf-max-iter", "select-seed", "select-k", "synth-seed",
            "synth-scenes", "synth-width", "synth-height", "synth-basis", "synth-bands",
            "synth-patches", "classify-downsample", "synth-mask-fraction-high",
            "synth-mask-fraction-negative", "synth-mask-fraction-nan", "synth-texture-negative",
            "synth-texture-nan", "synth-texture-inf", "synth-start-nan", "synth-step-0",
            "synth-step-nan", "export-pca-components",
        ],
    )
    def test_fit_and_select(self, demo_data, fitted, tmp_path, capsys, reads, argv, message):
        out = tmp_path / "out"
        proj_path, model_path, dataset = fitted
        rest = {
            # every fit method could read its scenes from here
            "fit": ["--dataset", str(demo_data[0]), "--out", str(out)],
            "classify": [
                "--model", str(model_path), "--projection", str(proj_path),
                "--cube", str(read_dataset_manifest(dataset)[1][0]),
            ],
        }
        rc = main(argv + rest.get(argv[0], ["--out", str(out)]))
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert reads == [] and not out.exists()

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--bins", "0", "--bins must be >= 2, got 0"),
            ("--bins", "1", "--bins must be >= 2, got 1"),
            ("--downsample", "0", "--downsample must be >= 1, got 0"),
            ("--smoothing", "nan", "--smoothing must be finite and > 0, got nan"),
            ("--smoothing", "inf", "--smoothing must be finite and > 0, got inf"),
            ("--smoothing", "0", "--smoothing must be finite and > 0, got 0.0"),
            ("--smoothing", "-1", "--smoothing must be finite and > 0, got -1.0"),
        ],
        ids=[
            "bins", "bins-one", "downsample", "smoothing-nan", "smoothing-inf", "smoothing-0",
            "smoothing-neg",
        ],
    )
    def test_build_model(self, fitted, tmp_path, capsys, reads, option, value, message):
        proj_path, _, dataset = fitted
        out = tmp_path / "m.cbcm"
        argv = ["build-model", "--projection", str(proj_path), "--dataset", str(dataset)]
        rc = main(argv + ["--bins", "8", option, value, "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert reads == [] and not out.exists()

    def test_build_model_cell_space_needs_only_the_projection(
        self, fitted, tmp_path, capsys, reads
    ):
        proj_path, _, dataset = fitted  # a 2-D projection: 2**32 bins give 2**64 cells
        out = tmp_path / "m.cbcm"
        argv = ["build-model", "--projection", str(proj_path), "--dataset", str(dataset)]
        rc = main(argv + ["--bins", str(2**32), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: --bins 4294967296 at d' = 2: histogram cell space is too large to index\n"
        )
        assert reads == ["read_projection"] and not out.exists()
        run_ok(capsys, argv + ["--bins", str(2**31), "--downsample", "2", "--out", str(out)])
        assert reads.count("read_scube") == 4  # the counter sees a valid build's scenes

    def test_build_model_smoothing_past_its_cells_needs_only_the_projection(
        self, fitted, tmp_path, capsys, reads
    ):
        # 1e305 * 1000**2 overflows: the model it built had every probability
        # 0 and failed to read back
        proj_path, _, dataset = fitted
        out = tmp_path / "m.cbcm"
        argv = ["build-model", "--projection", str(proj_path), "--dataset", str(dataset),
                "--downsample", "2", "--out", str(out)]
        rc = main(argv + ["--bins", "1000", "--smoothing", "1e305"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: --smoothing 1e+305 times 1000000 cells is not finite\n"
        )
        assert reads == ["read_projection"] and not out.exists()
        run_ok(capsys, argv + ["--bins", "1000", "--smoothing", "1e300"])
        assert (read_model(out).probs > 0).all()

    def test_build_model_takes_b_up_to_max_bins(self, fitted, tmp_path, capsys, reads):
        # a 1-D projection: 2**32 bins fit int64 cells but not the .cbcm u32
        _, _, dataset = fitted
        proj_path, out = tmp_path / "one.proj", tmp_path / "m.cbcm"
        run_ok(capsys, ["fit", "--method", "ill_pca", "--d-prime", "1", "--out", str(proj_path)])
        reads.clear()
        argv = ["build-model", "--projection", str(proj_path), "--dataset", str(dataset),
                "--downsample", "2", "--out", str(out)]
        assert main(argv + ["--bins", str(2**32)]) == 1
        assert capsys.readouterr().err == (
            "error: --bins 4294967296 at d' = 1: "
            "n_bins must be <= MAX_BINS = 4294967295, got 4294967296\n"
        )
        assert reads == ["read_projection"] and not out.exists()
        run_ok(capsys, argv + ["--bins", str(2**32 - 1)])
        assert read_model(out).n_bins == 2**32 - 1


class TestDownsampleThatDoesNotDivideNamesOptionAndCube:
    """A --downsample that does not divide a cube fails naming the option
    and the cube, before any output."""

    def test_fit(self, demo_data, tmp_path, capsys):
        out = tmp_path / "p.proj"
        argv = ["fit", "--method", "pca", "--dataset", str(demo_data[0]), "--out", str(out)]
        assert main(argv + ["--downsample", "3"]) == 1
        first = read_dataset_manifest(demo_data[0])[0][0]
        assert capsys.readouterr().err == (
            f"error: {first}: --downsample factor 3 does not divide image size 32x32\n"
        )
        assert not out.exists()

    def test_build_model(self, fitted, tmp_path, capsys):
        proj_path, _, dataset = fitted
        out = tmp_path / "m.cbcm"
        argv = ["build-model", "--projection", str(proj_path), "--dataset", str(dataset)]
        assert main(argv + ["--bins", "8", "--downsample", "3", "--out", str(out)]) == 1
        first = read_dataset_manifest(dataset)[0][0]
        assert capsys.readouterr().err == (
            f"error: {first}: --downsample factor 3 does not divide image size 8x8\n"
        )
        assert not out.exists()

    def test_classify(self, fitted, capsys):
        proj_path, model_path, dataset = fitted
        cube = read_dataset_manifest(dataset)[1][0]
        argv = ["classify", "--model", str(model_path), "--projection", str(proj_path)]
        assert main(argv + ["--cube", str(cube), "--downsample", "3"]) == 1
        assert capsys.readouterr() == (
            "", f"error: {cube}: --downsample factor 3 does not divide image size 8x8\n"
        )


class TestCubesReadThroughTheLoader:
    """`fit`, `build-model` and `classify` read their cubes through the
    runner's loader: each cube once, a cube off the illuminants' grid failing
    by its file name, before any output."""

    @pytest.mark.parametrize("method", ["pca", "nnmf", "lda"])
    def test_fit_reads_each_training_cube_once(
        self, method, workspace, tmp_path, capsys, monkeypatch
    ):
        paths = []
        read = evaluation.read_scube
        monkeypatch.setattr(evaluation, "read_scube", lambda p: paths.append(p) or read(p))
        dataset = workspace / "scenes" / "dataset.txt"
        run_ok(capsys, [
            "fit", "--method", method, "--d-prime", "2", "--nnmf-max-iter", "5",
            "--dataset", str(dataset), "--downsample", "2", "--out", str(tmp_path / "p.proj"),
        ])
        assert paths == read_dataset_manifest(dataset)[0]

    @pytest.mark.parametrize("command", ["fit", "build-model"])
    def test_training_cube_off_the_grid_named(self, command, workspace, fitted, tmp_path, capsys):
        train, test = read_dataset_manifest(workspace / "scenes" / "dataset.txt")
        img = read_scube(train[1])
        shifted = tmp_path / "shifted.scube"
        write_scube(shifted, replace(img, axis=SpectralAxis(410.0, 10.0, img.n_bands)))
        train[1] = shifted
        manifest = tmp_path / "dataset.txt"
        write_dataset_manifest(manifest, [str(p) for p in train], [str(p) for p in test])
        out = tmp_path / "out"
        argv = {
            "fit": ["fit", "--method", "pca", "--d-prime", "2"],
            "build-model": ["build-model", "--projection", str(fitted[0]), "--bins", "8"],
        }[command]
        assert main(argv + ["--dataset", str(manifest), "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", (
            f"error: {shifted}: scene grid [410..710 nm step 10 (31 bands)] "
            "does not match illuminants\n"
        ))
        assert not out.exists()

    def test_classify_cube_off_the_grid_named(self, fitted, tmp_path, capsys):
        # same band count as the model's projection, on another grid than the illuminants'
        proj_path, model_path, dataset = fitted
        img = read_scube(read_dataset_manifest(dataset)[1][0])
        shifted = tmp_path / "shifted.scube"
        write_scube(shifted, replace(img, axis=SpectralAxis(410.0, 10.0, img.n_bands)))
        argv = ["classify", "--model", str(model_path), "--projection", str(proj_path)]
        assert main(argv + ["--cube", str(shifted)]) == 1
        assert capsys.readouterr() == ("", (
            f"error: {shifted}: scene grid [410..710 nm step 10 (31 bands)] "
            "does not match illuminants\n"
        ))

    @pytest.mark.parametrize("command", ["fit", "grid", "export-pca-coords"])
    def test_projection_set_naming_an_unknown_illuminant(
        self, command, demo_data, tmp_path, capsys
    ):
        names = tmp_path / "pset.txt"
        write_name_list(names, ["D65", "x", "A"])
        out = tmp_path / "out.csv"
        if command != "grid":
            argv = [command, "--projection-set", str(names)]
            argv += ["--method", "ill_pca"] if command == "fit" else []
        else:
            config = tmp_path / "grid.cfg"
            config.write_text(
                f"dataset = {demo_data[0]}\nilluminants = {bundled_illuminant_manifest()}\n"
                f"methods = ill_pca\nprojection_set = {names}\n", encoding="utf-8",
            )
            argv = ["grid", "--config", str(config)]
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"error: {names}: names not in set: ['x']\n")
        assert not out.exists()


class TestBoundsFromTheIlluminantsNameTheirOption:
    """A setting past a bound that only the illuminant set fixes fails with
    a one-line diagnostic that names its option, before any output."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["export-pca-coords", "--components", "32"],
                "--components 32: ill_pca cannot fit d' = 32: "
                "the 28 projection-set SPDs support at most 18 components",
            ),
            (
                ["export-pca-coords", "--components", "28"],
                "--components 28: ill_pca cannot fit d' = 28: "
                "the 28 projection-set SPDs support at most 18 components",
            ),
            (
                ["export-pca-coords", "--components", "27"],
                "--components 27: ill_pca cannot fit d' = 27: "
                "the 28 projection-set SPDs support at most 18 components",
            ),
            (
                ["export-pca-coords", "--components", "4", "--projection-set", "four"],
                "--components 4: ill_pca cannot fit d' = 4: "
                "the 4 projection-set SPDs support at most 3 components",
            ),
            (["select-projection-set", "--k", "40"], "--k 40: cannot pick 40 from 28 illuminants"),
            (
                ["fit", "--method", "ill_pca", "--projection-set-k", "40", "--d-prime", "2"],
                "--projection-set-k 40: cannot pick 40 from 28 illuminants",
            ),
            (
                ["fit", "--method", "ill_pca", "--projection-set-k", "28", "--d-prime", "19"],
                "ill_pca cannot fit d' = 19: "
                "the 28 projection-set SPDs support at most 18 components",
            ),
        ],
        ids=[
            "components-32", "components-28", "components-27", "components-set", "select-k",
            "fit-projection-set-k", "fit-ill-pca-19",
        ],
    )
    def test_upper_bound(self, tmp_path, capsys, reads, argv, message):
        out = tmp_path / "out"
        write_name_list(tmp_path / "four", ["A", "D65", "F2", "LED-B1"])
        argv = [str(tmp_path / a) if a == "four" else a for a in argv]
        rc = main(argv + ["--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert reads[0] == "load_illuminants" and not out.exists()


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


    @pytest.mark.parametrize(
        "truth, names, message",
        [
            ("bogus", None, "--truth 'bogus' is not in the illuminant set"),
            ("D65", ("D65", "A"), "model candidates not in the illuminant set: D50, D55, "),
        ],
        ids=["unknown-truth", "unknown-candidates"],
    )
    def test_truth_resolved_before_any_output(
        self, fitted, tmp_path, capsys, reads, truth, names, message
    ):
        proj_path, model_path, dataset = fitted
        argv = [
            "classify", "--model", str(model_path), "--projection", str(proj_path),
            "--cube", str(read_dataset_manifest(dataset)[1][0]), "--truth", truth,
        ]
        if names is not None:  # an illuminant set without most of the model's candidates
            bundled = bundled_illuminant_manifest().parent
            manifest = tmp_path / "few.txt"
            write_illuminant_manifest(
                manifest, [(str(bundled / f"{n.lower()}.csv"), n) for n in names]
            )
            argv += ["--illuminants", str(manifest)]
        rc = main(argv)
        out = capsys.readouterr()
        assert rc == 1 and out.out == ""
        assert out.err.startswith(f"error: {message}") and out.err.count("\n") == 1
        assert "read_scube" not in reads

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

    @pytest.mark.parametrize("command, runner", [("grid", run_grid), ("noise", run_noise)])
    def test_csv_bytes_equal_the_runners(self, demo_data, tmp_path, capsys, command, runner):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"dataset = {demo_data[0]}\nilluminants = {bundled_illuminant_manifest()}\n"
            "methods = ill_pca, sgw\nd_primes = 2\nbins = 5\n"
            "noise_d_prime = 2\nnoise_bins = 5\nnoise_levels = 20\n"
        )
        out, raw = tmp_path / "cli.csv", tmp_path / "cli_raw.csv"
        printed = run_ok(
            capsys, [command, "--config", str(cfg), "--out", str(out), "--raw", str(raw)]
        )
        report = runner(parse_config(cfg))
        report.write_csv(tmp_path / "api.csv")
        report.write_raw_csv(tmp_path / "api_raw.csv")
        assert out.read_bytes() == (tmp_path / "api.csv").read_bytes()
        assert raw.read_bytes() == (tmp_path / "api_raw.csv").read_bytes()
        assert printed == f"wrote {len(report.rows)} rows: {out} (raw: {raw})\n"

    @pytest.mark.parametrize("command", ["grid", "noise"])
    def test_report_commands_share_their_options(self, command, capsys):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = capsys.readouterr().out
        assert "aggregate CSV path" in text and "per-case CSV path" in text

    @pytest.mark.parametrize("command, key", [("grid", "bins"), ("noise", "noise_bins")])
    def test_one_bin_rejected_before_any_scene_is_read(
        self, workspace, tmp_path, capsys, reads, command, key
    ):
        # one bin ties every candidate, so its argmax would be index 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"dataset = {workspace / 'scenes' / 'dataset.txt'}\n"
            f"illuminants = {bundled_illuminant_manifest()}\n"
            f"methods = ill_pca\n{key} = 1\n"
        )
        out = tmp_path / "out.csv"
        rc = main([command, "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("error: ") and err.count("\n") == 1
        assert f"{key} must be >= 2, got " in err
        assert reads == ["parse_config"] and not out.exists()

    def test_error_is_one_line_diagnostic(self, tmp_path, capsys):
        rc = main(["grid", "--config", str(tmp_path / "missing.cfg"), "--out", "x"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ")


class TestBundledIlluminants:
    @pytest.mark.parametrize(
        "argv",
        [
            ["select-projection-set", "--out", "o"],
            ["fit", "--method", "rand", "--out", "o"],
            ["build-model", "--projection", "p", "--dataset", "d", "--bins", "2", "--out", "o"],
            ["classify", "--model", "m", "--projection", "p", "--cube", "c"],
            ["export-pca-coords", "--out", "o"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_omitted_manifest_is_the_bundled_one(self, argv):
        assert cli.build_parser().parse_args(argv).illuminants == bundled_illuminant_manifest()

    def test_omitted_manifest_is_read(self, tmp_path, capsys, monkeypatch):
        paths = []

        def read(path):
            paths.append(path)
            return load_illuminants(path)

        monkeypatch.setattr(cli, "load_illuminants", read)
        run_ok(capsys, ["export-pca-coords", "--out", str(tmp_path / "c.csv")])
        assert paths == [bundled_illuminant_manifest()]


class TestExportCoords:
    def test_coordinate_table(self, tmp_path, capsys):
        out_path = tmp_path / "coords.csv"
        run_ok(capsys, ["export-pca-coords", "--out", str(out_path)])
        lines = out_path.read_text().splitlines()
        assert lines[0] == "name,c1,c2,c3"
        assert len(lines) == 29
        assert lines[1].startswith("A,")
