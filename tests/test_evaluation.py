"""Metrics, report formatting, configuration, and the evaluation runners."""

import hashlib
import sys
from dataclasses import MISSING, fields, replace

import numpy as np
import pytest

from illumest import cbc, evaluation, synth_dataset
from illumest.bundled import bundled_illuminant_manifest
from illumest.cbc import build_model, classify, score
from illumest.evaluation import (
    CaseResult,
    CaseTable,
    ErrorSummary,
    EvalReport,
    GridConfig,
    ReportRow,
    angular_error_deg,
    parse_config,
    run_grid,
    run_noise,
    summarize,
    _Runner,
    training_chromaticities,
)
from illumest.illuminants import Illuminant, IlluminantSet
from illumest.io import FormatError, read_sensitivities, write_spd_csv
from illumest.projections import ALL_KINDS, fit_ill_pca
from illumest.spectral import (
    SpectralAxis,
    SpectralImage,
    Spectrum,
    add_noise,
    chromaticity_rows,
    mix_seed,
    relight,
)


class TestAngularError:
    def test_closed_forms(self):
        assert angular_error_deg(
            np.array([1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0])
        ) == pytest.approx(0.0, abs=1e-12)
        assert angular_error_deg(
            np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
        ) == pytest.approx(90.0, abs=1e-12)
        assert angular_error_deg(
            np.array([1.0, 0.0]), np.array([1.0, 1.0])
        ) == pytest.approx(45.0, abs=1e-9)
        assert angular_error_deg(
            np.array([1.0, 0.0]), np.array([1.0, np.sqrt(3.0)])
        ) == pytest.approx(60.0, abs=1e-9)

    def test_symmetry_and_scale_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = rng.random(8) + 1e-3
            b = rng.random(8) + 1e-3
            e1 = angular_error_deg(a, b)
            assert e1 == pytest.approx(angular_error_deg(b, a), abs=1e-10)
            assert e1 == pytest.approx(angular_error_deg(3.7 * a, 0.2 * b), abs=1e-9)

    def test_accepts_spectra(self):
        axis = SpectralAxis(400, 10, 3)
        a = Spectrum(axis, [1.0, 0.0, 0.0])
        b = Spectrum(axis, [0.0, 2.0, 0.0])
        assert angular_error_deg(a, b) == pytest.approx(90.0, abs=1e-12)

    def test_near_parallel_is_clamped_not_nan(self):
        v = np.array([0.3, 0.4, 0.5])
        e = angular_error_deg(v, v * (1.0 + 1e-16))
        assert e == pytest.approx(0.0, abs=1e-5)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            angular_error_deg(np.zeros(3), np.ones(3))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            angular_error_deg(np.ones(3), np.ones(4))


class TestSummarize:
    def test_four_values(self):
        s = summarize(np.array([1.0, 2.0, 3.0, 4.0]))
        assert s.mean == pytest.approx(2.5)
        assert s.median == pytest.approx(2.5)
        assert s.trimean == pytest.approx(2.5)  # (1.75 + 2*2.5 + 3.25)/4
        assert s.best25 == pytest.approx(1.0)
        assert s.worst25 == pytest.approx(4.0)
        assert s.n == 4

    def test_five_values_with_outlier(self):
        s = summarize(np.array([0.0, 1.0, 2.0, 3.0, 10.0]))
        assert s.mean == pytest.approx(3.2)
        assert s.median == pytest.approx(2.0)
        assert s.trimean == pytest.approx(2.0)  # (1 + 2*2 + 3)/4
        assert s.best25 == pytest.approx(0.5)  # ceil(5/4)=2 smallest: 0, 1
        assert s.worst25 == pytest.approx(6.5)  # 3, 10
        assert s.n == 5

    def test_single_value(self):
        s = summarize(np.array([7.0]))
        assert s.mean == s.median == s.trimean == s.best25 == s.worst25 == 7.0
        assert s.n == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize(np.array([]))


class TestReport:
    # errors[p, t]: predicting B when A is true is 3.25 degrees off
    table = CaseTable(("s0",), ("A", "B"), np.array([[0.0, 7.5], [3.25, 0.0]]))

    def row(self, **kw):
        base = dict(
            method="pca", d_prime=3, n_bins=30, variant="-", noise_label="-",
            summary=ErrorSummary(1.5, 1.25, 1.0, 0.5, 2.5, 8),
            predicted=np.array([[1, 1]]), table=self.table,
        )
        base.update(kw)
        return ReportRow(**base)

    def test_cases_view(self):
        assert self.row().cases == [
            CaseResult("s0", "A", "B", 3.25), CaseResult("s0", "B", "B", 0.0)
        ]
        assert self.row(variant="avg", predicted=None, table=None).cases is None

    def test_row_summary_gathers_the_error_table(self):
        table = CaseTable(("s0", "s1"), ("A", "B"), np.array([[0.0, 7.5], [3.25, 0.0]]))
        predicted = np.array([[1, 0], [0, 0]])
        row = table.row(predicted, "pca", 3, 30, "-", "-")
        assert (row.method, row.d_prime, row.n_bins, row.variant, row.noise_label) == (
            "pca", 3, 30, "-", "-"
        )
        assert row.predicted is predicted and row.table is table
        # scene-major: s0 (A -> B, B -> A), then s1 (A -> A, B -> A)
        assert row.summary == summarize(np.array([3.25, 7.5, 0.0, 7.5]))

    def test_csv_golden_lines(self, tmp_path):
        report = EvalReport([self.row()])
        p = tmp_path / "report.csv"
        report.write_csv(p)
        lines = p.read_text().splitlines()
        assert lines[0] == (
            "method,d_prime,B,variant,noise_db,mean,median,trimean,best25,worst25,n"
        )
        assert lines[1] == "pca,3,30,-,-,1.5,1.25,1.0,0.5,2.5,8"

    def test_raw_csv_golden_lines(self, tmp_path):
        report = EvalReport([self.row()])
        p = tmp_path / "raw.csv"
        report.write_raw_csv(p)
        lines = p.read_text().splitlines()
        assert lines[0] == (
            "method,d_prime,B,variant,noise_db,scene,true_illuminant,predicted,error_deg"
        )
        assert lines[1] == "pca,3,30,-,-,s0,A,B,3.25"
        assert lines[2] == "pca,3,30,-,-,s0,B,B,0.0"

    def test_averaged_rows_skipped_in_raw(self, tmp_path):
        rows = [self.row(), self.row(variant="avg", predicted=None, table=None)]
        p = tmp_path / "raw.csv"
        EvalReport(rows).write_raw_csv(p)
        assert len(p.read_text().splitlines()) == 3

    def test_sort_order(self):
        mk = self.row
        rows = [
            mk(method="rand", variant="avg", predicted=None, table=None),
            mk(method="rand", variant="43"),
            mk(method="rand", variant="42"),
            mk(method="pca", d_prime=5),
            mk(method="pca", d_prime=2),
            mk(method="ill_pca", noise_label="20"),
            mk(method="ill_pca", noise_label="40"),
            mk(method="ill_pca", noise_label="clean"),
            mk(method="sgw", d_prime=None, n_bins=None),
        ]
        ordered = EvalReport(rows).sorted_rows()
        keys = [(r.method, r.d_prime, r.variant, r.noise_label) for r in ordered]
        assert keys == [
            ("ill_pca", 3, "-", "clean"),
            ("ill_pca", 3, "-", "40"),
            ("ill_pca", 3, "-", "20"),
            ("pca", 2, "-", "-"),
            ("pca", 5, "-", "-"),
            ("rand", 3, "42", "-"),
            ("rand", 3, "43", "-"),
            ("rand", 3, "avg", "-"),
            ("sgw", None, "-", "-"),
        ]


class TestGridConfig:
    def base_kwargs(self, tmp_path):
        return dict(
            dataset=tmp_path / "dataset.txt",
            illuminants=tmp_path / "manifest.txt",
            methods=("pca",),
        )

    def test_defaults(self, tmp_path):
        cfg = GridConfig(**self.base_kwargs(tmp_path))
        assert cfg.d_primes == (1, 2, 3, 4, 5)
        assert cfg.bins == (5, 10, 20, 30)
        assert cfg.rand_seeds == (42, 43, 44)
        assert cfg.downsample_fit == 8
        assert cfg.downsample_lda == 16
        assert cfg.downsample_eval == 4
        assert cfg.score_mode == "log"
        assert cfg.allow_overlap is False
        assert cfg.noise_levels == (50.0, 40.0, 30.0, 20.0, 10.0)
        assert cfg.noise_method == "ill_pca"
        assert cfg.noise_d_prime == 4
        assert cfg.noise_bins == 20

    def test_unknown_method_rejected(self, tmp_path):
        kw = self.base_kwargs(tmp_path)
        kw["methods"] = ("pca", "magic")
        with pytest.raises(ValueError):
            GridConfig(**kw)

    def test_rgb_needs_cameras(self, tmp_path):
        kw = self.base_kwargs(tmp_path)
        kw["methods"] = ("rgb",)
        with pytest.raises(ValueError):
            GridConfig(**kw)

    def test_bad_score_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            GridConfig(**self.base_kwargs(tmp_path), score_mode="cosine")

    @pytest.mark.parametrize(
        "key, least",
        [
            ("d_primes", 1), ("bins", 1), ("rand_seeds", 0), ("projection_set_k", 2),
            ("projection_set_seed", 0), ("downsample_fit", 1), ("downsample_lda", 1),
            ("downsample_eval", 1), ("nnmf_seed", 0), ("nnmf_max_iter", 1),
            ("noise_master_seed", 0), ("noise_d_prime", 1), ("noise_bins", 1),
        ],
    )
    def test_values_below_their_least_rejected(self, tmp_path, key, least):
        below = (2, least - 1) if key in ("d_primes", "bins", "rand_seeds") else least - 1
        with pytest.raises(ValueError, match=f"{key} must be >= {least}"):
            GridConfig(**{**self.base_kwargs(tmp_path), key: below})
        if key in ("d_primes", "bins", "rand_seeds"):
            with pytest.raises(ValueError, match=f"{key} must be >= {least}, got \\(\\)"):
                GridConfig(**{**self.base_kwargs(tmp_path), key: ()})

    @pytest.mark.parametrize(
        "key, values",
        [
            ("methods", ("pca", "pca")),
            ("d_primes", (2, 3, 2)),
            ("bins", (5, 5)),
            ("rand_seeds", (42, 42)),
            ("noise_levels", (20.0, 20)),
        ],
    )
    def test_repeated_sweep_values_rejected(self, tmp_path, key, values):
        with pytest.raises(ValueError, match=f"{key} must be unique"):
            GridConfig(**{**self.base_kwargs(tmp_path), key: values})


class TestParseConfig:
    def write(self, tmp_path, text):
        p = tmp_path / "run.cfg"
        p.write_text(text)
        return p

    def test_minimal_with_comments(self, tmp_path):
        p = self.write(
            tmp_path,
            "# demo run\n"
            "dataset = scenes/dataset.txt\n"
            "illuminants = lights/manifest.txt\n"
            "methods = pca, ill_pca\n",
        )
        cfg = parse_config(p)
        assert cfg.methods == ("pca", "ill_pca")
        assert cfg.dataset == (tmp_path / "scenes/dataset.txt").resolve()
        assert cfg.illuminants == (tmp_path / "lights/manifest.txt").resolve()

    def test_typed_values(self, tmp_path):
        p = self.write(
            tmp_path,
            "dataset = d.txt\nilluminants = i.txt\nmethods = rand\n"
            "d_primes = 2, 4\nbins = 10\nrand_seeds = 7, 8\n"
            "smoothing = 0.001\nallow_overlap = true\nscore_mode = dot\n"
            "noise_levels = 40, 20\n",
        )
        cfg = parse_config(p)
        assert cfg.d_primes == (2, 4)
        assert cfg.bins == (10,)
        assert cfg.rand_seeds == (7, 8)
        assert cfg.smoothing == 0.001
        assert cfg.allow_overlap is True
        assert cfg.score_mode == "dot"
        assert cfg.noise_levels == (40.0, 20.0)

    def test_unknown_key_rejected(self, tmp_path):
        p = self.write(
            tmp_path,
            "dataset = d.txt\nilluminants = i.txt\nmethods = pca\nshade = 1\n",
        )
        with pytest.raises(FormatError) as exc:
            parse_config(p)
        assert "shade" in str(exc.value)

    def test_duplicate_key_rejected(self, tmp_path):
        p = self.write(
            tmp_path,
            "dataset = d.txt\ndataset = e.txt\nilluminants = i.txt\nmethods = pca\n",
        )
        with pytest.raises(FormatError):
            parse_config(p)

    def test_missing_required_rejected(self, tmp_path):
        p = self.write(tmp_path, "dataset = d.txt\nmethods = pca\n")
        with pytest.raises(FormatError) as exc:
            parse_config(p)
        assert "illuminants" in str(exc.value)

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_degenerate_smoothing_rejected(self, tmp_path, value):
        p = self.write(
            tmp_path,
            f"dataset = d.txt\nilluminants = i.txt\nmethods = pca\nsmoothing = {value}\n",
        )
        with pytest.raises(FormatError, match="smoothing"):
            parse_config(p)

    @pytest.mark.parametrize(
        "line",
        [
            "methods = ill_pca, pca, ill_pca",
            "d_primes = 2, 2",
            "bins = 5, 10, 5",
            "rand_seeds = 7, 7",
            "noise_levels = 20, 20.0",
        ],
    )
    def test_repeated_sweep_values_rejected(self, tmp_path, line):
        key = line.split(" = ")[0]
        text = f"dataset = d.txt\nilluminants = i.txt\n{line}\n"
        if key != "methods":
            text += "methods = pca\n"
        p = self.write(tmp_path, text)
        with pytest.raises(FormatError, match=f"run.cfg: {key} must be unique"):
            parse_config(p)

    def test_bad_bool_rejected(self, tmp_path):
        p = self.write(
            tmp_path,
            "dataset = d.txt\nilluminants = i.txt\nmethods = pca\n"
            "allow_overlap = yes\n",
        )
        with pytest.raises(FormatError):
            parse_config(p)

    def test_every_key_set_matches_the_direct_config(self, tmp_path):
        text = (
            "dataset = d.txt\nilluminants = i.txt\nmethods = rgb, lda\n"
            "d_primes = 2, 3\nbins = 7\ncameras = cams/a.csv, b.csv\n"
            "rand_seeds = 9\nprojection_set = names.txt\nprojection_set_k = 12\n"
            "projection_set_seed = 3\ndownsample_fit = 2\ndownsample_lda = 4\n"
            "downsample_eval = 1\nnnmf_seed = 5\nnnmf_max_iter = 40\n"
            "score_mode = dot\nsmoothing = 0.01\nallow_overlap = true\n"
            "noise_master_seed = 99\nnoise_levels = 35, 12.5\n"
            "noise_method = pca\nnoise_d_prime = 2\nnoise_bins = 8\n"
        )
        cfg = parse_config(self.write(tmp_path, text))
        base = tmp_path.resolve()
        assert cfg == GridConfig(
            dataset=base / "d.txt",
            illuminants=base / "i.txt",
            methods=("rgb", "lda"),
            d_primes=(2, 3),
            bins=(7,),
            cameras=(base / "cams/a.csv", base / "b.csv"),
            rand_seeds=(9,),
            projection_set=base / "names.txt",
            projection_set_k=12,
            projection_set_seed=3,
            downsample_fit=2,
            downsample_lda=4,
            downsample_eval=1,
            nnmf_seed=5,
            nnmf_max_iter=40,
            score_mode="dot",
            smoothing=0.01,
            allow_overlap=True,
            noise_master_seed=99,
            noise_levels=(35.0, 12.5),
            noise_method="pca",
            noise_d_prime=2,
            noise_bins=8,
        )
        # the file sets every field, each away from its default
        keys = {line.partition("=")[0].strip() for line in text.splitlines()}
        assert keys == {f.name for f in fields(GridConfig)}
        for f in fields(GridConfig):
            assert f.default is MISSING or getattr(cfg, f.name) != f.default, f.name

    def test_accepted_keys_are_the_config_fields(self):
        assert set(evaluation._FIELD_PARSERS) == {f.name for f in fields(GridConfig)}
        # a field type without a parser fails when the module builds its table
        with pytest.raises(TypeError, match="no config parser"):
            evaluation._field_parser(complex)

    @pytest.mark.parametrize("key", ["dataset", "projection_set"])
    def test_empty_path_rejected(self, tmp_path, key):
        values = {"dataset": "d.txt", "illuminants": "i.txt", "methods": "pca"}
        values[key] = ""
        text = "".join(f"{k} = {v}\n" for k, v in values.items())
        lineno = list(values).index(key) + 1
        p = self.write(tmp_path, text)
        with pytest.raises(FormatError, match=rf"run\.cfg:{lineno}: .*path"):
            parse_config(p)


class TestTrainingChromaticities:
    def test_candidate_major_rows_and_labels(self):
        axis = SpectralAxis(400, 10, 3)
        img = SpectralImage(axis, np.array([[[2.0, 1.0, 1.0]]]), np.ones((1, 1), dtype=bool))
        cands = IlluminantSet(
            (
                Illuminant("c0", Spectrum(axis, [1.0, 2.0, 4.0])),
                Illuminant("c1", Spectrum(axis, [1.0, 1.0, 1.0])),
            )
        )
        t = training_chromaticities([img], cands, labelled=True)
        assert t.n_rows == 2
        np.testing.assert_allclose(t.rows[0], [0.25, 0.25, 0.5], atol=1e-15)
        np.testing.assert_allclose(t.rows[1], [0.5, 0.25, 0.25], atol=1e-15)
        np.testing.assert_array_equal(t.labels, [0, 1])
        np.testing.assert_allclose(t.rows.sum(axis=1), 1.0, atol=0)

    def test_unlabelled_by_default(self):
        axis = SpectralAxis(400, 10, 2)
        img = SpectralImage(axis, np.full((1, 1, 2), 1.0), np.ones((1, 1), dtype=bool))
        cands = IlluminantSet((Illuminant("c", Spectrum(axis, [1.0, 3.0])),))
        t = training_chromaticities([img], cands)
        assert t.labels is None

    def test_rows_are_the_shared_l1_step_renormalized(self):
        axis = SpectralAxis(400, 10, 5)
        rng = np.random.default_rng(3)
        data = rng.random((4, 3, 5)) * rng.integers(0, 2, (4, 3, 1))  # black pixels
        images = [
            SpectralImage(axis, data, rng.random((4, 3)) > 0.2),
            SpectralImage(axis, rng.random((2, 2, 5)) * 7.0, np.ones((2, 2), bool)),
        ]
        cands = IlluminantSet(
            tuple(
                Illuminant(f"c{j}", Spectrum(axis, rng.random(5) + 0.01))
                for j in range(3)
            )
        )
        expected = np.concatenate(
            [
                chromaticity_rows(img.valid_pixels() * ill.spd.values)[0]
                for ill in cands
                for img in images
            ]
        )
        expected = expected / expected.sum(axis=1, keepdims=True)
        rows = training_chromaticities(images, cands).rows
        assert rows.tobytes() == expected.tobytes()


def demo_config(demo_data, **overrides):
    manifest, _ = demo_data
    kw = dict(
        dataset=manifest,
        illuminants=bundled_illuminant_manifest(),
        methods=("ill_pca",),
        d_primes=(2,),
        bins=(5,),
        downsample_eval=8,
    )
    kw.update(overrides)
    return GridConfig(**kw)


def ill_pca_model(runner, d_prime, n_bins):
    """The runner's ill_pca model at (d', B), built outside the sweep."""
    proj = fit_ill_pca(runner.proj_set, d_prime)
    return build_model(runner.train_eval, runner.full, proj, n_bins)


class TestRunners:
    def test_grid_report_is_reproducible_byte_for_byte(self, demo_data, tmp_path):
        cfg = demo_config(demo_data)
        p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        run_grid(cfg).write_csv(p1)
        run_grid(demo_config(demo_data)).write_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_grid_row_shape_and_case_counts(self, demo_data):
        report = run_grid(demo_config(demo_data, d_primes=(2, 3)))
        rows = report.sorted_rows()
        assert [(r.d_prime, r.n_bins) for r in rows] == [(2, 5), (3, 5)]
        # 8 held-out scenes x 28 candidates
        assert all(r.summary.n == 8 * 28 for r in rows)
        assert all(len(r.cases) == r.summary.n for r in rows)

    def test_rand_variants_and_average_row(self, demo_data):
        cfg = demo_config(demo_data, methods=("rand",), rand_seeds=(42, 43))
        rows = run_grid(cfg).sorted_rows()
        assert [r.variant for r in rows] == ["42", "43", "avg"]
        avg, first, second = rows[2], rows[0], rows[1]
        assert avg.summary.mean == pytest.approx(
            (first.summary.mean + second.summary.mean) / 2
        )
        assert avg.summary.n == first.summary.n + second.summary.n
        assert avg.cases is None

    def test_sgw_row_has_no_grid_parameters(self, demo_data, tmp_path):
        cfg = demo_config(demo_data, methods=("sgw",))
        report = run_grid(cfg)
        row = report.sorted_rows()[0]
        assert row.method == "sgw"
        assert row.d_prime is None and row.n_bins is None
        p = tmp_path / "sgw.csv"
        report.write_csv(p)
        assert p.read_text().splitlines()[1].startswith("sgw,-,-,-,-,")

    def test_rgb_rows_pinned_to_three_dims(self, demo_data, bundled_cameras):
        cfg = demo_config(
            demo_data,
            methods=("rgb",),
            d_primes=(2, 3, 4),
            cameras=(bundled_cameras[0],),
        )
        rows = run_grid(cfg).sorted_rows()
        assert len(rows) == 1
        assert rows[0].d_prime == 3
        assert rows[0].variant == "camera_a"

    def test_noise_clean_row_matches_grid_row(self, demo_data):
        # rand has variants, so its clean rows include their average
        for method, variants in (("ill_pca", ["-"]), ("rand", ["42", "43", "avg"])):
            cfg = demo_config(
                demo_data,
                methods=(method,),
                rand_seeds=(42, 43),
                noise_method=method,
                noise_d_prime=2,
                noise_bins=5,
                noise_levels=(20.0,),
            )
            grid_rows = {r.variant: r for r in run_grid(cfg).sorted_rows()}
            noise_rows = run_noise(cfg).sorted_rows()
            cleans = [r for r in noise_rows if r.noise_label == "clean"]
            assert [r.variant for r in cleans] == list(grid_rows) == variants
            for clean in cleans:
                grid_row = grid_rows[clean.variant]
                assert (clean.d_prime, clean.n_bins) == (grid_row.d_prime, grid_row.n_bins)
                assert clean.summary == grid_row.summary
                assert clean.cases == grid_row.cases

    def test_rgb_noise_rows_pinned_to_three_dims(self, demo_data, bundled_cameras):
        cfg = demo_config(
            demo_data,
            methods=("rgb",),
            cameras=tuple(bundled_cameras[:2]),
            bins=(5,),
            noise_method="rgb",
            noise_d_prime=7,
            noise_bins=5,
            noise_levels=(20.0,),
        )
        noise_rows = run_noise(cfg).sorted_rows()
        assert {r.d_prime for r in noise_rows} == {3}
        grid_rows = {r.variant: r for r in run_grid(cfg).sorted_rows()}
        cleans = [r for r in noise_rows if r.noise_label == "clean"]
        assert [r.variant for r in cleans] == ["camera_a", "camera_b", "avg"]
        for clean in cleans:
            grid_row = grid_rows[clean.variant]
            assert (clean.d_prime, clean.n_bins) == (grid_row.d_prime, grid_row.n_bins)
            assert clean.summary == grid_row.summary
            assert clean.cases == grid_row.cases

    def test_no_case_objects_in_the_sweep_or_the_writers(self, demo_data, tmp_path, monkeypatch):
        # rows hold index arrays; a `CaseResult` is made only when `cases` is read
        made = []

        def counted(*args):
            made.append(args)
            return CaseResult(*args)

        monkeypatch.setattr(evaluation, "CaseResult", counted)
        cfg = demo_config(
            demo_data, methods=("rand", "sgw"), rand_seeds=(42, 43),
            noise_method="rand", noise_levels=(20.0,),
        )
        reports = [run_grid(cfg), run_noise(cfg)]
        for report in reports:
            report.write_csv(tmp_path / "report.csv")
            report.write_raw_csv(tmp_path / "raw.csv")
        assert made == []
        row = reports[0].sorted_rows()[0]
        assert len(row.cases) == len(made) == row.summary.n

    def test_noise_rows_labeled_and_ordered(self, demo_data):
        cfg = demo_config(
            demo_data,
            noise_method="ill_pca",
            noise_d_prime=2,
            noise_bins=5,
            noise_levels=(40.0, 10.0),
        )
        rows = run_noise(cfg).sorted_rows()
        assert [r.noise_label for r in rows] == ["clean", "40", "10"]
        assert all(r.method == "ill_pca" for r in rows)

    def test_overlapping_split_rejected_by_default(self, demo_data, tmp_path):
        from illumest.io import read_dataset_manifest, write_dataset_manifest

        manifest, _ = demo_data
        train, test = read_dataset_manifest(manifest)
        bad = tmp_path / "overlap.txt"
        write_dataset_manifest(
            bad, [str(p) for p in train] + [str(test[0])], [str(p) for p in test]
        )
        with pytest.raises(ValueError):
            run_grid(demo_config(demo_data, dataset=bad))
        run_grid(demo_config(demo_data, dataset=bad, allow_overlap=True))


class TestUnfittableDPrime:
    """A d' beyond a method's structural limit is rejected before any fit;
    the demo runs use 31 bands and a 10-candidate projection set."""

    @pytest.fixture
    def fits(self, monkeypatch):
        calls = []
        for kind in ("rgb", "rand", "pca", "ill_pca", "nnmf", "lda"):
            fit = getattr(evaluation, f"fit_{kind}")

            def recorded(*args, _fit=fit, _kind=kind, **kwargs):
                calls.append(_kind)
                return _fit(*args, **kwargs)

            monkeypatch.setattr(evaluation, f"fit_{kind}", recorded)
        return calls

    @pytest.mark.parametrize(
        "methods, d_primes, bad",
        [
            (("pca", "lda"), (5, 10), ("lda", 10)),
            (("ill_pca",), (5, 10), ("ill_pca", 10)),
            (("rand",), (3, 32), ("rand", 32)),
            (("pca",), (32,), ("pca", 32)),
            (("nnmf",), (2, 32), ("nnmf", 32)),
        ],
        ids=["lda", "ill_pca", "rand", "pca", "nnmf"],
    )
    def test_grid_rejects_before_the_first_fit(
        self, demo_data, fits, methods, d_primes, bad
    ):
        cfg = demo_config(demo_data, methods=methods, d_primes=d_primes)
        with pytest.raises(ValueError, match=rf"{bad[0]} cannot fit d' = {bad[1]}"):
            run_grid(cfg)
        assert fits == []

    def test_noise_settings_checked_only_by_the_noise_run(self, demo_data, fits):
        cfg = demo_config(demo_data, noise_method="lda", noise_d_prime=10)
        with pytest.raises(ValueError, match="lda cannot fit d' = 10"):
            run_noise(cfg)
        assert fits == []
        run_grid(cfg)
        assert fits == ["ill_pca"]

    def test_camera_off_the_grid_rejected_before_any_work(
        self, demo_data, bundled_cameras, fits, tmp_path, monkeypatch
    ):
        sens = read_sensitivities(bundled_cameras[0])
        shifted = tmp_path / "shifted.csv"
        write_spd_csv(shifted, SpectralAxis(410.0, 10.0, sens.axis.count), sens.rows.T)
        calls = []
        classify = evaluation.classify
        monkeypatch.setattr(
            evaluation, "classify", lambda *a, **k: calls.append(1) or classify(*a, **k)
        )
        cfg = demo_config(
            demo_data, methods=("ill_pca", "rgb"), d_primes=(2, 3), bins=(5, 10),
            cameras=(bundled_cameras[1], shifted),
        )
        with pytest.raises(ValueError, match="shifted: camera grid does not match"):
            run_grid(cfg)
        assert calls == [] and fits == []
        run_grid(replace(cfg, cameras=cfg.cameras[:1]))
        # one classify per model: ill_pca at two d' and two B, rgb at two B
        assert len(calls) == 2 * 2 + 2 and fits == ["ill_pca", "ill_pca", "rgb"]

    def test_rgb_ignores_d_primes(self, demo_data, bundled_cameras, fits):
        cfg = demo_config(
            demo_data, methods=("rgb",), d_primes=(40,), cameras=(bundled_cameras[0],)
        )
        assert [r.d_prime for r in run_grid(cfg).rows] == [3]
        assert fits == ["rgb"]


class TestRejectedBeforeAnyWork:
    """Settings that would fail part way through a run, or quietly change
    what it computes, are rejected before the first fit or classify call;
    the demo scenes are 32x32."""

    @pytest.fixture
    def calls(self, monkeypatch):
        log = []
        names = [f"fit_{kind}" for kind in ("rgb", "rand", "pca", "ill_pca", "nnmf", "lda")]
        for name in names + ["classify"]:
            original = getattr(evaluation, name)

            def recorded(*args, _original=original, _name=name, **kwargs):
                log.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(evaluation, name, recorded)
        return log

    @pytest.mark.parametrize(
        "overrides, match",
        [
            (dict(methods=("ill_pca", "rand"), rand_seeds=(42, -1)), "rand_seeds must be >= 0"),
            (dict(methods=("ill_pca", "nnmf"), nnmf_seed=-1), "nnmf_seed must be >= 0"),
            (dict(projection_set_seed=-1), "projection_set_seed must be >= 0"),
            (dict(noise_master_seed=-1), "noise_master_seed must be >= 0"),
            (dict(methods=("ill_pca", "nnmf"), nnmf_max_iter=0), "nnmf_max_iter must be >= 1"),
        ],
        ids=["rand_seeds", "nnmf_seed", "projection_set_seed", "noise_master_seed", "max_iter"],
    )
    def test_bad_seed_or_iteration_count(self, demo_data, calls, overrides, match):
        for run in (run_grid, run_noise):
            with pytest.raises(ValueError, match=match):
                run(demo_config(demo_data, **overrides))
        assert calls == []

    @pytest.mark.parametrize(
        "overrides, match",
        [
            (dict(methods=("ill_pca", "pca"), downsample_fit=5), "downsample_fit 5 does not"),
            (dict(methods=("ill_pca", "nnmf"), downsample_fit=3), "downsample_fit 3 does not"),
            (dict(methods=("ill_pca", "lda"), downsample_lda=3), "downsample_lda 3 does not"),
            (dict(d_primes=(1, 5), bins=(5, 10**4)), "cell space is too large to index"),
        ],
        ids=["pca", "nnmf", "lda", "cell-space"],
    )
    def test_sweep_rejects_before_the_first_fit(self, demo_data, calls, overrides, match):
        cfg = demo_config(demo_data, **overrides)
        with pytest.raises(ValueError, match=match):
            run_grid(cfg)
        assert calls == []

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(projection_set_k=40), "projection_set_k 40: cannot pick 40 from 28 illuminants"),
            (
                # the 28 bundled SPDs span 18 centered dimensions, not min(k - 1, bands)
                dict(projection_set_k=28, d_primes=(2, 19)),
                "ill_pca cannot fit d' = 19: "
                "the 28 projection-set SPDs support at most 18 components",
            ),
        ],
        ids=["projection-set-k", "ill-pca-spd-rank"],
    )
    def test_projection_set_bounds_before_any_scene_is_read(
        self, demo_data, calls, monkeypatch, overrides, message
    ):
        reads = []
        read_scube = evaluation.read_scube
        monkeypatch.setattr(
            evaluation, "read_scube", lambda *a, **k: reads.append(1) or read_scube(*a, **k)
        )
        with pytest.raises(ValueError) as info:
            run_grid(demo_config(demo_data, **overrides))
        assert str(info.value) == message
        assert reads == [] and calls == []

    def test_rgb_cell_space_counts_three_dimensions(self, demo_data, bundled_cameras, calls):
        # (3 * 10**6) ** 3 passes the int64 range; d' = 1 alone would not
        cfg = demo_config(
            demo_data, methods=("ill_pca", "rgb"), d_primes=(1,), bins=(5, 3 * 10**6),
            cameras=(bundled_cameras[0],),
        )
        with pytest.raises(ValueError, match="histogram cell space is too large to index"):
            run_grid(cfg)
        assert calls == []

    def test_factors_checked_only_for_methods_that_fit_from_training(self, demo_data, calls):
        cfg = demo_config(
            demo_data, methods=("ill_pca", "rand"), downsample_fit=5, downsample_lda=3
        )
        assert len(run_grid(cfg).rows) == 5  # ill_pca, three rand seeds and their average
        assert len(calls) == 4 + 4  # four fits, and one classify per model


class TestCaseTable:
    def test_errors_are_the_full_pairwise_angles(self, demo_data):
        # the runner fills the upper triangle and mirrors it
        runner = _Runner(demo_config(demo_data))
        spds = [ill.spd for ill in runner.full]
        full = np.array([[angular_error_deg(p, t) for t in spds] for p in spds])
        assert runner.table.errors.tobytes() == full.tobytes()


class TestSweepCalls:
    """The sweep fits and featurizes each (method, d', variant) once: one
    folded `cbc.pixel_features` call on the training pixels and one per clean
    test scene for every kind, nnmf included, plus one call per `relit_rows`
    run for noisy cases only. It builds one model per B from those training
    features, and scores every test scene in one classify call per model and
    noise level from the held test features: the counts the benchmark's
    traces rely on."""

    @pytest.fixture
    def events(self, monkeypatch):
        log = []
        names = [f"fit_{kind}" for kind in ("rgb", "rand", "pca", "ill_pca", "nnmf", "lda")]
        names += ["training_features", "build_model", "classify"]
        owners = [(evaluation, name) for name in names]
        owners += [(cbc, "pixel_features"), (_Runner, "test_features")]
        for owner, name in owners:
            original = getattr(owner, name)

            def recorded(*args, _original=original, _name=name, **kwargs):
                result = _original(*args, **kwargs)
                positional = args[1] if _name == "classify" else None
                if _name == "pixel_features":  # rows, and the SPDs of a folded call
                    positional = (args[1], args[2] if len(args) > 2 else None)
                log.append((_name, kwargs.get("features", positional), result))
                return result

            monkeypatch.setattr(owner, name, recorded)
        return log

    @staticmethod
    def expected(fits, n_bins, n_noisy, n_scenes, n_runs):
        """Per fit: its training features, one folded call; the clean test
        features, one folded call per scene; each noisy level's relit runs;
        then per B a model and one classify per level."""
        out = []
        for fit in fits:
            training = ["pixel_features", "training_features"]
            clean = ["pixel_features"] * n_scenes + ["test_features"]
            noisy = ["pixel_features"] * (n_scenes * n_runs) + ["test_features"]
            per_model = ["build_model"] + ["classify"] * (1 + n_noisy)
            out += [fit] + training + clean + noisy * n_noisy + per_model * n_bins
        return out

    def test_one_fit_and_featurization_per_projection(
        self, demo_data, bundled_cameras, events
    ):
        # a scene's 28 noisy cases of 16 rows relight in one run
        self.check_sweeps(demo_data, bundled_cameras, events, n_runs=1)

    def test_one_classify_per_level_when_cases_split_into_runs(
        self, demo_data, bundled_cameras, events, monkeypatch
    ):
        # at 100 rows a scene's relit cases split into runs of 6
        monkeypatch.setattr(cbc, "BATCH_ROWS", 100)
        self.check_sweeps(demo_data, bundled_cameras, events, n_runs=5)

    def test_one_classify_per_level_when_cases_split_into_row_runs(
        self, demo_data, bundled_cameras, events, monkeypatch
    ):
        # at 10 rows each relit case's 16 rows split into runs of 10 and 6
        monkeypatch.setattr(cbc, "BATCH_ROWS", 10)
        self.check_sweeps(demo_data, bundled_cameras, events, n_runs=28 * 2)

    def test_only_noisy_cases_and_fit_matrices_relight(
        self, demo_data, bundled_cameras, monkeypatch
    ):
        # Every kind's clean features fold, nnmf's too: `relit_rows` serves
        # the fit matrices (`training_chromaticities`) and the noisy test
        # cases alone, whichever module's name for it a caller uses.
        calls = []
        original = cbc.relit_rows

        def recorded(featurize, pixels, spds, noise=None):
            calls.append((sys._getframe(1).f_code.co_name, featurize, noise is not None))
            return original(featurize, pixels, spds, noise)

        monkeypatch.setattr(cbc, "relit_rows", recorded)
        monkeypatch.setattr(evaluation, "relit_rows", recorded)
        cfg = demo_config(
            demo_data,
            methods=ALL_KINDS,
            cameras=tuple(bundled_cameras[:1]),
            nnmf_max_iter=20,
            noise_method="nnmf",
            noise_d_prime=2,
            noise_bins=5,
            noise_levels=(20.0,),
        )
        run_grid(cfg)
        # the fit matrices alone: one pca and nnmf share, and lda's labelled one
        assert calls == [("training_chromaticities", chromaticity_rows, False)] * 2
        calls.clear()
        run_noise(cfg)
        names = [name for name, _, _ in calls]
        assert names == ["training_chromaticities"] + ["test_features"] * 8  # one per scene
        assert all(noisy for name, _, noisy in calls if name == "test_features")

    def check_sweeps(self, demo_data, bundled_cameras, events, n_runs):
        cfg = demo_config(
            demo_data,
            methods=("rand", "rgb", "ill_pca", "nnmf"),
            d_primes=(2, 3),
            bins=(5, 10),
            rand_seeds=(42, 43),
            cameras=tuple(bundled_cameras[:2]),
            nnmf_max_iter=20,
            noise_method="rand",
            noise_d_prime=2,
            noise_bins=5,
            noise_levels=(30.0, 10.0),
        )
        n_scenes = 8  # held-out demo scenes of 16 pixels
        report = run_grid(cfg)
        fits = ["fit_rand"] * 4 + ["fit_rgb"] * 2 + ["fit_ill_pca"] * 2 + ["fit_nnmf"] * 2
        runs = dict(n_scenes=n_scenes, n_runs=n_runs)
        assert [e[0] for e in events] == self.expected(fits, 2, 0, **runs)
        assert len(report.rows) == 10 * 2 + 4 + 2  # cells, rand and rgb averages per (d', B)
        self.assert_features_reused(events, n_bins=2)
        events.clear()
        run_noise(cfg)
        assert [e[0] for e in events] == self.expected(["fit_rand"] * 2, 1, 2, **runs)
        self.assert_features_reused(events, n_bins=1)

    @staticmethod
    def assert_features_reused(events, n_bins):
        """Each model is built from the training features computed just
        before it, and each projection's models score the test features made
        once for that projection at each level, in the order they were made,
        once per B. A folded call takes the 256 training pixels or a test
        scene's 16 under all 28 SPDs; no relit run passes the cap."""
        features, tests, scored = None, [], []
        for name, passed, result in events + [("fit_end", None, None)]:
            if name == "pixel_features":
                rows, spds = passed
                if spds is None:
                    assert 0 < len(rows) <= cbc.BATCH_ROWS
                else:
                    assert len(rows) in (256, 16) and spds.shape == (28, rows.shape[1])
                    assert result[1].shape == (28, len(rows))
            elif name.startswith("fit_"):
                assert scored == tests * n_bins
                tests, scored = [], []
            elif name == "training_features":
                features = result
            elif name == "test_features":
                tests.append(id(result))
            elif name == "build_model":
                assert passed is features
            elif name == "classify":
                scored.append(id(passed))


class TestBatchedEvaluation:
    """The sweep scores every test scene's cases in one batch, from the
    runner's `test_features`; these pin that to the per-case relight /
    add_noise / classify pipeline."""

    def per_case_predictions(self, runner, model, noise_db):
        master = runner.config.noise_master_seed
        out = []
        for i, img in enumerate(runner.test_eval):
            for j, ill in enumerate(runner.full):
                radiance = relight(img, ill.normalized_spd())
                if noise_db is not None:
                    radiance = add_noise(radiance, noise_db, mix_seed(master, i, j))
                out.append(classify(model, radiance)[0])
        return out

    @staticmethod
    def sweep_predictions(runner, model, noise_db):
        """What the sweep predicts: one `evaluation.classify` call over every scene."""
        scenes = runner.test_features(model.projection, noise_db)
        return evaluation.classify(model, scenes)[0].ravel().tolist()

    @pytest.mark.parametrize("batch_rows", [None, 1, 5, 100])
    @pytest.mark.parametrize("noise_db", [None, 20.0])
    def test_cases_match_per_case_classify(
        self, demo_data, noise_db, batch_rows, monkeypatch
    ):
        # None keeps the default (one run per scene here); 1 featurizes one
        # row per call, 5 cuts each case's 16 rows into runs of 5, 5, 5 and
        # 1, and 100 rows splits each scene's cases unevenly.
        if batch_rows is not None:
            monkeypatch.setattr(cbc, "BATCH_ROWS", batch_rows)
        cfg = demo_config(demo_data, noise_d_prime=2, noise_bins=5, noise_levels=(20.0,))
        runner = _Runner(cfg)
        model = ill_pca_model(runner, 2, 5)
        expected = self.per_case_predictions(runner, model, noise_db)
        assert self.sweep_predictions(runner, model, noise_db) == expected
        # the sweep's report carries the same predictions, in scene-major order
        report = runner.noise() if noise_db else runner.grid()
        (row,) = [r for r in report.rows if r.noise_label in ("-", "20")]
        assert [c.predicted for c in row.cases] == expected
        assert [(c.scene, c.true_name) for c in row.cases] == [
            (scene, ill.name) for scene in runner.table.scenes for ill in runner.full
        ]

    @pytest.mark.parametrize("noise_db", [None, 20.0])
    def test_scenes_of_different_sizes_match_per_case_classify(self, demo_data, noise_db):
        # Masking a different number of each 16-pixel test scene's pixels (one
        # scene keeps one) pads the stacked features' rows scene by scene.
        runner = _Runner(demo_config(demo_data))
        train, test = runner._scenes
        ragged = []
        for i, img in enumerate(test):
            mask = img.mask.copy()
            mask.reshape(-1)[: i * 5 % 16] = False
            ragged.append(replace(img, mask=mask))
        runner.__dict__["_scenes"] = (train, ragged)
        sizes = [16, 11, 6, 1, 12, 7, 2, 13]
        assert [len(img.valid_pixels()) for img in runner.test_eval] == sizes
        model = ill_pca_model(runner, 2, 5)
        scenes = runner.test_features(model.projection, noise_db)
        assert scenes.kept.shape == (8, len(runner.full), 16)
        assert scenes.kept.sum(axis=(1, 2)).tolist() == [len(runner.full) * n for n in sizes]
        expected = self.per_case_predictions(runner, model, noise_db)
        assert self.sweep_predictions(runner, model, noise_db) == expected

    @pytest.mark.parametrize("batch_rows", [None, 1, 5, 100])
    @pytest.mark.parametrize("noise_db", [None, 20.0])
    def test_test_features_score_as_their_stacks(
        self, demo_data, noise_db, batch_rows, monkeypatch
    ):
        # The runner featurizes each run of cases, or of one case's rows, by
        # its own call and scores every scene at every B in one call; scene
        # i's scores must equal scoring each run of its per-case relit (and
        # noisy) images' stack.
        if batch_rows is not None:
            monkeypatch.setattr(cbc, "BATCH_ROWS", batch_rows)
        runner = _Runner(demo_config(demo_data))
        master = runner.config.noise_master_seed
        proj = fit_ill_pca(runner.proj_set, 2)
        models = [build_model(runner.train_eval, runner.full, proj, b) for b in (5, 10)]
        scenes = runner.test_features(proj, noise_db)
        assert scenes.projection is proj
        assert scenes.kept.shape[:2] == (len(runner.test_eval), len(runner.full))
        scores = [score(model, scenes) for model in models]
        for i, img in enumerate(runner.test_eval):
            cases = []
            for j, ill in enumerate(runner.full):
                radiance = relight(img, ill.normalized_spd())
                if noise_db is not None:
                    radiance = add_noise(radiance, noise_db, mix_seed(master, i, j))
                cases.append(radiance.valid_pixels())
            stack = np.stack(cases)
            assert not scenes.kept[i, :, stack.shape[1] :].any()  # padding is unkept
            runs = cbc.batch_runs(*stack.shape[:2])
            for model, scored in zip(models, scores):
                stacks = [score(model, stack[run.start : run.stop]) for run in runs]
                assert scored[i].tobytes() == np.concatenate(stacks).tobytes()

    def test_ties_resolve_to_the_lowest_index(self, demo_data):
        runner = _Runner(demo_config(demo_data))
        model = ill_pca_model(runner, 2, 5)
        # every candidate shares the first one's histogram, so all scores tie
        n = len(model.candidate_names)
        tied = replace(
            model,
            probs=np.repeat(model.probs[:1], n, axis=0),
            occupied=np.repeat(model.occupied[:1], n, axis=0),
        )
        predicted = self.sweep_predictions(runner, tied, None)
        assert set(predicted) == {tied.candidate_names[0]}
        assert predicted == self.per_case_predictions(runner, tied, None)


def report_config(tmp_path, cameras):
    """Every projection and sgw, rand and rgb with two variants each (so
    with `avg` rows), on a small synthetic split; noise on rand at 20 dB."""
    manifest, _ = synth_dataset(
        tmp_path / "scenes", 6, SpectralAxis(), base_seed=5, width=16, height=16
    )
    return GridConfig(
        dataset=manifest,
        illuminants=bundled_illuminant_manifest(),
        methods=("rgb", "rand", "pca", "ill_pca", "nnmf", "lda", "sgw"),
        d_primes=(1, 2),
        bins=(5,),
        cameras=tuple(cameras[:2]),
        rand_seeds=(42, 43),
        downsample_fit=4,
        downsample_lda=8,
        nnmf_max_iter=40,
        noise_method="rand",
        noise_d_prime=2,
        noise_bins=5,
        noise_levels=(20.0,),
    )


class TestReportBytes:
    def test_report_bytes_pinned(self, tmp_path, bundled_cameras):
        # sha256 of both CSVs of a grid and a noise report, on numpy's
        # scipy-openblas build; another BLAS may round the fits apart
        cfg = report_config(tmp_path, bundled_cameras)
        digests = []
        for report in (run_grid(cfg), run_noise(cfg)):
            for write in (report.write_csv, report.write_raw_csv):
                path = tmp_path / "out.csv"
                write(path)
                digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
        assert digests == [
            "d3609392960e477235560fa49364cfcf592343d840faae6bd580b13e10c0a055",
            "9ff257a1e56200c75087cefeb93e7208cf484cfdda13650e4636ff1066d2ec07",
            "a6df9405b4aa5d927d2c158eb0629dd9227144946650c36880179200a0f7eeff",
            "fa7b7194c9a945ac21a20e348b6c2cb1efce851dc5cb6982c0239756f495d213",
        ]
