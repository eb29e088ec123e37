"""Metrics, report formatting, configuration, and the evaluation runners."""

import hashlib
import math
import sys
import weakref
from dataclasses import MISSING, astuple, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from illumest import cbc, evaluation, linalg, projections, synth_dataset
from illumest.baselines import spectral_gray_world
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
    summarize_rows,
    _Runner,
    _average_rows,
    training_chromaticities,
)
from illumest.illuminants import Illuminant, IlluminantSet
from illumest.io import (
    FormatError,
    read_dataset_manifest,
    read_scube,
    read_sensitivities,
    write_dataset_manifest,
    write_name_list,
    write_scube,
    write_spd_csv,
)
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


def oracle_summary(errors) -> ErrorSummary:
    """One row's summary, each statistic on the 1-D array alone: the oracle
    for `summarize_rows`."""
    errs = np.asarray(errors, dtype=np.float64)
    q1, q2, q3 = np.quantile(errs, [0.25, 0.5, 0.75])
    m = math.ceil(errs.size / 4)
    ordered = np.sort(errs)
    return ErrorSummary(
        mean=float(errs.mean()),
        median=float(np.median(errs)),
        trimean=float((q1 + 2 * q2 + q3) / 4),
        best25=float(ordered[:m].mean()),
        worst25=float(ordered[-m:].mean()),
        n=int(errs.size),
    )


def summary_bytes(summary: ErrorSummary) -> bytes:
    """The five statistics' float bytes and n, to compare bit for bit."""
    return np.array(astuple(summary)[:5]).tobytes() + str(summary.n).encode()


@st.composite
def error_matrices(draw):
    """(rows, n) angular errors, n from 1 to 40, drawn partly from a few
    shared values so that rows repeat them."""
    rows, n = draw(st.integers(1, 6)), draw(st.integers(1, 40))
    angle = st.floats(0.0, 180.0, allow_nan=False)
    shared = draw(st.lists(angle, min_size=1, max_size=4))
    values = st.one_of(st.sampled_from(shared), angle)
    return np.array(draw(st.lists(values, min_size=rows * n, max_size=rows * n))).reshape(rows, n)


class TestSummarize:
    @settings(max_examples=300, deadline=None)
    @given(error_matrices())
    def test_rows_match_the_one_row_oracle_bit_for_bit(self, errors):
        summaries = summarize_rows(errors)
        assert len(summaries) == len(errors)
        for summary, row in zip(summaries, errors):
            assert summary_bytes(summary) == summary_bytes(oracle_summary(row))
            assert summary_bytes(summarize(row)) == summary_bytes(summary)

    @pytest.mark.parametrize("members", [2, 3])
    def test_average_rows_match_the_per_field_mean_bit_for_bit(self, members):
        rng = np.random.default_rng(members)
        rows = []
        for g in range(50):  # 50 groups of `members` variants, plus a lone row
            for v in range(members):
                stats = rng.random(5) * rng.choice([1e-3, 1.0, 180.0])
                rows.append(ReportRow("rand", g, 5, str(v), "-", ErrorSummary(*stats, 224)))
        rows.append(ReportRow("ill_pca", 2, 5, "-", "-", ErrorSummary(*rng.random(5), 224)))
        averaged = _average_rows(rows)
        assert [(r.method, r.d_prime, r.variant) for r in averaged] == [
            ("rand", g, "avg") for g in range(50)
        ]
        for r in averaged:
            group = [m.summary for m in rows if m.d_prime == r.d_prime and m.method == "rand"]
            expected = ErrorSummary(
                *(float(np.mean([getattr(m, f) for m in group]))
                  for f in ("mean", "median", "trimean", "best25", "worst25")),
                n=members * 224,
            )
            assert summary_bytes(r.summary) == summary_bytes(expected)

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
        predicted, exact = np.array([[1, 0], [0, 0]]), np.array([[0, 1], [0, 1]])
        row, other = table.report_rows(
            [(("pca", 3, 30, "-", "-"), predicted), (("pca", 3, 30, "-", "20"), exact)]
        )
        assert (row.method, row.d_prime, row.n_bins, row.variant, row.noise_label) == (
            "pca", 3, 30, "-", "-"
        )
        assert row.predicted is predicted and row.table is table
        assert other.noise_label == "20" and other.predicted is exact and other.table is table
        # scene-major: s0 (A -> B, B -> A), then s1 (A -> A, B -> A)
        assert row.summary == summarize(np.array([3.25, 7.5, 0.0, 7.5]))
        assert other.summary == summarize(np.zeros(4))

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
            ("d_primes", 1), ("bins", 2), ("rand_seeds", 0), ("projection_set_k", 2),
            ("projection_set_seed", 0), ("downsample_fit", 1), ("downsample_lda", 1),
            ("downsample_eval", 1), ("nnmf_seed", 0), ("nnmf_max_iter", 1),
            ("noise_master_seed", 0), ("noise_d_prime", 1), ("noise_bins", 2),
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

    @pytest.mark.parametrize("level", [7000.0, -7000.0, -6200.0, math.inf, -math.inf, math.nan])
    def test_noise_level_past_float_range_rejected(self, tmp_path, level):
        # 7000 dB overflowed only in run_noise, after the scenes were read and fitted
        with pytest.raises(ValueError, match="noise_levels: snr_db must keep 10"):
            GridConfig(**{**self.base_kwargs(tmp_path), "noise_levels": (20.0, level)})


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

    def test_lines_read_as_manifest_lines(self, tmp_path):
        # blank, indented, '#' and CRLF lines are read as every manifest's are
        plain = "dataset = d.txt\nilluminants = i.txt\nmethods = pca, rand\nbins = 7\n"
        padded = (
            "# a run\r\n\n  dataset = d.txt\n\t# indented comment\n   \n"
            "illuminants = i.txt  \r\n  methods = pca, rand\n\n\tbins = 7"
        )
        want = parse_config(self.write(tmp_path, plain))
        assert parse_config(self.write(tmp_path, padded)) == want
        # a malformed line is named by its own number, blank and comment lines counted
        p = self.write(tmp_path, "# a run\n\n  dataset = d.txt\n   \n  bins\n")
        with pytest.raises(FormatError, match=r"run\.cfg:5: expected 'key = value'$"):
            parse_config(p)
        p = self.write(tmp_path, "#\n\n\tbins = two\n")
        with pytest.raises(FormatError, match=r"run\.cfg:3: "):
            parse_config(p)

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

    def test_cases_share_one_error_float_per_pair(self, demo_data):
        # every row's cases read `CaseTable.error_rows`, so a report holds one
        # float per (predicted, true) pair, not one per case
        cfg = demo_config(
            demo_data, methods=("rand", "sgw", "ill_pca"), rand_seeds=(42, 43), d_primes=(1, 2)
        )
        case_rows = [r.cases for r in run_grid(cfg).rows if r.cases is not None]
        assert len(case_rows) == 2 * 2 + 1 + 2
        shared = {}
        for cases in case_rows:
            for c in cases:
                assert shared.setdefault((c.predicted, c.true_name), c.error_deg) is c.error_deg
        assert len(shared) > 28  # wrong answers too, not just the diagonal

    @pytest.mark.parametrize("run", [run_grid, run_noise])
    def test_eval_downsample_that_does_not_divide_names_option_and_scene(self, demo_data, run):
        first = read_dataset_manifest(demo_data[0])[0][0]
        with pytest.raises(ValueError) as info:
            run(demo_config(demo_data, downsample_eval=3))
        assert str(info.value) == (
            f"{first}: downsample_eval factor 3 does not divide image size 32x32"
        )

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

    @pytest.mark.parametrize("method", ["ill_pca", "sgw"])
    def test_test_scene_without_valid_pixels_rejected_before_any_fit(
        self, demo_data, fits, tmp_path, method
    ):
        train, test = read_dataset_manifest(demo_data[0])
        img = read_scube(test[1])
        write_scube(tmp_path / "masked.scube", replace(img, mask=np.zeros_like(img.mask)))
        test[1] = tmp_path / "masked.scube"
        manifest = tmp_path / "manifest.txt"
        write_dataset_manifest(manifest, [str(p) for p in train], [str(p) for p in test])
        cfg = demo_config((manifest, None), methods=(method,))
        for run in (run_grid, run_noise):
            with pytest.raises(ValueError, match="masked.scube: test scene has no valid pixel"):
                run(cfg)
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
        # one classify per model: ill_pca at two d' and two B, rgb at two B;
        # ill_pca is fitted once, at d' = 3, and serves d' = 2 from its leading component
        assert len(calls) == 2 * 2 + 2 and fits == ["ill_pca", "rgb"]

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
            (dict(methods=("ill_pca", "pca"), downsample_fit=5),
             "downsample_fit factor 5 does not"),
            (dict(methods=("ill_pca", "nnmf"), downsample_fit=3),
             "downsample_fit factor 3 does not"),
            (dict(methods=("ill_pca", "lda"), downsample_lda=3),
             "downsample_lda factor 3 does not"),
            (dict(d_primes=(1, 5), bins=(5, 10**4)), "cell space is too large to index"),
            (dict(d_primes=(1,), bins=(5, 2**32)), "n_bins must be <= MAX_BINS = 4294967295"),
        ],
        ids=["pca", "nnmf", "lda", "cell-space", "max-bins"],
    )
    def test_sweep_rejects_before_the_first_fit(self, demo_data, calls, overrides, match):
        cfg = demo_config(demo_data, **overrides)
        with pytest.raises(ValueError, match=match) as info:
            run_grid(cfg)
        assert calls == []
        if "factor" in match:  # the scene read names the first training scene
            first = read_dataset_manifest(demo_data[0])[0][0]
            assert str(info.value) == f"{first}: {match} divide image size 32x32"

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

    def test_noise_bins_past_max_bins(self, demo_data, calls):
        cfg = demo_config(demo_data, noise_d_prime=1, noise_bins=2**32)
        with pytest.raises(ValueError, match="n_bins must be <= MAX_BINS = 4294967295"):
            run_noise(cfg)
        assert calls == []

    @pytest.mark.parametrize(
        "run, overrides, message",
        [
            (run_grid, dict(d_primes=(1,), bins=(5, 2**32)),
             "bins 4294967296 at d' = 1: n_bins must be <= MAX_BINS = 4294967295, got 4294967296"),
            (run_grid, dict(d_primes=(1, 5), bins=(5, 10**4)),
             "bins 10000 at d' = 5: histogram cell space is too large to index"),
            (run_noise, dict(noise_d_prime=1, noise_bins=2**32),
             "noise_bins 4294967296 at d' = 1: "
             "n_bins must be <= MAX_BINS = 4294967295, got 4294967296"),
            # smoothing * cells overflowed, which built every probability 0
            (run_grid, dict(d_primes=(3,), bins=(5, 30), smoothing=1e305),
             "bins 30 at d' = 3: smoothing 1e+305 times 27000 cells is not finite"),
            (run_noise, dict(noise_d_prime=3, noise_bins=30, smoothing=1e305),
             "noise_bins 30 at d' = 3: smoothing 1e+305 times 27000 cells is not finite"),
        ],
        ids=["bins", "bins-cell-space", "noise-bins", "smoothing", "noise-smoothing"],
    )
    def test_a_grid_past_the_rule_names_its_option_before_any_scene_is_read(
        self, demo_data, calls, monkeypatch, run, overrides, message
    ):
        reads = []
        read_scube = evaluation.read_scube
        monkeypatch.setattr(
            evaluation, "read_scube", lambda *a, **k: reads.append(1) or read_scube(*a, **k)
        )
        with pytest.raises(ValueError) as info:
            run(demo_config(demo_data, **overrides))
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

    def test_projection_set_naming_an_unknown_illuminant(self, demo_data, tmp_path, calls):
        names = tmp_path / "pset.txt"
        write_name_list(names, ["D65", "y", "A", "x"])
        for run in (run_grid, run_noise):
            with pytest.raises(FormatError) as info:
                run(demo_config(demo_data, projection_set=names))
            assert str(info.value) == f"{names}: names not in set: ['x', 'y']"
        assert calls == []


class TestSceneReads:
    """A run reads each cube of its manifest once, after its settings are
    checked, and downsamples it to every factor the run's fits need: every
    scene to downsample_eval, and the training scenes to downsample_fit for
    pca and nnmf and to downsample_lda for lda, never to a factor no method
    of the run uses."""

    @pytest.fixture
    def reads(self, monkeypatch):
        """Each (path, factor) pair the runner downsamples, and each path it reads."""
        log = {"read": [], "downsample": []}
        read, downsample = evaluation.read_scube, evaluation.downsample
        monkeypatch.setattr(evaluation, "read_scube", lambda p: log["read"].append(p) or read(p))

        def downsampled(image, factor):
            log["downsample"].append((log["read"][-1], factor))
            return downsample(image, factor)

        monkeypatch.setattr(evaluation, "downsample", downsampled)
        return log

    @pytest.mark.parametrize(
        "run, methods, train_factors",
        [
            (run_grid, ("pca", "nnmf", "lda"), [8, 4, 2]),
            (run_grid, ("nnmf", "ill_pca"), [8, 4]),
            (run_grid, ("ill_pca", "rand", "sgw"), [8]),
            (run_noise, ("lda", "pca"), [8, 2]),  # noise_method lda
            (run_noise, ("rand", "pca", "lda"), [8]),  # noise_method rand
        ],
        ids=["grid-pca-nnmf-lda", "grid-nnmf", "grid-no-training-fit", "noise-lda", "noise-rand"],
    )
    def test_each_cube_read_once_per_run(self, demo_data, reads, run, methods, train_factors):
        train, test = read_dataset_manifest(demo_data[0])
        cfg = demo_config(demo_data, methods=methods, d_primes=(2,), nnmf_max_iter=20,
                          downsample_fit=4, downsample_lda=2, noise_method=methods[0],
                          noise_d_prime=2, noise_levels=(20.0,))
        run(cfg)
        assert reads["read"] == train + test
        assert reads["downsample"] == (
            [(p, f) for p in train for f in train_factors] + [(p, 8) for p in test]
        )

    def test_scene_in_both_splits_read_once(self, demo_data, reads, tmp_path):
        train, test = read_dataset_manifest(demo_data[0])
        manifest = tmp_path / "overlap.txt"
        write_dataset_manifest(
            manifest, [str(p) for p in train], [str(p) for p in [train[0], *test]]
        )
        cfg = demo_config((manifest, None), methods=("pca",), allow_overlap=True,
                          downsample_fit=4)
        run_grid(cfg)
        assert reads["read"] == train + test
        assert [f for p, f in reads["downsample"] if p == train[0]] == [8, 4]

    @pytest.mark.parametrize("run", [run_grid, run_noise])
    @pytest.mark.parametrize(
        "fit, lda, train_factors", [(8, 8, [8]), (8, 2, [8, 2]), (4, 4, [8, 4])],
        ids=["all-equal", "fit-equals-eval", "fit-equals-lda"],
    )
    def test_options_of_one_factor_share_one_downsample(
        self, demo_data, reads, run, fit, lda, train_factors
    ):
        train, test = read_dataset_manifest(demo_data[0])
        cfg = demo_config(demo_data, methods=("lda", "pca"), d_primes=(2,), downsample_fit=fit,
                          downsample_lda=lda, noise_method="lda", noise_d_prime=2,
                          noise_levels=(20.0,))
        run(cfg)
        assert reads["read"] == train + test
        assert reads["downsample"] == (
            [(p, f) for p in train for f in train_factors] + [(p, 8) for p in test]
        )

    def test_options_of_one_factor_get_the_same_images(self, demo_data):
        train, test = read_dataset_manifest(demo_data[0])
        wanted = {"a": (4, train), "b": (4, train[1:] + test), "c": (2, test)}
        images = evaluation.read_scenes(wanted, SpectralAxis())
        assert all(x is y for x, y in zip(images["a"][1:], images["b"]))
        assert not any(x is y for x, y in zip(images["b"][-len(test):], images["c"]))


class TestCaseTable:
    def test_errors_are_the_full_pairwise_angles(self, demo_data):
        # the runner fills the upper triangle and mirrors it
        runner = _Runner(demo_config(demo_data))
        spds = [ill.spd for ill in runner.full]
        full = np.array([[angular_error_deg(p, t) for t in spds] for p in spds])
        assert runner.table.errors.tobytes() == full.tobytes()


def leading_view(part: np.ndarray, whole: np.ndarray) -> bool:
    """Whether `part` is a view of the leading columns of `whole`, no copy."""
    data = lambda a: a.__array_interface__["data"][0]
    return data(part) == data(whole) and part.strides == whole.strides and part.shape[0] == len(whole)


class TestSweepCalls:
    """The sweep fits and featurizes each (family, variant) once: a nested
    kind (rand, pca, ill_pca, lda) once at the largest d', nnmf at each d'
    and rgb per camera. That is one folded `cbc.pixel_features` call on the
    training pixels and one per clean test scene for every kind, nnmf
    included, plus one call per noisy case and level for noisy cases only. It
    calibrates the projection's bounds once, from its training features,
    and turns those and each level's test features into unit coordinates on
    them once. It builds one model per (B, served d') from the leading
    columns of those training features, carrying their cells on views of
    the bounds, without calibrating again, and scores every test scene in
    one classify call per model and noise level from the held test
    features. Each noisy case's noise is drawn once, from its own (scene,
    candidate) seed, and serves every level: the counts the benchmark's
    traces rely on."""

    N_CANDIDATES = 28  # bundled illuminants

    @pytest.fixture
    def events(self, monkeypatch):
        log = []
        names = [f"fit_{kind}" for kind in ("rgb", "rand", "pca", "ill_pca", "nnmf", "lda")]
        names += ["training_features", "calibrate_bounds", "unit_coordinates", "build_model"]
        names += ["classify", "mix_seed", "noise_draw"]
        owners = [(evaluation, name) for name in names]
        # cbc's own calibrate_bounds is the one a build that calibrates would call
        owners += [(cbc, "pixel_features"), (cbc, "calibrate_bounds"), (_Runner, "test_features")]
        for owner, name in owners:
            original = getattr(owner, name)

            def recorded(*args, _original=original, _name=name, **kwargs):
                result = _original(*args, **kwargs)
                positional = args[1] if _name == "classify" else None
                if _name == "pixel_features":  # rows, and the SPDs of a folded call
                    positional = (args[1], args[2] if len(args) > 2 else None)
                elif _name in ("unit_coordinates", "mix_seed"):
                    positional = args
                elif _name == "test_features":
                    positional = args[2]
                log.append((_name, kwargs.get("features", positional), result))
                return result

            monkeypatch.setattr(owner, name, recorded)
        return log

    @classmethod
    def expected(cls, fits, n_bins, n_noisy, n_scenes):
        """Every fit first, in report order; then per (fit, number of d' it
        serves): its training features, one folded call, then the bounds;
        per test scene one folded clean call, and for noisy levels per case
        one seed, one draw and one relit call per noisy level; the unit
        coordinates of the training features and then of each level; then
        per B and served d' a model and one classify per level."""
        out = [fit for fit, _ in fits]
        case = ["mix_seed", "noise_draw"] + ["pixel_features"] * n_noisy
        scene = ["pixel_features"] + (case * cls.N_CANDIDATES if n_noisy else [])
        for fit, n_served in fits:
            training = ["pixel_features", "training_features", "calibrate_bounds"]
            tests = scene * n_scenes + ["test_features"] + ["unit_coordinates"] * (2 + n_noisy)
            per_model = ["build_model"] + ["classify"] * (1 + n_noisy)
            out += training + tests + per_model * (n_bins * n_served)
        return out

    def test_one_fit_and_featurization_per_projection(
        self, demo_data, bundled_cameras, events
    ):
        # each of a scene's 28 noisy cases of 16 rows relights on its own
        self.check_sweeps(demo_data, bundled_cameras, events)

    def test_one_classify_per_level_when_cases_split_into_runs(
        self, demo_data, bundled_cameras, events, monkeypatch
    ):
        # NNLS blocks of 100 rows, fewer than a scene's 28 x 16 folded rows,
        # cut no featurization
        monkeypatch.setattr(linalg, "BATCH_ROWS", 100)
        self.check_sweeps(demo_data, bundled_cameras, events)

    def test_one_classify_per_level_when_cases_split_into_row_runs(
        self, demo_data, bundled_cameras, events, monkeypatch
    ):
        # NNLS blocks of 10 rows, fewer than a noisy case's 16, cut no case
        monkeypatch.setattr(linalg, "BATCH_ROWS", 10)
        self.check_sweeps(demo_data, bundled_cameras, events)

    def test_only_noisy_cases_and_fit_matrices_relight(
        self, demo_data, bundled_cameras, monkeypatch
    ):
        # Every kind's clean features fold, nnmf's too: only the fit matrices
        # (`training_chromaticities`, one candidate at a time) and the noisy
        # test cases (one call per case and level) featurize relit rows,
        # through `chromaticity_rows` or `pixel_features` without SPDs.
        calls = []
        for owner, name in ((cbc, "pixel_features"), (evaluation, "chromaticity_rows")):
            original = getattr(owner, name)

            def recorded(*args, _original=original, _name=name):
                caller = sys._getframe(1)
                while caller.f_code.co_name.startswith("<"):  # a comprehension's frame
                    caller = caller.f_back
                folded = _name == "pixel_features" and len(args) > 2
                calls.append((_name, caller.f_code.co_name, folded))
                return _original(*args)

            monkeypatch.setattr(owner, name, recorded)
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
        relit = lambda: [(name, caller) for name, caller, folded in calls if not folded]
        n_fit = len(_Runner(cfg).proj_set)
        fit_matrix = [("chromaticity_rows", "training_chromaticities")] * n_fit
        run_grid(cfg)
        # the fit matrices alone: one pca and nnmf share, and lda's labelled one
        assert relit() == fit_matrix * 2
        calls.clear()
        run_noise(cfg)
        # nnmf's fit matrix, then each of the 8 scenes' 28 cases at 20 dB
        assert relit() == fit_matrix + [("pixel_features", "test_features")] * 8 * 28

    def test_fit_matrices_go_before_the_first_features(self, demo_data, monkeypatch):
        # Every fit comes first, from the one read of the scenes: pca and nnmf
        # share one fit matrix and lda has its own, each built once, and
        # neither matrix nor any fit-factor scene is alive by the time any
        # features are made, but for the scenes a downsample_fit equal to
        # downsample_eval (8) shares with the run.
        made, scenes, alive = [], [], []
        chroma, read, features = (
            evaluation.training_chromaticities, evaluation.read_scenes, evaluation.training_features
        )

        def training_chromaticities(images, candidates, labelled=False):
            matrix = chroma(images, candidates, labelled)
            made.append((labelled, weakref.ref(matrix), weakref.ref(matrix.rows)))
            return matrix

        def read_scenes(wanted, axis):
            images = read(wanted, axis)
            held = set(map(id, images["downsample_eval"]))
            scenes.extend(weakref.ref(img) for option, imgs in images.items()
                          if option != "downsample_eval" for img in imgs if id(img) not in held)
            return images

        def training_features(*args):
            refs = [ref for _, *refs in made for ref in refs] + scenes
            alive.append(sum(ref() is not None for ref in refs))
            return features(*args)

        for name, wrapper in (("training_chromaticities", training_chromaticities),
                              ("read_scenes", read_scenes),
                              ("training_features", training_features)):
            monkeypatch.setattr(evaluation, name, wrapper)
        n_train = len(read_dataset_manifest(demo_data[0])[0])
        for fit_factor, own in ((4, 2), (8, 1)):  # the scenes at factors other than 8
            made.clear(), scenes.clear(), alive.clear()
            run_grid(demo_config(demo_data, methods=("pca", "lda", "nnmf"), d_primes=(2, 3),
                                 nnmf_max_iter=20, downsample_fit=fit_factor))
            assert [labelled for labelled, *_ in made] == [False, True]  # pca's (nnmf's), lda's
            assert len(scenes) == own * n_train  # at downsample_fit and at downsample_lda
            assert alive == [0] * (1 + 1 + 2)  # pca and lda once at d' = 3, nnmf at each d'

    def test_sweeps_keep_no_module_state_and_add_no_setting(self, demo_data, bundled_cameras):
        # The shared work is held by the sweep for one projection, not cached
        # by a module: no module global is rebound, added or grown by a run,
        # and the run's settings are the config fields they were.
        from illumest import linalg, projections, spectral

        def state():
            return {
                (m.__name__, name): (id(value), len(value) if isinstance(value, (dict, list, set)) else None)
                for m in (cbc, evaluation, spectral, projections, linalg)
                for name, value in vars(m).items()
            }

        cfg = demo_config(demo_data, methods=("rgb", "rand"), cameras=tuple(bundled_cameras[:1]),
                          noise_method="rand", noise_levels=(30.0, 10.0))
        before = state()
        run_grid(cfg)
        run_noise(cfg)
        assert state() == before
        assert tuple(f.name for f in fields(GridConfig)) == (
            "dataset", "illuminants", "methods", "d_primes", "bins", "cameras", "rand_seeds",
            "projection_set", "projection_set_k", "projection_set_seed", "downsample_fit",
            "downsample_lda", "downsample_eval", "nnmf_seed", "nnmf_max_iter", "score_mode",
            "smoothing", "allow_overlap", "noise_master_seed", "noise_levels", "noise_method",
            "noise_d_prime", "noise_bins",
        )

    def check_sweeps(self, demo_data, bundled_cameras, events):
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
        # rand per seed and ill_pca once at d' = 3, each serving d' 2 and 3;
        # rgb per camera; nnmf at each d'
        fits = [("fit_rand", 2)] * 2 + [("fit_rgb", 1)] * 2 + [("fit_ill_pca", 2)]
        fits += [("fit_nnmf", 1)] * 2
        assert [e[0] for e in events] == self.expected(fits, 2, 0, n_scenes)
        assert len(report.rows) == 10 * 2 + 4 + 2  # cells, rand and rgb averages per (d', B)
        self.assert_features_reused(events, n_bins=2, n_levels=1)
        events.clear()
        run_noise(cfg)
        assert [e[0] for e in events] == self.expected([("fit_rand", 1)] * 2, 1, 2, n_scenes)
        self.assert_features_reused(events, n_bins=1, n_levels=3)
        # each rand variant draws each (scene, candidate) case's noise once,
        # for both noisy levels, from that case's own seed
        seeds = [passed for name, passed, _ in events if name == "mix_seed"]
        cases = [(cfg.noise_master_seed, i, j) for i in range(n_scenes) for j in range(28)]
        assert seeds == cases * 2

    @staticmethod
    def assert_features_reused(events, n_bins, n_levels):
        """Each projection's bounds are calibrated once, from its training
        features, and those features become unit coordinates on them in
        place once; so does each level's test features, made by one
        `test_features` call. Each model is built from the leading d'
        columns of the training unit coordinates, at each B and served d' in
        turn, carrying their cells at that B on views of the leading d'
        bounds; each projection's models score the same columns of the
        levels' unit coordinates, carrying their cells at the model's B on
        views of the same bounds, in the order they were made. A folded call
        takes the 256 training pixels or a test scene's 16 under all 28 SPDs;
        a relit call takes one noisy case's 16 rows."""
        training, bounds, units, tests, scored, builds = None, None, [], [], [], []
        # every fit comes first; each projection's work starts at its training features
        for name, passed, result in events + [("training_features", None, None)]:
            if name == "pixel_features":
                rows, spds = passed
                if spds is None:
                    assert len(rows) == 16 and result[1].shape == (16,)
                else:
                    assert len(rows) in (256, 16) and spds.shape == (28, rows.shape[1])
                    assert result[1].shape == (28, len(rows))
            elif name == "training_features":
                if training is not None:
                    # the last projection's models: B-major, then every served d' in ascending order
                    served = sorted({k for _, k in builds})
                    order = [(b, k) for b in dict.fromkeys(b for b, _ in builds) for k in served]
                    assert builds == order
                    assert len(builds) == n_bins * len(served)
                    assert scored == list(range(n_levels)) * len(builds)
                    assert units == []  # every held feature set was converted, once
                training, bounds, tests, scored, builds = result, None, [], [], []
                units = [result]
            elif name == "calibrate_bounds":
                assert passed is None and bounds is None
                bounds = result
            elif name == "test_features":
                assert len(passed) == len(result) == n_levels
                units += result
            elif name == "unit_coordinates":
                feats, lo, hi = passed
                raw = units.pop(0)
                assert feats is raw.feats and result is None  # converted in place, no copy
                assert lo is bounds[0] and hi is bounds[1]
                if raw is not training:
                    tests.append(raw)
            elif name == "build_model":
                k = passed.feats.shape[1]
                assert leading_view(passed.feats, training.feats)
                assert passed.kept is training.kept
                *carried, at_b, _ = passed.cells
                assert all(b.base is whole and b.size == k for b, whole in zip(carried, bounds))
                assert at_b == result.n_bins and result.lo is carried[0] and result.hi is carried[1]
                builds.append((at_b, k))
                model = result
            elif name == "classify":
                (level,) = [i for i, t in enumerate(tests) if leading_view(passed.feats, t.feats)]
                assert passed.kept is tests[level].kept
                *carried, at_b, _ = passed.cells
                k = passed.feats.shape[1]
                assert all(b.base is whole and b.size == k for b, whole in zip(carried, bounds))
                assert (at_b, k) == (model.n_bins, model.n_dims) == builds[-1]
                scored.append(level)

class TestNestedSweep:
    """A sweep fits rand, pca, ill_pca and lda once, at its largest d', and
    serves each smaller d' from the fit's leading components and the leading
    columns of its features: every row must predict what a sweep run at
    that d' alone predicts, clean and noisy."""

    NESTED = ("rand", "pca", "ill_pca", "lda")

    @pytest.mark.parametrize("data", ["demo", "report"])
    def test_rows_equal_single_d_prime_sweeps(self, data, demo_data, bundled_cameras, tmp_path):
        if data == "demo":
            cfg = demo_config(demo_data, methods=self.NESTED, bins=(5, 10))
        else:
            cfg = replace(report_config(tmp_path, bundled_cameras), methods=self.NESTED)
        levels = [("clean", None), ("20", 20.0)]
        key = lambda r: (r.method, r.d_prime, r.n_bins, r.variant, r.noise_label)
        swept = {key(r): r for r in _Runner(cfg)._sweep(cfg.methods, (1, 2, 3), cfg.bins, levels).rows}
        alone = {}
        for d_prime in (1, 2, 3):
            rows = _Runner(cfg)._sweep(cfg.methods, (d_prime,), cfg.bins, levels).rows
            alone.update((key(r), r) for r in rows)
        assert swept.keys() == alone.keys()
        # per (d', B, level): pca, ill_pca, lda, each rand seed and the rand average
        assert len(swept) == 3 * len(cfg.bins) * len(levels) * (3 + len(cfg.rand_seeds) + 1)
        for k, row in swept.items():
            assert row.summary == alone[k].summary, k
            if row.predicted is not None:
                assert row.predicted.tobytes() == alone[k].predicted.tobytes(), k

    def test_each_projection_is_serialized_once(self, demo_data, bundled_cameras, monkeypatch):
        # a projection's digest is held with it, and each d' of a nested fit is
        # one leading projection for every B: a warm run serializes each once
        cfg = demo_config(demo_data, methods=("rgb", "rand", "ill_pca"), d_primes=(1, 2, 3),
                          bins=(5, 10), cameras=tuple(bundled_cameras[:2]))
        run_grid(cfg)
        serialized, to_bytes = [], projections.projection_to_bytes
        monkeypatch.setattr(projections, "projection_to_bytes",
                            lambda proj: serialized.append(to_bytes(proj)) or serialized[-1])
        run_grid(cfg)
        # rgb: one per camera; rand: one per seed and d'; ill_pca: one per d'
        assert len(serialized) == len(set(serialized)) == 2 + 3 * 3 + 3


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
        (scenes,) = runner.test_features(model.projection, [noise_db])
        return evaluation.classify(model, scenes)[0].ravel().tolist()

    @staticmethod
    def resize_test_scenes(runner, n_pixels):
        """Read the runner's scenes, and in every read it makes (a sweep's
        too) give each test scene `n_pixels` valid pixels, its own cycled in
        one row; None leaves the scenes as they are."""
        read = runner._read

        def resized(methods=()):
            images = read(methods)
            if n_pixels is not None:
                sized = []
                for img in runner.test_eval:
                    rows = np.resize(img.valid_pixels(), (n_pixels, img.n_bands))
                    sized.append(SpectralImage(img.axis, rows[None], np.ones((1, n_pixels), bool)))
                runner.test_eval = sized
            return images

        runner._read = resized
        runner._read()

    @pytest.mark.parametrize("n_pixels", [None, 1, 5, 100])
    @pytest.mark.parametrize("noise_db", [None, 20.0])
    def test_cases_match_per_case_classify(self, demo_data, noise_db, n_pixels):
        # None keeps the demo scenes' 16 pixels; the others give every test
        # scene 1, 5 or 100 pixels: cases of any size match.
        cfg = demo_config(demo_data, noise_d_prime=2, noise_bins=5, noise_levels=(20.0,))
        runner = _Runner(cfg)
        self.resize_test_scenes(runner, n_pixels)
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

    @pytest.mark.parametrize("n_pixels", [None, 1, 5, 100])
    def test_every_level_matches_per_case_classify(self, demo_data, n_pixels):
        # One test_features call draws each case's noise once and scales it to
        # every level; each level, and each row of the noise report, must
        # still predict as per-case relight / add_noise / classify does.
        levels = (50.0, 30.0, 20.0, 10.0)
        cfg = demo_config(demo_data, noise_d_prime=2, noise_bins=5, noise_levels=levels)
        runner = _Runner(cfg)
        self.resize_test_scenes(runner, n_pixels)
        model = ill_pca_model(runner, 2, 5)
        expected = [self.per_case_predictions(runner, model, db) for db in (None, *levels)]
        scenes = runner.test_features(model.projection, [None, *levels])
        assert [evaluation.classify(model, level)[0].ravel().tolist() for level in scenes] == expected
        rows = {r.noise_label: [c.predicted for c in r.cases] for r in runner.noise().rows}
        assert [rows[label] for label in ("clean", "50", "30", "20", "10")] == expected

    @pytest.mark.parametrize("noise_db", [None, 20.0])
    def test_scenes_of_different_sizes_match_per_case_classify(self, demo_data, noise_db):
        # Masking a different number of each 16-pixel test scene's pixels (one
        # scene keeps one) pads the stacked features' rows scene by scene.
        runner = _Runner(demo_config(demo_data))
        runner._read()
        ragged = []
        for i, img in enumerate(runner.test_eval):
            mask = img.mask.copy()
            mask.reshape(-1)[: i * 5 % 16] = False
            ragged.append(replace(img, mask=mask))
        runner.test_eval = ragged
        sizes = [16, 11, 6, 1, 12, 7, 2, 13]
        assert [len(img.valid_pixels()) for img in runner.test_eval] == sizes
        model = ill_pca_model(runner, 2, 5)
        (scenes,) = runner.test_features(model.projection, [noise_db])
        assert scenes.kept.shape == (8, len(runner.full), 16)
        assert scenes.kept.sum(axis=(1, 2)).tolist() == [len(runner.full) * n for n in sizes]
        expected = self.per_case_predictions(runner, model, noise_db)
        assert self.sweep_predictions(runner, model, noise_db) == expected

    @pytest.mark.parametrize("n_pixels", [None, 1, 5, 100])
    @pytest.mark.parametrize("noise_db", [None, 20.0])
    def test_test_features_score_as_their_stacks(self, demo_data, noise_db, n_pixels):
        # The runner featurizes a scene's clean cases by one folded call and
        # each noisy case by its own call, and scores every scene at every B
        # in one call. Each case's scores must equal scoring its relit (and
        # noisy) image alone, and a noisy case's features must be bitwise
        # that image's own `block_features`, at any scene size.
        runner = _Runner(demo_config(demo_data))
        self.resize_test_scenes(runner, n_pixels)
        master, n = runner.config.noise_master_seed, len(runner.full)
        proj = fit_ill_pca(runner.proj_set, 2)
        models = [build_model(runner.train_eval, runner.full, proj, b) for b in (5, 10)]
        (scenes,) = runner.test_features(proj, [noise_db])
        assert scenes.projection is proj
        assert scenes.kept.shape[:2] == (len(runner.test_eval), n)
        scores = [score(model, scenes) for model in models]
        feats = np.split(scenes.feats, np.cumsum(scenes.kept.sum(axis=2).ravel())[:-1])
        for i, img in enumerate(runner.test_eval):
            assert not scenes.kept[i, :, len(img.valid_pixels()) :].any()  # padding is unkept
            for j, ill in enumerate(runner.full):
                radiance = relight(img, ill.normalized_spd())
                if noise_db is not None:
                    radiance = add_noise(radiance, noise_db, mix_seed(master, i, j))
                    alone = cbc.block_features(proj, radiance)
                    assert feats[i * n + j].tobytes() == alone.feats.tobytes()
                    assert scenes.kept[i, j, : alone.kept.size].tobytes() == alone.kept.tobytes()
                for model, scored in zip(models, scores):
                    assert scored[i, j].tobytes() == score(model, radiance).tobytes()

    def test_ties_resolve_to_the_lowest_index(self, demo_data):
        runner = _Runner(demo_config(demo_data))
        runner._read()
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

    @pytest.mark.parametrize("seed", [1, 3, 11])
    def test_gray_world_lights_each_case_from_its_scene_rows(self, tmp_path, monkeypatch, seed):
        # grid_hist's scenes (24 at 32 x 32, 8 for test, downsample_eval 4):
        # each of the 224 cases is its scene's valid rows times a normalized
        # SPD, which is bitwise the per-case relit image's valid pixels
        manifest, _ = synth_dataset(
            tmp_path / "scenes", 24, SpectralAxis(), base_seed=seed, width=32, height=32)
        cfg = GridConfig(dataset=manifest, illuminants=bundled_illuminant_manifest(),
                         methods=("sgw",), downsample_eval=4)
        runner, relit = _Runner(cfg), []
        monkeypatch.setattr(evaluation, "relight", lambda *a: relit.append(a) or relight(*a))
        (row,) = runner.grid().rows
        assert relit == []
        full = runner.full
        oracle = [[full.index_of(spectral_gray_world(relight(img, ill.normalized_spd()), full)[0])
                   for ill in full] for img in runner.test_eval]
        assert row.predicted.tolist() == oracle


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

    def test_demo_report_bytes_pinned(self, demo_data, tmp_path):
        # sha256 of both CSVs of a demo grid (rand with two seeds, so `avg`
        # rows, plus sgw and ill_pca) and of its noise report, in that order
        cfg = demo_config(
            demo_data, methods=("rand", "sgw", "ill_pca"), rand_seeds=(42, 43),
            d_primes=(1, 2), bins=(5, 10), noise_method="rand", noise_levels=(20.0, 10.0),
            noise_d_prime=2, noise_bins=5,
        )
        digests = []
        for report in (run_grid(cfg), run_noise(cfg)):
            for write in (report.write_csv, report.write_raw_csv):
                path = tmp_path / "out.csv"
                write(path)
                digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
        assert digests == [
            "1d6fb8ac009628dbafc7e848f98ccf76cfb42e08e62aa87f24f730109d880c12",
            "227fd52b51435197b8d0da450bd2c5643fecca665f5392b32c05850cc751cc53",
            "7e5b6c46d71d0663e9af5dac63d40d2a01ddffe627452f8701ed1db1b238649b",
            "728970a4d1bfc4b341446664c30869bc32a4ff78462814fa3fce60eca5a146ab",
        ]

    def test_nnmf_report_bytes_pinned_at_larger_d_primes(self, tmp_path, bundled_cameras):
        # at d' 3-5 `nnls_rows` enumerates 7 to 31 supports, against at most
        # 3 in the grid above
        cfg = replace(
            report_config(tmp_path, bundled_cameras), methods=("nnmf",), d_primes=(3, 4, 5)
        )
        report = run_grid(cfg)
        digests = []
        for write in (report.write_csv, report.write_raw_csv):
            path = tmp_path / "out.csv"
            write(path)
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
        assert digests == [
            "0979030ddd3fe9bdd98bff29c00a3541bbdac45a2071a8796e690ea75ab378cc",
            "0d393058f7bf2470e497ea6f1884e8fc5dd30e7bb0764cc79f038752b8f728c3",
        ]
