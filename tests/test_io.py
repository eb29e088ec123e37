"""File formats: spectral cubes, spectral CSVs, manifests."""

import numpy as np
import pytest

from illumest.io import (
    FormatError,
    format_float,
    read_dataset_manifest,
    read_illuminant_manifest,
    read_name_list,
    read_scube,
    read_sensitivities,
    read_spd_csv,
    write_dataset_manifest,
    write_illuminant_manifest,
    write_name_list,
    write_scube,
    write_spd_csv,
)
from illumest.spectral import SpectralAxis, SpectralImage


def f32_image(seed=0, shape=(5, 4, 6), mask=None):
    rng = np.random.default_rng(seed)
    data = rng.random(shape, dtype=np.float32).astype(np.float64)
    if mask is None:
        mask = np.ones(shape[:2], dtype=bool)
    axis = SpectralAxis(400.0, 10.0, shape[2])
    return SpectralImage(axis, data, mask)


class TestFormatFloat:
    def test_round_trips_exactly(self):
        rng = np.random.default_rng(1)
        for x in rng.standard_normal(200) * 10.0 ** rng.integers(-12, 12, 200):
            assert float(format_float(float(x))) == float(x)

    def test_short_forms(self):
        assert format_float(0.1) == "0.1"
        assert format_float(1.0) == "1.0"
        assert format_float(1e-9) == "1e-09"


class TestScube:
    def test_round_trip_bit_exact(self, tmp_path):
        mask = np.ones((5, 4), dtype=bool)
        mask[0, 0] = mask[4, 3] = False
        img = f32_image(mask=mask)
        p = tmp_path / "img.scube"
        write_scube(p, img)
        back = read_scube(p)
        assert back.axis == img.axis
        np.testing.assert_array_equal(back.data, img.data)
        np.testing.assert_array_equal(back.mask, img.mask)
        # a second cycle must produce identical bytes
        p2 = tmp_path / "img2.scube"
        write_scube(p2, back)
        assert p.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.scube"
        write_scube(p, f32_image())
        blob = bytearray(p.read_bytes())
        blob[0] ^= 0xFF
        p.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            read_scube(p)

    def test_truncated_rejected(self, tmp_path):
        p = tmp_path / "trunc.scube"
        write_scube(p, f32_image())
        p.write_bytes(p.read_bytes()[:-3])
        with pytest.raises(FormatError):
            read_scube(p)

    def test_bad_mask_byte_rejected(self, tmp_path):
        p = tmp_path / "mask.scube"
        write_scube(p, f32_image())
        blob = bytearray(p.read_bytes())
        blob[-1] = 7
        p.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            read_scube(p)


class TestSpdCsv:
    def test_round_trip_exact(self, tmp_path):
        axis = SpectralAxis(400.0, 10.0, 31)
        rng = np.random.default_rng(2)
        values = rng.random((31, 2))
        p = tmp_path / "spd.csv"
        write_spd_csv(p, axis, values)
        axis2, values2 = read_spd_csv(p)
        assert axis2 == axis
        np.testing.assert_array_equal(values2, values)

    def test_single_column(self, tmp_path):
        axis = SpectralAxis(400.0, 5.0, 3)
        p = tmp_path / "one.csv"
        write_spd_csv(p, axis, np.array([0.25, 0.5, 1.0]))
        axis2, values2 = read_spd_csv(p)
        assert axis2 == axis
        assert values2.shape == (3, 1)
        np.testing.assert_array_equal(values2[:, 0], [0.25, 0.5, 1.0])

    def test_header_required(self, tmp_path):
        p = tmp_path / "nohdr.csv"
        p.write_text("400,1.0\n410,2.0\n")
        with pytest.raises(FormatError):
            read_spd_csv(p)

    def test_non_uniform_grid_rejected(self, tmp_path):
        p = tmp_path / "warped.csv"
        p.write_text("wavelength_nm,value\n400,1\n410,1\n425,1\n")
        with pytest.raises(FormatError):
            read_spd_csv(p)

    def test_decreasing_grid_rejected(self, tmp_path):
        p = tmp_path / "rev.csv"
        p.write_text("wavelength_nm,value\n410,1\n400,1\n")
        with pytest.raises(FormatError):
            read_spd_csv(p)

    @pytest.mark.parametrize(
        "rows",
        [
            "nan,1\n410,1\n420,1\n",
            "400,1\n410,1\ninf,1\n",
            "-1e308,1\n1e308,1\n",
        ],
        ids=["nan_first", "inf_last", "step_overflow"],
    )
    # the overflowing span warns in the grid arithmetic before it is rejected
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_grid_rejected(self, tmp_path, rows):
        p = tmp_path / "bad.csv"
        p.write_text("wavelength_nm,value\n" + rows)
        with pytest.raises(FormatError):
            read_spd_csv(p)

    def test_needs_two_rows(self, tmp_path):
        p = tmp_path / "short.csv"
        p.write_text("wavelength_nm,value\n400,1\n")
        with pytest.raises(FormatError):
            read_spd_csv(p)


class TestSensitivities:
    def test_reads_three_channels(self, tmp_path):
        p = tmp_path / "cam_x.csv"
        p.write_text(
            "wavelength_nm,value,value2,value3\n"
            "400,0.1,0.2,0.3\n410,0.4,0.5,0.6\n"
        )
        sens = read_sensitivities(p)
        assert sens.camera_name == "cam_x"
        assert sens.rows.shape == (3, 2)
        np.testing.assert_array_equal(sens.rows[0], [0.1, 0.4])
        np.testing.assert_array_equal(sens.rows[2], [0.3, 0.6])

    def test_explicit_name_wins(self, tmp_path):
        p = tmp_path / "cam_x.csv"
        p.write_text("wavelength_nm,value,value2,value3\n400,0.1,0.2,0.3\n410,0.4,0.5,0.6\n")
        assert read_sensitivities(p, "alpha").camera_name == "alpha"

    def test_channel_count_enforced(self, tmp_path):
        p = tmp_path / "two.csv"
        p.write_text("wavelength_nm,value,value2\n400,0.1,0.2\n410,0.4,0.5\n")
        with pytest.raises(FormatError):
            read_sensitivities(p)

    def test_negative_value_rejected_with_line(self, tmp_path):
        p = tmp_path / "neg.csv"
        p.write_text("wavelength_nm,value,value2,value3\n400,0.1,0.2,0.3\n410,-0.4,0.5,0.6\n")
        with pytest.raises(FormatError) as exc:
            read_sensitivities(p)
        assert ":3" in str(exc.value)


class TestManifests:
    def test_illuminant_round_trip_and_resolution(self, tmp_path):
        sub = tmp_path / "lights"
        sub.mkdir()
        man = sub / "manifest.txt"
        write_illuminant_manifest(man, [("a.csv", "A"), ("d65.csv", "D65")])
        entries = read_illuminant_manifest(man)
        assert [n for _, n in entries] == ["A", "D65"]
        assert entries[0][0] == (sub / "a.csv").resolve()

    def test_illuminant_duplicate_name_rejected(self, tmp_path):
        man = tmp_path / "manifest.txt"
        man.write_text("a.csv,A\nb.csv,A\n")
        with pytest.raises(FormatError):
            read_illuminant_manifest(man)

    def test_comments_and_blanks_skipped(self, tmp_path):
        man = tmp_path / "manifest.txt"
        man.write_text("# lights\n\na.csv,A\n")
        assert [n for _, n in read_illuminant_manifest(man)] == ["A"]

    def test_dataset_round_trip(self, tmp_path):
        man = tmp_path / "dataset.txt"
        write_dataset_manifest(man, ["s0.scube", "s1.scube"], ["s2.scube"])
        train, test = read_dataset_manifest(man)
        assert [p.name for p in train] == ["s0.scube", "s1.scube"]
        assert [p.name for p in test] == ["s2.scube"]
        assert train[0].parent == tmp_path.resolve()

    def test_dataset_needs_both_splits(self, tmp_path):
        man = tmp_path / "dataset.txt"
        man.write_text("train,s0.scube\n")
        with pytest.raises(FormatError):
            read_dataset_manifest(man)

    def test_dataset_bad_split_rejected(self, tmp_path):
        man = tmp_path / "dataset.txt"
        man.write_text("validate,s0.scube\ntest,s1.scube\n")
        with pytest.raises(FormatError):
            read_dataset_manifest(man)

    def test_name_list_round_trip(self, tmp_path):
        p = tmp_path / "names.txt"
        write_name_list(p, ["A", "D65", "F2"])
        assert read_name_list(p) == ["A", "D65", "F2"]

    def test_name_list_rejects_duplicates(self, tmp_path):
        p = tmp_path / "names.txt"
        p.write_text("A\nA\n")
        with pytest.raises(FormatError):
            read_name_list(p)
