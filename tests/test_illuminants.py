"""Candidate sets, loading, and clustered projection-set selection."""

import numpy as np
import pytest

from illumest.illuminants import (
    Illuminant,
    IlluminantSet,
    kmeans,
    load_illuminants,
    select_projection_set,
)
from illumest.io import FormatError, write_illuminant_manifest, write_spd_csv
from illumest.spectral import SpectralAxis, Spectrum


def make_set(rows, names=None):
    rows = np.asarray(rows, dtype=np.float64)
    axis = SpectralAxis(400, 10, rows.shape[1])
    names = names or [f"L{i}" for i in range(rows.shape[0])]
    return IlluminantSet(
        tuple(Illuminant(n, Spectrum(axis, r)) for n, r in zip(names, rows))
    )


class TestIlluminant:
    def test_rejects_negative_and_zero(self):
        axis = SpectralAxis(400, 10, 3)
        with pytest.raises(ValueError):
            Illuminant("bad", Spectrum(axis, [1.0, -0.5, 1.0]))
        with pytest.raises(ValueError):
            Illuminant("dark", Spectrum(axis, [0.0, 0.0, 0.0]))

    def test_normalized_spd_has_unit_sum(self):
        axis = SpectralAxis(400, 10, 4)
        ill = Illuminant("x", Spectrum(axis, [1.0, 2.0, 3.0, 4.0]))
        n = ill.normalized_spd()
        assert n.values.sum() == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(n.values, [0.1, 0.2, 0.3, 0.4], atol=1e-15)


class TestIlluminantSet:
    def test_order_names_and_lookup(self):
        s = make_set(np.eye(3) + 0.1, names=["A", "B", "C"])
        assert s.names() == ["A", "B", "C"]
        assert s.index_of("B") == 1
        with pytest.raises(KeyError):
            s.index_of("Z")

    def test_unique_names_enforced(self):
        axis = SpectralAxis(400, 10, 2)
        a = Illuminant("A", Spectrum(axis, [1.0, 1.0]))
        with pytest.raises(ValueError):
            IlluminantSet((a, Illuminant("A", Spectrum(axis, [2.0, 1.0]))))

    def test_chromaticity_matrix_rows_sum_to_one(self):
        s = make_set([[1.0, 3.0], [2.0, 2.0]])
        m = s.chromaticity_matrix()
        np.testing.assert_allclose(m.sum(axis=1), 1.0, atol=1e-15)
        np.testing.assert_allclose(m[0], [0.25, 0.75], atol=1e-15)

    def test_subset_keeps_order(self):
        s = make_set(np.eye(4) + 0.1, names=["A", "B", "C", "D"])
        sub = s.subset(["D", "B"])
        assert sub.names() == ["B", "D"]
        with pytest.raises(KeyError):
            s.subset(["B", "Q"])


class TestLoadIlluminants:
    def test_loads_manifest(self, tmp_path):
        axis = SpectralAxis(400, 100, 4)
        write_spd_csv(tmp_path / "one.csv", axis, np.array([1.0, 2.0, 3.0, 4.0]))
        write_spd_csv(tmp_path / "two.csv", axis, np.array([4.0, 3.0, 2.0, 1.0]))
        man = tmp_path / "manifest.txt"
        write_illuminant_manifest(man, [("one.csv", "One"), ("two.csv", "Two")])
        s = load_illuminants(man)
        assert s.names() == ["One", "Two"]
        assert s.axis == axis
        np.testing.assert_array_equal(s[1].spd.values, [4.0, 3.0, 2.0, 1.0])

    def test_multi_column_file_rejected(self, tmp_path):
        axis = SpectralAxis(400, 100, 3)
        write_spd_csv(tmp_path / "multi.csv", axis, np.ones((3, 2)))
        man = tmp_path / "manifest.txt"
        write_illuminant_manifest(man, [("multi.csv", "M")])
        with pytest.raises(FormatError):
            load_illuminants(man)

    def test_all_zero_spd_names_its_file(self, tmp_path):
        write_spd_csv(tmp_path / "dark.csv", SpectralAxis(400, 100, 3), np.zeros(3))
        man = tmp_path / "manifest.txt"
        write_illuminant_manifest(man, [("dark.csv", "Dark")])
        with pytest.raises(FormatError, match="dark.csv: illuminant 'Dark': SPD is all zero"):
            load_illuminants(man)

    @pytest.mark.parametrize(
        "other", [SpectralAxis(400, 100, 3), SpectralAxis(410, 100, 4)], ids=["bands", "start"]
    )
    def test_mixed_grids_name_the_manifest_and_both_files(self, tmp_path, other):
        axis = SpectralAxis(400, 100, 4)
        write_spd_csv(tmp_path / "one.csv", axis, np.ones(4))
        write_spd_csv(tmp_path / "two.csv", other, np.ones(other.count))
        man = tmp_path / "manifest.txt"
        write_illuminant_manifest(man, [("one.csv", "One"), ("two.csv", "Two")])
        with pytest.raises(FormatError) as exc:
            load_illuminants(man)
        message = str(exc.value)
        assert message.startswith(f"{man}: {tmp_path / 'two.csv'}: grid [{other}]")
        assert message.endswith(f"does not match [{axis}] of {tmp_path / 'one.csv'}")

    def test_negative_value_located(self, tmp_path):
        p = tmp_path / "neg.csv"
        p.write_text("wavelength_nm,value\n400,1.0\n410,-0.25\n")
        man = tmp_path / "manifest.txt"
        write_illuminant_manifest(man, [("neg.csv", "N")])
        with pytest.raises(FormatError) as exc:
            load_illuminants(man)
        assert ":3" in str(exc.value)

    def test_negative_value_after_a_blank_line_names_its_line(self, tmp_path):
        p = tmp_path / "neg.csv"
        p.write_text("\nwavelength_nm,value\n400,1.0\n\n410,-0.25\n")
        man = tmp_path / "manifest.txt"
        write_illuminant_manifest(man, [("neg.csv", "N")])
        with pytest.raises(FormatError, match="neg.csv:5: negative value"):
            load_illuminants(man)


class TestKmeans:
    def test_separated_blobs_recovered(self):
        rng = np.random.default_rng(11)
        blob_a = rng.normal(0.0, 0.05, (20, 2))
        blob_b = rng.normal(5.0, 0.05, (25, 2))
        pts = np.vstack([blob_a, blob_b])
        assign, centers = kmeans(pts, 2, seed=0)
        # one label per blob, both clusters used
        assert len(set(assign[:20])) == 1
        assert len(set(assign[20:])) == 1
        assert assign[0] != assign[20]
        got = sorted(centers[:, 0])
        assert abs(got[0] - 0.0) < 0.1 and abs(got[1] - 5.0) < 0.1

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(12)
        pts = rng.random((30, 3))
        a1, c1 = kmeans(pts, 4, seed=9)
        a2, c2 = kmeans(pts, 4, seed=9)
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(c1, c2)

    def test_all_clusters_non_empty(self):
        rng = np.random.default_rng(13)
        pts = rng.random((12, 2))
        for seed in range(5):
            assign, _ = kmeans(pts, 5, seed=seed)
            assert set(assign.tolist()) == set(range(5))

    def test_k_equals_n(self):
        pts = np.arange(8, dtype=np.float64).reshape(4, 2)
        assign, centers = kmeans(pts, 4, seed=0)
        assert sorted(assign.tolist()) == [0, 1, 2, 3]
        np.testing.assert_allclose(centers[assign], pts, atol=1e-12)

    def test_duplicate_points_handled(self):
        pts = np.zeros((6, 2))
        pts[3:] = 1.0
        assign, _ = kmeans(pts, 3, seed=1)
        assert set(assign.tolist()) == {0, 1, 2}

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            kmeans(np.ones((3, 2)), 4, seed=0)


class TestSelectProjectionSet:
    def test_bundled_selection_is_stable(self, bundled_set):
        a = select_projection_set(bundled_set, k=10, seed=0)
        b = select_projection_set(bundled_set, k=10, seed=0)
        assert a.names() == b.names()
        assert len(a) == 10
        # original manifest ordering is preserved
        order = {n: i for i, n in enumerate(bundled_set.names())}
        idx = [order[n] for n in a.names()]
        assert idx == sorted(idx)

    def test_representatives_cover_distinct_clusters(self):
        # 3 well-separated spectral shapes, several near-duplicates each:
        # selection must return one representative per shape.
        base = np.array(
            [[10.0, 1.0, 1.0], [1.0, 10.0, 1.0], [1.0, 1.0, 10.0]]
        )
        rows = []
        for b in base:
            for j in range(4):
                rows.append(b + 0.01 * j)
        s = make_set(rows)
        picked = select_projection_set(s, k=3, seed=0)
        assert len(picked) == 3
        blobs = {int(n[1:]) // 4 for n in picked.names()}
        assert blobs == {0, 1, 2}

    def test_k_larger_than_set_rejected(self, bundled_set):
        with pytest.raises(ValueError):
            select_projection_set(bundled_set, k=100)
