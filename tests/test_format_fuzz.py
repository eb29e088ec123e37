"""Truncated and bit-flipped binary and text files load or raise
FormatError, nothing else.

Each file is small, so random flips land in headers and counts as often as
in payload.
"""

import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from illumest.cbc import SENTINEL_CELL, CorrelationModel, read_model, write_model
from illumest.evaluation import parse_config
from illumest.io import (
    FormatError,
    read_dataset_manifest,
    read_illuminant_manifest,
    read_name_list,
    read_scube,
    read_spd_csv,
    write_scube,
)
from illumest.projections import (
    Projection,
    fit_rand,
    read_projection,
    write_projection,
)
from illumest.spectral import SpectralAxis, SpectralImage


def scube_bytes(tmp):
    rng = np.random.default_rng(0)
    data = rng.random((2, 3, 4), dtype=np.float32).astype(np.float64)
    mask = np.array([[True, False, True], [True, True, True]])
    write_scube(tmp / "src.scube", SpectralImage(SpectralAxis(400, 10, 4), data, mask))
    return (tmp / "src.scube").read_bytes()


def projection_bytes(tmp):
    q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((4, 2)))
    projections = [
        fit_rand(4, 2, seed=3),
        Projection("pca", 4, 2, basis=q, mean=np.full(4, 0.25)),
        Projection("nnmf", 4, 2, basis=np.array([[1.0, 0.5, 0, 0], [0, 0, 0.5, 1]])),
    ]
    blobs = []
    for k, proj in enumerate(projections):
        write_projection(tmp / f"src{k}.proj", proj)
        blobs.append((tmp / f"src{k}.proj").read_bytes())
    return blobs


def model_bytes(tmp):
    proj = fit_rand(3, 2, seed=0)
    # counts (3, 1) in cells 0 and 4, and 2 in cell 8, of a 3x3 grid,
    # smoothed by 0.1
    model = CorrelationModel(
        n_bins=3, lo=np.zeros(2), hi=np.ones(2), smoothing=0.1,
        candidate_names=("a", "b"),
        cells=np.array([0, 4, 8, SENTINEL_CELL]),
        probs=np.array([[3.1, 1.1, 0.1, 0.1], [0.1, 0.1, 2.1, 0.1]]) / [[4.9], [2.9]],
        occupied=np.array([[True, True, False], [False, False, True]]),
        projection_digest=proj.digest,
    )
    write_model(tmp / "src.cbcm", model)
    return (tmp / "src.cbcm").read_bytes()


def duplicate_name_model_bytes(tmp):
    """`model_bytes` with the second candidate renamed "a", like the first."""
    blob = model_bytes(tmp)
    second = struct.pack("<I", 1) + b"b"
    assert blob.count(second) == 1
    return blob.replace(second, struct.pack("<I", 1) + b"a")


#: Byte holding the top bit of the first candidate's u64 cell count in
#: `model_bytes`: magic, three u32, two (lo, hi) pairs, smoothing, digest,
#: name length and the name "a", then the base probability.
MODEL_COUNT_TOP_BYTE = 5 + 12 + 32 + 8 + 32 + 4 + 1 + 8 + 7

#: A truncation to a shorter length, or one to three bit flips. Positions
#: are taken modulo the file size, so one strategy serves every file.
CORRUPTIONS = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 2**16)),
    st.tuples(
        st.just("flip"),
        st.lists(
            st.tuples(st.integers(0, 2**16), st.integers(0, 7)), min_size=1, max_size=3
        ),
    ),
)


def corrupt(blob, corruption):
    kind, arg = corruption
    if kind == "truncate":
        return blob[: arg % len(blob)]
    out = bytearray(blob)
    for byte, bit in arg:
        out[byte % len(out)] ^= 1 << bit
    return bytes(out)


def load_or_format_error(reader, path, blob):
    path.write_bytes(blob)
    try:
        reader(path)
    except FormatError:
        pass


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def sources(work):
    return {
        "scube": scube_bytes(work),
        "proj": projection_bytes(work),
        "cbcm": model_bytes(work),
        "cbcm_duplicate_name": duplicate_name_model_bytes(work),
    }


@settings(max_examples=300, deadline=None)
@given(corruption=CORRUPTIONS)
def test_corrupted_scube(work, sources, corruption):
    blob = corrupt(sources["scube"], corruption)
    load_or_format_error(read_scube, work / "x.scube", blob)


# A flipped exponent can make a basis entry huge; the orthonormality check
# then overflows (and rejects the file), which numpy reports as a warning.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("which", [0, 1, 2])
@settings(max_examples=200, deadline=None)
@given(corruption=CORRUPTIONS)
def test_corrupted_projection(work, sources, which, corruption):
    blob = corrupt(sources["proj"][which], corruption)
    load_or_format_error(read_projection, work / "x.proj", blob)


@pytest.mark.parametrize(
    "tail, match",
    [
        (b'{"a":' + b"[" * 100_000, "maximum recursion depth"),  # nested past the limit
        (b'{"seed":NaN}', "non-finite constant NaN"),
        (b'{"seed":Infinity}', "non-finite constant Infinity"),
        (b'{"seed":[-Infinity]}', "non-finite constant -Infinity"),
    ],
    ids=["deep", "nan", "inf", "neg-inf"],
)
def test_bad_metadata_names_its_file(work, sources, tail, match):
    blob, metadata = sources["proj"][0], b'{"seed":3}'
    assert blob.endswith(metadata)
    path = work / "meta.proj"
    path.write_bytes(blob[: -len(metadata)] + tail)
    with pytest.raises(FormatError, match=f"{path.name}: bad metadata block: .*{match}"):
        read_projection(path)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_metadata_is_never_written(work, value):
    # a file that could not read back is not written
    path = work / "non_finite.proj"
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_projection(path, replace(fit_rand(4, 2, seed=3), metadata={"loss": value}))
    assert not path.exists()


@settings(max_examples=300, deadline=None)
@given(corruption=CORRUPTIONS)
@example(corruption=("flip", [(MODEL_COUNT_TOP_BYTE, 7)]))
def test_corrupted_model(work, sources, corruption):
    blob = corrupt(sources["cbcm"], corruption)
    load_or_format_error(read_model, work / "x.cbcm", blob)


def test_repeated_candidate_name_rejected(work, sources):
    path = work / "dup.cbcm"
    path.write_bytes(sources["cbcm_duplicate_name"])
    with pytest.raises(FormatError, match="unique"):
        read_model(path)


# ---------------------------------------------------------------------------
# Text inputs: SPD CSVs, manifests, name lists and run configurations
# ---------------------------------------------------------------------------

SPD_TEXT = b"wavelength_nm,value\n400,1.0\n410,0.5\n420,0.25\n"
CONFIG_TEXT = b"""# a grid run
dataset = data/manifest.txt
illuminants = ills.txt
methods = rand, pca
d_primes = 1, 2
bins = 5, 10
smoothing = 1e-9
allow_overlap = false
noise_levels = 30, 10.5
"""

#: Each text reader and a file it loads.
TEXT_READERS = {
    "spd_csv": (read_spd_csv, SPD_TEXT),
    "illuminant_manifest": (read_illuminant_manifest, b"a.csv,a\n# comment\n\nsub/b.csv, b\n"),
    "dataset_manifest": (read_dataset_manifest, b"train,a.scube\ntrain,b.scube\ntest,c.scube\n"),
    "name_list": (read_name_list, b"d65\nillum a\n"),
    "config": (parse_config, CONFIG_TEXT),
}


@pytest.mark.parametrize("name", sorted(TEXT_READERS))
def test_text_sources_load(work, name):
    reader, text = TEXT_READERS[name]
    (work / f"{name}.txt").write_bytes(text)
    reader(work / f"{name}.txt")


@pytest.mark.parametrize("name", sorted(TEXT_READERS))
@pytest.mark.parametrize("bad", [b"\xff", b"\x00"], ids=["not_utf8", "nul"])
def test_undecodable_text_names_its_file(work, name, bad):
    # a byte that is not UTF-8, or a NUL, in the middle of a file that loads
    reader, text = TEXT_READERS[name]
    path = work / f"{name}_bad.txt"
    path.write_bytes(text[:10] + bad + text[10:])
    with pytest.raises(FormatError, match=f"{path.name}: (not UTF-8|NUL)"):
        reader(path)


@pytest.mark.parametrize("name", sorted(TEXT_READERS))
@settings(max_examples=200, deadline=None)
@given(corruption=CORRUPTIONS)
@example(corruption=("flip", [(0, 7)]))  # a byte of 0x80 or more opens no UTF-8 sequence
def test_corrupted_text(work, name, corruption):
    reader, text = TEXT_READERS[name]
    load_or_format_error(reader, work / f"{name}_x.txt", corrupt(text, corruption))
