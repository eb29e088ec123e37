"""Truncated and bit-flipped binary files load or raise FormatError, nothing else.

Each file is small, so random flips land in headers and counts as often as
in payload.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from illumest.cbc import CorrelationModel, HistogramGrid, read_model, write_model
from illumest.io import FormatError, read_scube, write_scube
from illumest.projections import (
    Projection,
    fit_rand,
    projection_hash,
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
    grids = (
        HistogramGrid.from_counts(np.array([0, 4]), np.array([3, 1]), 2, 3, 0.1),
        HistogramGrid.from_counts(np.array([8]), np.array([2]), 2, 3, 0.1),
    )
    model = CorrelationModel(
        n_dims=2, n_bins=3, lo=np.zeros(2), hi=np.ones(2), smoothing=0.1,
        candidate_names=("a", "b"), grids=grids,
        projection_digest=projection_hash(proj),
    )
    write_model(tmp / "src.cbcm", model)
    return (tmp / "src.cbcm").read_bytes()


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


@settings(max_examples=300, deadline=None)
@given(corruption=CORRUPTIONS)
@example(corruption=("flip", [(MODEL_COUNT_TOP_BYTE, 7)]))
def test_corrupted_model(work, sources, corruption):
    blob = corrupt(sources["cbcm"], corruption)
    load_or_format_error(read_model, work / "x.cbcm", blob)
