"""Every site the benchmark traces still resolves to an attribute of illumest.

bench/spans.py replaces functions at these "module:attr" sites while tracing
and fails when one is gone, so renaming a function or dropping an import in
`src/` breaks the benchmark. This is a fast check of that contract; the full
one is `python3 bench/selftest.py`.
"""

import importlib.util
import struct
import sys
from pathlib import Path

import numpy as np
from test_imports import SRC, unread_imports

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    """Import bench/spans.py by path, writing no bytecode next to it."""
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
        del sys.modules[spec.name]
    return module


def test_every_traced_site_resolves():
    spans = load_spans()
    sites = [s for group, _ in spans.SPAN_SITES.values() for s in group]
    sites += [s for group in spans.COUNT_SITES.values() for s in group]
    missing = []
    for site in sites:
        try:
            owner, attr = spans.resolve(site)
        except (ImportError, AttributeError):
            missing.append(site)
            continue
        # Patches.replace reads the attribute from the owner's own __dict__.
        if attr not in vars(owner):
            missing.append(site)
    assert len(sites) > 20
    assert not missing, f"trace sites that no longer resolve: {missing}"


def test_every_marked_import_is_a_traced_site():
    """An import that its module never reads carries `# noqa: F401` only to
    stay an attribute the benchmark traces, so it must be a traced site."""
    spans = load_spans()
    traced = {s for group, _ in spans.SPAN_SITES.values() for s in group}
    traced.update(s for group in spans.COUNT_SITES.values() for s in group)
    marked = [
        f"illumest.{path.stem}:{name}"
        for path in sorted(SRC.glob("*.py"))
        for _, name, is_marked in unread_imports(path.read_text(encoding="utf-8"))
        if is_marked
    ]
    assert "illumest.evaluation:add_noise" in marked
    assert [site for site in marked if site not in traced] == []


def test_model_sizing_reads_every_stored_cell(tmp_path):
    """The benchmark sizes models through their per-candidate `grids` view,
    which counts a cell stored at its candidate's base probability."""
    from illumest.cbc import CBCM_MAGIC, build_model, read_model, write_model
    from illumest.illuminants import Illuminant, IlluminantSet
    from illumest.projections import fit_rand
    from illumest.spectral import SpectralAxis, SpectralImage, Spectrum

    axis = SpectralAxis(400, 10, 4)
    candidates = IlluminantSet(
        (
            Illuminant("blue", Spectrum(axis, [8.0, 4.0, 1.0, 0.5])),
            Illuminant("red", Spectrum(axis, [0.5, 1.0, 4.0, 8.0])),
        )
    )
    rng = np.random.default_rng(0)
    images = [
        SpectralImage(axis, 0.1 + rng.random((6, 6, 4)), np.ones((6, 6), bool))
        for _ in range(2)
    ]
    built = build_model(images, candidates, fit_rand(4, 2, seed=1), n_bins=8)
    write_model(tmp_path / "m.cbcm", built)
    # 1-D, 4 bins; each candidate stores one cell: "even" stores cell 1 at
    # its base probability 0.25
    header = [CBCM_MAGIC, struct.pack("<IIIddd", 1, 4, 2, 0.0, 1.0, 0.5), bytes(32)]
    records = [(b"even", 0.25, 1, 0.25), (b"peaked", 0.1, 2, 0.7)]
    body = [
        struct.pack("<I", len(name)) + name + struct.pack("<dQQd", base, 1, cell, prob)
        for name, base, cell, prob in records
    ]
    (tmp_path / "base.cbcm").write_bytes(b"".join(header + body))
    models = []
    record = load_spans()._model_stats(models)
    for model in (built, read_model(tmp_path / "m.cbcm"), read_model(tmp_path / "base.cbcm")):
        record(model)
        cells, nbytes = models[-1]
        assert cells == model.occupied.sum() > 0
        assert nbytes > 0
    assert models[-1][0] == 2  # the cell stored at the base probability counts


def test_grid_latency_hook_sees_both_runners(demo_data, monkeypatch):
    """bench/run.py times grid latency by replacing `evaluation.classify`, so
    both runners must score through that module global."""
    from illumest import evaluation
    from illumest.bundled import bundled_illuminant_manifest

    calls = []
    classify = evaluation.classify

    def counted(*args, **kwargs):
        calls.append(1)
        return classify(*args, **kwargs)

    monkeypatch.setattr(evaluation, "classify", counted)
    manifest, _ = demo_data
    config = evaluation.GridConfig(
        dataset=manifest, illuminants=bundled_illuminant_manifest(),
        methods=("ill_pca",), d_primes=(2,), bins=(5,), downsample_eval=8,
        noise_d_prime=2, noise_bins=5, noise_levels=(20.0,),
    )
    evaluation.run_grid(config)
    assert len(calls) > 0
    calls.clear()
    evaluation.run_noise(config)
    assert len(calls) > 0


def test_cli_fit_calls_the_traced_fit_sites(demo_data, bundled_cameras, tmp_path, monkeypatch):
    """bench/spans.py traces fitting at `evaluation.fit_*` and
    `evaluation.select_projection_set`; `illumest fit` must call through them."""
    from illumest import evaluation
    from illumest.cli import main

    spans = load_spans()
    names = [f"fit_{kind}" for kind in spans.FIT_KINDS] + ["select_projection_set"]
    traced = {s for group, _ in spans.SPAN_SITES.values() for s in group}
    assert {f"illumest.evaluation:{name}" for name in names} <= traced
    calls = {}
    for name in names:
        original = getattr(evaluation, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(evaluation, name, counted)
    manifest, _ = demo_data
    for kind in spans.FIT_KINDS:
        calls.clear()
        argv = [
            "fit", "--method", kind, "--dataset", str(manifest),
            "--camera", str(bundled_cameras[0]), "--out", str(tmp_path / f"{kind}.proj"),
        ]
        assert main(argv) == 0
        assert calls == {f"fit_{kind}": 1, "select_projection_set": 1}
