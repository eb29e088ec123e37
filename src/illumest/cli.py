"""Command-line interface.

Every subcommand exits 0 on success and nonzero with a one-line diagnostic
on stderr otherwise.
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import partial
from pathlib import Path

from .bundled import bundled_illuminant_manifest
from .cbc import (
    MODE_LOG, SCORE_MODES, build_model, cell_count, check_smoothing, classify, read_model,
    write_model,
)
from .evaluation import (
    FIT_OPTIONS,
    GridConfig,
    angular_error_deg,
    check_fittable,
    fit_projection,
    parse_config,
    projection_set,
    read_scenes,
    run_grid,
    run_noise,
    training_chromaticities,
)
from .illuminants import load_illuminants, select_projection_set
from .io import (
    format_float,
    read_dataset_manifest,
    read_sensitivities,
    write_name_list,
)
from .projections import (
    ALL_KINDS,
    KIND_ILL_PCA,
    KIND_RGB,
    fit_ill_pca,
    read_projection,
    write_projection,
)
from .spectral import SpectralAxis
from .synth import synth_dataset


def _add_illuminants_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--illuminants",
        type=Path,
        default=None,
        help="illuminant manifest (path,name lines); defaults to the bundled 28",
    )


def _illuminants(args) -> Path:
    return args.illuminants if args.illuminants is not None else bundled_illuminant_manifest()


def _cmd_synth(args) -> int:
    if not 0 <= args.mask_fraction < 1:
        raise ValueError(f"--mask-fraction must be in [0, 1), got {args.mask_fraction}")
    if not (math.isfinite(args.texture) and args.texture >= 0):
        raise ValueError(f"--texture must be finite and >= 0, got {args.texture}")
    if not math.isfinite(args.start):
        raise ValueError(f"--start must be finite, got {args.start}")
    if not (math.isfinite(args.step) and args.step > 0):
        raise ValueError(f"--step must be finite and > 0, got {args.step}")
    axis = SpectralAxis(args.start, args.step, args.bands)
    manifest, paths = synth_dataset(
        args.out,
        args.scenes,
        axis,
        base_seed=args.seed,
        width=args.width,
        height=args.height,
        basis_count=args.basis,
        patch_count=args.patches,
        mask_fraction=args.mask_fraction,
        texture=args.texture,
    )
    print(f"wrote {len(paths)} scenes, manifest: {manifest}")
    return 0


def _cmd_select(args) -> int:
    full = load_illuminants(_illuminants(args))
    try:
        picked = select_projection_set(full, k=args.k, seed=args.seed)
    except ValueError as exc:
        raise ValueError(f"--k {args.k}: {exc}") from None
    write_name_list(args.out, picked.names())
    print(f"selected {len(picked)} of {len(full)}: {', '.join(picked.names())}")
    return 0


def _cmd_fit(args) -> int:
    full = load_illuminants(_illuminants(args))
    proj_set = projection_set(
        full, args.projection_set, args.projection_set_k, args.projection_set_seed,
        k_option="--projection-set-k",
    )
    if args.method == KIND_RGB and args.camera is None:
        raise ValueError("--camera is required for the rgb method")
    camera = read_sensitivities(args.camera) if args.method == KIND_RGB else None
    check_fittable(args.method, (args.d_prime,), proj_set, [camera] if camera else [])
    images = None  # the training scenes of a method that fits from them
    if args.method in FIT_OPTIONS:
        if args.dataset is None:
            raise ValueError(f"--dataset is required for the {args.method} method")
        factor = args.downsample or getattr(GridConfig, FIT_OPTIONS[args.method])
        paths, _ = read_dataset_manifest(args.dataset)
        images = read_scenes({"--downsample": (factor, paths)}, proj_set.axis)["--downsample"]
    training = partial(training_chromaticities, images, proj_set)
    proj = fit_projection(
        args.method, args.d_prime, proj_set, training, args.seed, args.nnmf_max_iter, camera
    )
    write_projection(args.out, proj)
    print(f"wrote {proj.kind} projection ({proj.input_dim} -> {proj.output_dim}): {args.out}")
    return 0


def _cmd_build_model(args) -> int:
    check_smoothing(args.smoothing, 1, "--smoothing")  # and on the cell count once it is known
    proj = read_projection(args.projection)
    try:
        n_cells = cell_count(args.bins, proj.output_dim)
    except ValueError as exc:
        raise ValueError(f"--bins {args.bins} at d' = {proj.output_dim}: {exc}") from None
    check_smoothing(args.smoothing, n_cells, "--smoothing")
    full = load_illuminants(_illuminants(args))
    paths, _ = read_dataset_manifest(args.dataset)
    images = read_scenes({"--downsample": (args.downsample, paths)}, full.axis)["--downsample"]
    model = build_model(images, full, proj, args.bins, smoothing=args.smoothing)
    write_model(args.out, model)
    print(
        f"wrote model ({model.n_dims}-D, {model.n_bins} bins, "
        f"{len(model.candidate_names)} candidates): {args.out}"
    )
    return 0


def _cmd_classify(args) -> int:
    model = read_model(args.model).with_projection(read_projection(args.projection))
    full = load_illuminants(_illuminants(args))  # its grid is the cube's
    if args.truth is not None:  # resolved before anything is printed
        spds = {ill.name: ill.spd for ill in full}
        if args.truth not in spds:
            raise ValueError(f"--truth {args.truth!r} is not in the illuminant set")
        missing = sorted(set(model.candidate_names) - spds.keys())
        if missing:
            raise ValueError(f"model candidates not in the illuminant set: {', '.join(missing)}")
    wanted = {"--downsample": (args.downsample, [args.cube])}
    (image,) = read_scenes(wanted, full.axis)["--downsample"]
    name, scores = classify(model, image, mode=args.mode)
    print(f"predicted: {name}")
    for cand, s in zip(model.candidate_names, scores):
        print(f"score,{cand},{format_float(float(s))}")
    if args.truth is not None:
        err = angular_error_deg(spds[name], spds[args.truth])
        print(f"angular_error_deg,{format_float(err)}")
    return 0


def _run_report(args, runner) -> int:
    config = parse_config(args.config)
    report = runner(config)
    out = Path(args.out)
    raw = Path(args.raw) if args.raw else out.with_name(out.stem + "_raw" + out.suffix)
    report.write_csv(out)
    report.write_raw_csv(raw)
    print(f"wrote {len(report.rows)} rows: {out} (raw: {raw})")
    return 0


def _cmd_grid(args) -> int:
    return _run_report(args, run_grid)


def _cmd_noise(args) -> int:
    return _run_report(args, run_noise)


def _cmd_export_pca(args) -> int:
    full = load_illuminants(_illuminants(args))
    fitted_on = full if args.projection_set is None else projection_set(
        full, args.projection_set, k=len(full), seed=0  # with a names file, k and seed go unread
    )
    try:
        check_fittable(KIND_ILL_PCA, (args.components,), fitted_on)
    except ValueError as exc:
        raise ValueError(f"--components {args.components}: {exc}") from None
    proj = fit_ill_pca(fitted_on, args.components)
    coords = proj.apply_rows(full.chromaticity_matrix())
    header = "name," + ",".join(f"c{i + 1}" for i in range(args.components))
    lines = [header]
    for name, row in zip(full.names(), coords):
        lines.append(name + "," + ",".join(format_float(v) for v in row))
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(full)} coordinate rows: {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="illumest",
        description="Illuminant estimation via correlation of reduced-dimension "
        "chromaticity histograms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic reflectance dataset")
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.add_argument("--scenes", type=int, default=24)
    p.add_argument("--width", type=int, default=32)
    p.add_argument("--height", type=int, default=32)
    p.add_argument("--basis", type=int, default=6, help="spectral basis functions")
    p.add_argument("--patches", type=int, default=12, help="rectangles per scene")
    p.add_argument("--mask-fraction", type=float, default=0.05)
    p.add_argument("--texture", type=float, default=0.08)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--start", type=float, default=400.0, help="first wavelength (nm)")
    p.add_argument("--step", type=float, default=10.0, help="wavelength step (nm)")
    p.add_argument("--bands", type=int, default=31)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser(
        "select-projection-set", help="cluster candidates into a reduced set"
    )
    _add_illuminants_arg(p)
    p.add_argument("--k", type=int, default=GridConfig.projection_set_k)
    p.add_argument("--seed", type=int, default=GridConfig.projection_set_seed)
    p.add_argument("--out", type=Path, required=True, help="names file to write")
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("fit", help="fit a projection and save it as .proj")
    p.add_argument("--method", choices=ALL_KINDS, required=True)
    p.add_argument("--out", type=Path, required=True)
    _add_illuminants_arg(p)
    p.add_argument("--dataset", type=Path, default=None, help="dataset manifest")
    p.add_argument("--projection-set", type=Path, default=None, help="names file")
    p.add_argument("--projection-set-k", type=int, default=GridConfig.projection_set_k)
    p.add_argument("--projection-set-seed", type=int, default=GridConfig.projection_set_seed)
    p.add_argument("--d-prime", type=int, default=3, help="output dimensionality")
    p.add_argument("--seed", type=int, default=42, help="rand/nnmf seed")
    p.add_argument(
        "--downsample",
        type=int,
        default=None,
        help=f"training downsample factor (default {GridConfig.downsample_fit}, "
        f"or {GridConfig.downsample_lda} for lda)",
    )
    p.add_argument("--camera", type=Path, default=None, help="sensitivity CSV (rgb)")
    p.add_argument("--nnmf-max-iter", type=int, default=GridConfig.nnmf_max_iter)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("build-model", help="histogram model for a projection")
    p.add_argument("--projection", type=Path, required=True)
    p.add_argument("--dataset", type=Path, required=True)
    _add_illuminants_arg(p)
    p.add_argument("--bins", type=int, required=True, help="bins per dimension")
    p.add_argument("--smoothing", type=float, default=GridConfig.smoothing)
    p.add_argument("--downsample", type=int, default=GridConfig.downsample_eval)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=_cmd_build_model)

    p = sub.add_parser("classify", help="classify one radiance cube")
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--projection", type=Path, required=True)
    p.add_argument("--cube", type=Path, required=True)
    p.add_argument("--mode", choices=SCORE_MODES, default=MODE_LOG)
    p.add_argument("--downsample", type=int, default=1)
    p.add_argument("--truth", type=str, default=None, help="true illuminant name")
    _add_illuminants_arg(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("grid", help="run the full evaluation grid from a config")
    p.add_argument("--config", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True, help="aggregate CSV path")
    p.add_argument("--raw", type=Path, default=None, help="per-case CSV path")
    p.set_defaults(func=_cmd_grid)

    p = sub.add_parser("noise", help="run the pinned cell across noise levels")
    p.add_argument("--config", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--raw", type=Path, default=None)
    p.set_defaults(func=_cmd_noise)

    p = sub.add_parser(
        "export-pca-coords", help="candidate coordinates in an SPD principal basis"
    )
    _add_illuminants_arg(p)
    p.add_argument("--projection-set", type=Path, default=None, help="names file to fit on")
    p.add_argument("--components", type=int, default=3)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=_cmd_export_pca)

    return parser


#: The least value of each integer option, by subcommand; one bin would tie every
#: candidate. `main` rejects a smaller one before the command reads or writes any file.
_LEAST = {
    "synth": {
        "seed": 0, "scenes": 3, "width": 1, "height": 1, "basis": 1, "bands": 1, "patches": 0,
    },
    "select-projection-set": {"k": 2, "seed": 0},
    "fit": {
        "projection_set_k": 2, "projection_set_seed": 0, "d_prime": 1, "seed": 0,
        "downsample": 1, "nnmf_max_iter": 1,
    },
    "build-model": {"bins": 2, "downsample": 1},
    "classify": {"downsample": 1},
    "export-pca-coords": {"components": 1},
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for dest, least in _LEAST.get(args.command, {}).items():
            value = getattr(args, dest)
            if value is not None and value < least:
                raise ValueError(f"--{dest.replace('_', '-')} must be >= {least}, got {value}")
        return args.func(args)
    except Exception as exc:  # surface one-line diagnostics, not tracebacks
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
