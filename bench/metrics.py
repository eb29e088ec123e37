"""Every metric the benchmark reports, with its unit and what it should move.

BENCHMARK.json lists the same names, units and directions (the self-test
checks that they agree); the targets below say which end-to-end metric, on
which workload, a change in each per-layer metric should show up in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: Optional[float] = None  # end-to-end only: allowed worsening share
    target: str = ""  # per-layer only: the end-to-end metric it moves


END_TO_END = (
    Metric("wall_s", "s", "lower", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
)

_GRIDS = "wall_s on grid_nnmf and grid_hist"
_HIST = "wall_s on grid_hist"
_NNMF = "wall_s on grid_nnmf"
_CLASSIFY_SETUP = "setup_s on classify"

PER_LAYER = (
    Metric("io.read_scube.s", "s", "lower", target=_CLASSIFY_SETUP),
    Metric("cbc.write_model.s", "s", "lower", target=_CLASSIFY_SETUP),
    Metric("cbc.read_model.s", "s", "lower", target=_CLASSIFY_SETUP),
    Metric("spectral.downsample.s", "s", "lower", target=_HIST),
    Metric("spectral.relight.s", "s", "lower", target=_HIST),
    Metric("spectral.relight.calls", "count", "lower", target=_HIST),
    Metric("spectral.add_noise.s", "s", "lower", target=_HIST),
    Metric("spectral.add_noise.calls", "count", "lower", target=_HIST),
    Metric(
        "illuminants.select_projection_set.s", "s", "lower",
        target="setup_s and wall_s on every workload",
    ),
    Metric("linalg.nnls.s", "s", "lower", target=_NNMF + "; zero elsewhere"),
    Metric("linalg.nnls.calls", "count", "lower", target=_NNMF + "; zero elsewhere"),
    Metric("linalg.nnls_rows.s", "s", "lower", target=_NNMF + "; zero elsewhere"),
    Metric("linalg.nnls_rows.rows", "count", "lower", target=_NNMF + "; zero elsewhere"),
    Metric("linalg.nnls_fast_frac", "ratio", "higher", target=_NNMF),
    Metric("projections.fit.s", "s", "lower", target=_GRIDS),
    Metric("projections.fit_rgb.s", "s", "lower", target=_HIST),
    Metric("projections.fit_rand.s", "s", "lower", target=_HIST),
    Metric("projections.fit_pca.s", "s", "lower", target=_HIST),
    Metric("projections.fit_ill_pca.s", "s", "lower", target=_HIST + "; " + _CLASSIFY_SETUP),
    Metric("projections.fit_nnmf.s", "s", "lower", target=_NNMF),
    Metric("projections.fit_lda.s", "s", "lower", target=_HIST),
    Metric("projections.apply_rows.s", "s", "lower", target=_GRIDS),
    Metric("projections.apply_rows.rows", "count", "lower", target=_GRIDS),
    Metric(
        "cbc.pixel_features.s", "s", "lower",
        target=_HIST + "; classify_p50_ms on classify",
    ),
    Metric(
        "cbc.pixel_features.rows", "count", "lower",
        target=_HIST + "; classify_p50_ms on classify",
    ),
    Metric("cbc.bin_indices.s", "s", "lower", target=_HIST + "; classify_p50_ms on classify"),
    Metric("cbc.score.s", "s", "lower", target=_HIST + "; classify_p50_ms on classify"),
    Metric("cbc.score.calls", "count", "lower", target=_HIST + "; classify_p50_ms on classify"),
    Metric(
        "cbc.HistogramGrid.prob_at.calls", "count", "lower",
        target=_HIST + "; classify_p50_ms on classify",
    ),
    Metric("cbc.calibrate_bounds.s", "s", "lower", target=_HIST + "; " + _CLASSIFY_SETUP),
    Metric("cbc.build_model.s", "s", "lower", target=_HIST + "; " + _CLASSIFY_SETUP),
    Metric("cbc.build_model.calls", "count", "lower", target=_HIST + "; " + _CLASSIFY_SETUP),
    Metric(
        "cbc.model_cells", "count", "lower",
        target="peak_rss_mb on grid_hist and classify (computed from the largest model)",
    ),
    Metric(
        "cbc.model_bytes", "bytes", "lower",
        target="peak_rss_mb on grid_hist and classify (computed from the largest model)",
    ),
    Metric("evaluation.run.self_s", "s", "lower", target=_GRIDS),
    Metric("baselines.spectral_gray_world.s", "s", "lower", target=_HIST),
    Metric(
        "trace.overhead_s", "s", "lower",
        target="none: traced minus untraced wall of the same passes",
    ),
)
