"""An end-to-end reference for `run_grid` and `run_noise`: slow, dense and
obviously correct.

For each report row the reference takes the projection the runner scores it
under (for rand, pca, ill_pca and lda the leading d' components of the fit at
the sweep's largest d', as the sweep serves every d' from that fit), then
rebuilds the row's model and its cases from first principles: every training
scene relit by each candidate's SPD alone, each pixel featurized on its own
(nnmf by the target-form Lawson-Hanson of `nnls_oracle`), one dense
histogram per candidate over the whole cell grid, and a relight-and-score
loop over the (scene, candidate) cases. It returns each case's tie set:
every candidate whose score is within TIE_TOL of the best. A prediction of
the sweep must lie in its case's tie set; sgw's snapped SPD is checked the
same way.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from illumest import synth_dataset
from illumest.bundled import bundled_illuminant_manifest
from illumest.cbc import BOUNDS_MARGIN, DEGENERATE_WIDTH, MODE_LOG
from illumest.evaluation import AVG_VARIANT, METHOD_SGW, NO_VARIANT, GridConfig, _Runner
from illumest.projections import NESTED_KINDS, leading_projection
from illumest.spectral import ZERO_NORM_EPS, SpectralAxis, add_noise, mix_seed, relight
from nnls_oracle import target_nnls

#: Scores within this share of the best one (or of 1) tie with it: far above
#: the rounding of a different summation order, far below a one-pixel change.
TIE_TOL = 1e-9


def reference_features(proj, radiance):
    """One pixel at a time: the chromaticity (rgb: the L1-normalized camera
    response) of each non-black radiance row, projected; and the kept mask."""
    feats, kept = [], []
    for px in radiance:
        v = proj.basis @ px if proj.kind == "rgb" else px
        total = math.fsum(v)
        kept.append(total > ZERO_NORM_EPS)
        if not kept[-1]:
            continue
        c = v / total
        if proj.kind == "nnmf":
            feats.append(target_nnls(proj.basis, c))
        elif proj.kind in ("pca", "ill_pca"):
            feats.append((c - proj.mean) @ proj.basis)
        elif proj.kind == "rgb":
            feats.append(c)
        else:
            feats.append(proj.basis @ c)
    return np.array(feats).reshape(-1, proj.output_dim), np.array(kept, dtype=bool)


def reference_cells(feats, lo, hi, n_bins):
    """Row-major flat cell of each row, each coordinate clamped to the grid."""
    idx = np.floor((feats - lo) / (hi - lo) * n_bins).astype(np.int64)
    idx = np.clip(idx, 0, n_bins - 1)
    return np.ravel_multi_index(tuple(idx.T), (n_bins,) * feats.shape[1])


class ReferenceModel:
    """Dense per-candidate histograms over the calibrated grid."""

    def __init__(self, per_candidate, n_bins, smoothing):
        pooled = np.concatenate(per_candidate)
        lo, hi = pooled.min(axis=0), pooled.max(axis=0)
        span = hi - lo
        flat = span <= 0
        mid = (lo + hi) / 2
        self.lo = np.where(flat, mid - DEGENERATE_WIDTH / 2, lo - BOUNDS_MARGIN * span)
        self.hi = np.where(flat, mid + DEGENERATE_WIDTH / 2, hi + BOUNDS_MARGIN * span)
        self.n_bins = n_bins
        self.n_cells = n_bins ** pooled.shape[1]
        self.hists = np.zeros((len(per_candidate), self.n_cells))
        for hist, feats in zip(self.hists, per_candidate):
            for cell in reference_cells(feats, self.lo, self.hi, n_bins):
                hist[cell] += 1.0
            hist += smoothing
            hist /= len(feats) + smoothing * self.n_cells

    def ties(self, feats, mode):
        """The candidates whose score on these test features is within
        TIE_TOL of the best."""
        test = np.zeros(self.n_cells)
        for cell in reference_cells(feats, self.lo, self.hi, self.n_bins):
            test[cell] += 1.0 / len(feats)
        seen = test > 0
        table = np.log(self.hists[:, seen]) if mode == MODE_LOG else self.hists[:, seen]
        scores = np.array([math.fsum(row * test[seen]) for row in table])
        best = scores.max()
        return frozenset(np.flatnonzero(scores >= best - TIE_TOL * max(1.0, abs(best))))


def sgw_ties(radiance, candidates):
    """Spectral gray world: the candidates whose SPD's cosine with the mean
    of the non-black radiance rows is within TIE_TOL of the best."""
    usable = radiance[[math.fsum(px) > ZERO_NORM_EPS for px in radiance]]
    mean = usable.mean(axis=0)
    cosines = np.array([
        spd @ mean / (np.linalg.norm(spd) * np.linalg.norm(mean))
        for spd in candidates.spd_matrix()
    ])
    return frozenset(np.flatnonzero(cosines >= cosines.max() - TIE_TOL))


def case_radiance(runner, noise_db):
    """Each (test scene, candidate) case's valid radiance rows: the scene
    relit by the candidate's normalized SPD, with noise from the case's seed."""
    master = runner.config.noise_master_seed
    cases = {}
    for i, img in enumerate(runner.test_eval):
        for j, ill in enumerate(runner.full):
            lit = relight(img, ill.normalized_spd())
            if noise_db is not None:
                lit = add_noise(lit, noise_db, mix_seed(master, i, j))
            cases[i, j] = lit.valid_pixels()
    return cases


def reference_ties(runner, row, radiance):
    """{(scene, candidate): tie set} for one report row, rebuilt from scratch."""
    cfg = runner.config
    if row.method == METHOD_SGW:
        return {case: sgw_ties(px, runner.full) for case, px in radiance.items()}
    d_prime = row.d_prime
    if row.method in NESTED_KINDS:  # fitted once, at the largest d' of the row's sweep
        d_prime = max(cfg.d_primes) if row.noise_label == NO_VARIANT else cfg.noise_d_prime
    fits = runner._fits((row.method,), (d_prime,), runner._read((row.method,)))
    (proj,) = [p for _, v, p in fits[0] if v == row.variant]
    if row.method in NESTED_KINDS:
        proj = leading_projection(proj, row.d_prime)
    train = [
        np.concatenate([
            reference_features(proj, img.valid_pixels() * ill.spd.values)[0]
            for img in runner.train_eval
        ])
        for ill in runner.full
    ]
    model = ReferenceModel(train, row.n_bins, cfg.smoothing)
    return {
        case: model.ties(reference_features(proj, px)[0], cfg.score_mode)
        for case, px in radiance.items()
    }


def check_report(runner, report, levels):
    """Every per-case prediction of the report lies in the reference's tie
    set; returns (cases checked, cases whose tie set has one member)."""
    radiance = {label: case_radiance(runner, db) for label, db in levels.items()}
    checked = single = 0
    for row in report.rows:
        if row.variant == AVG_VARIANT:
            continue
        ties = reference_ties(runner, row, radiance[row.noise_label])
        for (i, j), tied in ties.items():
            predicted = int(row.predicted[i, j])
            assert predicted in tied, (
                f"{row.method} d'={row.d_prime} B={row.n_bins} {row.variant} "
                f"noise {row.noise_label}: scene {i}, true {j}: predicted {predicted}, "
                f"reference ties {sorted(map(int, tied))}"
            )
            checked += 1
            single += len(tied) == 1
    return checked, single


#: Two small configurations that cover every projection and sgw, both score
#: modes, the clean path and the noisy path under a linear kind and nnmf.
CONFIGS = {
    "log": dict(
        scenes=dict(n_scenes=9, base_seed=3, width=16, height=16),
        config=dict(
            methods=("rgb", "rand", "pca", "ill_pca", "nnmf", "lda", "sgw"),
            d_primes=(1, 3),
            bins=(4, 7),
            rand_seeds=(42,),
            downsample_eval=4,
            downsample_fit=4,
            downsample_lda=8,
            nnmf_max_iter=30,
            noise_method="lda",
            noise_d_prime=2,
            noise_bins=6,
            noise_levels=(30.0, 10.0),
        ),
        cameras=slice(0, 2),
    ),
    "dot": dict(
        scenes=dict(n_scenes=6, base_seed=21, width=8, height=8),
        config=dict(
            methods=("rgb", "rand", "pca", "ill_pca", "nnmf", "lda", "sgw"),
            d_primes=(2,),
            bins=(5,),
            rand_seeds=(7,),
            projection_set_k=6,
            downsample_eval=1,
            downsample_fit=2,
            downsample_lda=4,
            nnmf_max_iter=30,
            score_mode="dot",
            smoothing=1e-3,
            noise_method="nnmf",
            noise_d_prime=2,
            noise_bins=5,
            noise_levels=(25.0,),
        ),
        cameras=slice(2, 3),
    ),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_sweep_predictions_lie_in_the_reference_tie_sets(name, tmp_path, bundled_cameras):
    spec = CONFIGS[name]
    manifest, _ = synth_dataset(tmp_path / "scenes", axis=SpectralAxis(), **spec["scenes"])
    cfg = GridConfig(
        dataset=manifest,
        illuminants=bundled_illuminant_manifest(),
        cameras=tuple(bundled_cameras[spec["cameras"]]),
        **spec["config"],
    )
    runner = _Runner(cfg)
    grid = runner.grid()
    n_cases = len(runner.test_eval) * len(runner.full)
    checked, single = check_report(runner, grid, {"-": None})
    assert checked == len([r for r in grid.rows if r.variant != AVG_VARIANT]) * n_cases
    levels = {"clean": None, **{f"{db:g}": db for db in cfg.noise_levels}}
    noisy, noisy_single = check_report(runner, runner.noise(), levels)
    assert noisy == len(levels) * n_cases
    # the reference decides most cases alone (ties come mostly from d' = 1
    # at few bins), so a wrong model shows
    assert single + noisy_single > 0.7 * (checked + noisy)
