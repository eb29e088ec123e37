"""Illuminant estimation from hyperspectral images.

Relights reflectance scenes under candidate light sources, learns
low-dimensional spectral projections, and classifies the scene illuminant
by correlating binned chromaticity histograms. Includes an angular-error
evaluation harness, a noise-robustness protocol, and a gray-world baseline.
"""

from .spectral import (
    SpectralAxis,
    Spectrum,
    SpectralImage,
    SensitivityFunctions,
    ZERO_NORM_EPS,
    add_noise,
    chromaticity_rows,
    downsample,
    mix_seed,
    noise_sigma,
    relight,
    sensor_project,
)
from .illuminants import (
    Illuminant,
    IlluminantSet,
    kmeans,
    load_illuminants,
    select_projection_set,
)
from .projections import (
    Projection,
    TrainingMatrix,
    fit_ill_pca,
    fit_lda,
    fit_nnmf,
    fit_pca,
    fit_rand,
    fit_rgb,
    nnmf_factorize,
    read_projection,
    write_projection,
)
from .cbc import (
    BlockFeatures,
    CorrelationModel,
    block_features,
    build_model,
    calibrate_bounds,
    classify,
    read_model,
    score,
    training_features,
    write_model,
)
from .baselines import spectral_gray_world
from .evaluation import (
    EvalReport,
    ErrorSummary,
    GridConfig,
    angular_error_deg,
    parse_config,
    run_grid,
    run_noise,
    summarize,
)
from .synth import SceneRecipe, demo_dataset, generate_scene, synth_dataset, white_scene
from .bundled import bundled_camera_paths, bundled_illuminant_manifest

__version__ = "0.1.0"

__all__ = [
    "SpectralAxis",
    "Spectrum",
    "SpectralImage",
    "SensitivityFunctions",
    "ZERO_NORM_EPS",
    "add_noise",
    "chromaticity_rows",
    "downsample",
    "mix_seed",
    "noise_sigma",
    "relight",
    "sensor_project",
    "Illuminant",
    "IlluminantSet",
    "kmeans",
    "load_illuminants",
    "select_projection_set",
    "Projection",
    "TrainingMatrix",
    "fit_ill_pca",
    "fit_lda",
    "fit_nnmf",
    "fit_pca",
    "fit_rand",
    "fit_rgb",
    "nnmf_factorize",
    "read_projection",
    "write_projection",
    "BlockFeatures",
    "CorrelationModel",
    "block_features",
    "build_model",
    "calibrate_bounds",
    "classify",
    "read_model",
    "score",
    "training_features",
    "write_model",
    "spectral_gray_world",
    "EvalReport",
    "ErrorSummary",
    "GridConfig",
    "angular_error_deg",
    "parse_config",
    "run_grid",
    "run_noise",
    "summarize",
    "SceneRecipe",
    "demo_dataset",
    "generate_scene",
    "synth_dataset",
    "white_scene",
    "bundled_camera_paths",
    "bundled_illuminant_manifest",
    "__version__",
]
