"""Kinematic diffraction of binary Dirac combs on the integer lattice.

Six comb families spanning the whole entropy range, each of one of three
shapes (a cycle of weights, the Rudin-Shapiro signs, a coin over a +-1
base), their correlation estimates and closed forms, finite-size
diffraction, an exact-arithmetic check of the Rudin-Shapiro correlation
identity, order metrics, and separable two-factor products.
"""

from .combs import (
    DEFAULT_SEED,
    DEFAULT_SEEDS,
    MAX_WINDOW_ENV,
    ModelSpec,
    ResourceLimitError,
    WeightWindow,
    generate_window,
    index_uniforms,
    max_window_length,
    rs_weight,
    rs_weights,
)
from .correlation import (
    Autocorrelation,
    CorrelationComparison,
    RecursionCheckReport,
    analytic_autocorrelation,
    compare_autocorrelations,
    empirical_autocorrelation,
    verify_rs_recursions,
)
from .order import (
    EntropyReport,
    PatchComplexity,
    bernoulli_entropy,
    block_entropy,
    entropy_report,
    exact_entropy,
    patch_complexity,
)
from .products import (
    ProductAutocorrelation,
    ProductSpectralMeasure,
    product_autocorrelation,
    product_diffraction,
)
from .spectra import (
    BinnedMeasure,
    BraggWeightEstimate,
    Periodogram,
    SpectralComparison,
    SpectralMeasure,
    analytic_diffraction,
    as_wavenumber,
    binned_measure,
    bragg_weight,
    direct_intensity,
    ensemble_binned_masses,
    periodogram,
    spectral_homometry,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_SEED",
    "DEFAULT_SEEDS",
    "MAX_WINDOW_ENV",
    "Autocorrelation",
    "BinnedMeasure",
    "BraggWeightEstimate",
    "CorrelationComparison",
    "EntropyReport",
    "ModelSpec",
    "PatchComplexity",
    "Periodogram",
    "ProductAutocorrelation",
    "ProductSpectralMeasure",
    "RecursionCheckReport",
    "ResourceLimitError",
    "SpectralComparison",
    "SpectralMeasure",
    "WeightWindow",
    "analytic_autocorrelation",
    "analytic_diffraction",
    "as_wavenumber",
    "bernoulli_entropy",
    "binned_measure",
    "block_entropy",
    "bragg_weight",
    "compare_autocorrelations",
    "direct_intensity",
    "empirical_autocorrelation",
    "ensemble_binned_masses",
    "entropy_report",
    "exact_entropy",
    "generate_window",
    "index_uniforms",
    "max_window_length",
    "patch_complexity",
    "periodogram",
    "product_autocorrelation",
    "product_diffraction",
    "rs_weight",
    "rs_weights",
    "spectral_homometry",
    "verify_rs_recursions",
]
