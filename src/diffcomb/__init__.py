"""Kinematic diffraction of binary Dirac combs on the integer lattice.

Six comb families spanning the whole entropy range, each of one of three
shapes (a cycle of weights, the Rudin-Shapiro signs, a coin over a +-1
base), their correlation estimates and closed forms, finite-size
diffraction, an exact-arithmetic check of the Rudin-Shapiro correlation
identity, order metrics, and separable two-factor products.  A public name
imports its module on first use (PEP 562), so ``import diffcomb`` loads none.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "combs": ("DEFAULT_SEED", "DEFAULT_SEEDS", "MAX_WINDOW_ENV", "ModelSpec", "ResourceLimitError",
              "WeightWindow", "generate_window", "index_uniforms", "max_window_length",
              "rs_weight", "rs_weights"),
    "correlation": ("Autocorrelation", "CorrelationComparison", "RecursionCheckReport",
                    "analytic_autocorrelation", "compare_autocorrelations",
                    "empirical_autocorrelation", "verify_rs_recursions"),
    "order": ("EntropyReport", "PatchComplexity", "bernoulli_entropy", "block_entropy",
              "entropy_report", "exact_entropy", "patch_complexity"),
    "products": ("ProductAutocorrelation", "ProductSpectralMeasure", "product_autocorrelation",
                 "product_diffraction"),
    "spectra": ("BinnedMeasure", "BraggWeightEstimate", "Periodogram", "SpectralComparison",
                "SpectralMeasure", "analytic_diffraction", "as_wavenumber", "binned_measure",
                "bragg_weight", "direct_intensity", "ensemble_binned_masses", "periodogram",
                "spectral_homometry"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    """A table module, or a public name read from its module and kept here."""
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
