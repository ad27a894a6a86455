"""Separable products of two one-dimensional combs.

A product comb weights the lattice point (n1, n2) by w1(n1) * w2(n2), so both
the correlation and the diffraction factorise; the two-dimensional objects
here are assembled from their one-dimensional factors rather than recomputed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import float_array, json_form, write_table
from .combs import _check_window_length
from .correlation import Autocorrelation
from .spectra import SpectralMeasure


@dataclass(eq=False)
class ProductAutocorrelation:
    """Correlation coefficients on the lag square [-max_lag, max_lag]^2."""

    max_lag: int
    eta: np.ndarray

    def __post_init__(self):
        size = 2 * self.max_lag + 1
        self.eta = float_array(self.eta, (size, size),
                               "eta must be square with side 2 * max_lag + 1")

    def value(self, m1: int, m2: int) -> float:
        M = self.max_lag
        if abs(m1) > M or abs(m2) > M:
            raise ValueError(f"lag ({m1}, {m2}) outside [-{M}, {M}]^2")
        return float(self.eta[m1 + M, m2 + M])

    def to_csv(self, path, output_format: str = "csv") -> None:
        lags = np.arange(-self.max_lag, self.max_lag + 1)
        values = [np.repeat(lags, lags.size), np.tile(lags, lags.size), self.eta.ravel()]
        write_table(path, ["m1", "m2", "eta"], values, output_format)


def product_autocorrelation(a: Autocorrelation, b: Autocorrelation) -> ProductAutocorrelation:
    """Correlation of the product comb: the outer product of the factors;
    the window cap bounds the (2M + 1)**2 cells of the lag square."""
    if a.max_lag != b.max_lag:
        raise ValueError(f"factor lag ranges differ: {a.max_lag} vs {b.max_lag}")
    _check_window_length((2 * a.max_lag + 1) ** 2)
    return ProductAutocorrelation(a.max_lag, np.outer(a.eta, b.eta))


@dataclass
class ProductSpectralMeasure:
    """Diffraction of a product comb over one period square [0, 1)^2.

    Four labelled components: point masses at position pairs, two families of
    lines (a point mass in one coordinate times the diffuse density of the
    other factor), and a constant plane density.
    """

    point_masses: tuple[tuple[tuple[float, float], float], ...]
    lines_fixed_k1: tuple[tuple[float, float], ...]
    lines_fixed_k2: tuple[tuple[float, float], ...]
    plane_level: float

    def total(self) -> float:
        return float(
            sum(w for _, w in self.point_masses)
            + sum(w for _, w in self.lines_fixed_k1)
            + sum(w for _, w in self.lines_fixed_k2)
            + self.plane_level
        )

    def to_json(self) -> dict:
        return {**json_form(self), "sc": "none-modelled"}


def product_diffraction(a: SpectralMeasure, b: SpectralMeasure) -> ProductSpectralMeasure:
    """Diffraction of the product comb from its factors' closed forms."""
    point_masses = tuple(
        ((pos_a, pos_b), w_a * w_b) for pos_a, w_a in a.bragg for pos_b, w_b in b.bragg
    )
    lines_k1 = tuple((pos_a, w_a * b.ac_level) for pos_a, w_a in a.bragg) if b.ac_level > 0 else ()
    lines_k2 = tuple((pos_b, a.ac_level * w_b) for pos_b, w_b in b.bragg) if a.ac_level > 0 else ()
    return ProductSpectralMeasure(
        point_masses, lines_k1, lines_k2, a.ac_level * b.ac_level
    )
