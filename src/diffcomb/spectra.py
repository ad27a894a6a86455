"""Finite-size diffraction and closed-form spectral measures.

The periodogram I_N(k) = |sum_{|n|<=N} w(n) e^{-2 pi i k n}|^2 / (2N+1) is
evaluated on the grid k = j/G by folding the window onto residues mod G and
taking one FFT; that is algebraically the direct sum, since the phase only
depends on n mod G.  A Bragg weight at k = 0 or 1/2 of a +-1 model is counted
from its sign mask, as its amplitude there is an integer.  Closed-form measures
carry point masses on [0, 1) plus a constant diffuse density (singular-continuous
parts are not modelled).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._util import float_array, json_form, write_table
from .combs import (
    ModelSpec,
    WeightWindow,
    _check_count,
    _check_tolerance,
    _check_window_length,
    _check_work,
    _flips,
    _sign_mask,
    ensemble,
    generate_window,
)


@dataclass(eq=False)
class Periodogram:
    """Intensities on the wavenumber grid j/G, j = 0..G-1."""

    grid_size: int
    intensities: np.ndarray

    def __post_init__(self):
        self.intensities = float_array(self.intensities, (self.grid_size,),
                                       "intensities must have length grid_size")

    def wavenumbers(self) -> np.ndarray:
        return np.arange(self.grid_size) / self.grid_size

    def grid_mean(self) -> float:
        return float(self.intensities.mean())

    def to_csv(self, path, output_format: str = "csv") -> None:
        write_table(path, ["k", "intensity"], [self.wavenumbers(), self.intensities], output_format)


def periodogram(spec: ModelSpec, N: int, G: int) -> Periodogram:
    """Scaled intensity of the window [-N, N] on the G-point wavenumber grid."""
    return _periodogram(next(_folds(spec, (spec,), N, G)), N)


def _periodogram(folded: np.ndarray, N: int) -> Periodogram:
    """The periodogram of a window of 2N + 1 sites from its sums over the residues mod G."""
    return Periodogram(folded.size, np.abs(np.fft.fft(folded)) ** 2 / (2 * N + 1))


def _folds(spec: ModelSpec, streams, N: int, G: int):
    """The sums over the residues mod G of the window [-N, N] of each stream of spec's
    ensemble.  The window of the deterministic base (a coin's base, else the model) and
    its residues are made once; each stream sums it negated where its coin flips."""
    _check_count("window half-size N", N)
    _check_count("grid size G", G)
    _check_window_length(G)
    base = generate_window(spec.coin_base or spec, -N, N).weights
    residues = np.arange(-N, N + 1) % G
    for stream in streams:
        with _flipped(base, stream, -N):
            folded = np.bincount(residues, weights=base, minlength=G)
        yield folded


@contextmanager
def _flipped(values: np.ndarray, stream: ModelSpec, first: int):
    """values, sites first, first + 1, ... of the base's window (or of its terms), times
    stream's coin signs in place, and restored on exit: a product with +-1 is exact, so
    inside they hold stream's own window's values.  A model with no coin keeps them."""
    if stream.coin_base is None:
        yield
        return
    signs = -2.0 * _flips(stream, first, values.size)
    signs += 1.0
    values *= signs
    try:
        yield
    finally:
        values *= signs


def direct_intensity(window: WeightWindow, k: float) -> float:
    """I(k) of one window by direct summation at a single wavenumber."""
    n = window.indices()
    return _intensity(np.sum(window.weights * np.exp(-2j * np.pi * k * n)), len(window))


def _intensity(amplitude, length: int) -> float:
    """|amplitude|^2 / length: the intensity of a window's phase sum."""
    return float(abs(amplitude) ** 2) / length


# ── Bragg peak weight along growing windows ────────────────────────────────

def as_wavenumber(k0) -> float:
    """Parse a wavenumber in [0, 1): accepts float, Fraction, or text like '1/2'."""
    if isinstance(k0, str):
        try:
            k0 = Fraction(k0)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse wavenumber {k0!r}: {exc}") from exc
    if isinstance(k0, bool) or not isinstance(k0, (Fraction, int, float)):
        raise ValueError(f"wavenumber must be numeric or rational text, got {k0!r}")
    value = float(k0)
    if not 0.0 <= value < 1.0:
        raise ValueError(f"wavenumber must lie in [0, 1), got {value}")
    return value


@dataclass
class BraggWeightEstimate:
    """I_N(k0) / (2N+1) along increasing window sizes, with a growth label.

    The label comes from the least-squares slope of log(weight) against
    log(2N+1): a point mass keeps the weight roughly constant (slope near 0),
    a purely continuous spectrum keeps the intensity bounded so the weight
    decays like 1/N (slope near -1).  The cut is at -1/2.  Weights that are
    all exactly 0 are labelled continuous (no point mass); some but not all
    exactly 0 are indeterminate, as 0 has no logarithm.  Neither fits a slope.
    """

    position: float
    entries: list[tuple[int, float]]
    limit: float
    growth: str
    growth_slope: float | None
    seeds: tuple[int, ...] | None = None

    def to_json(self) -> dict:
        return json_form(self)


def bragg_weight(spec: ModelSpec, k0, N_list, seeds=None) -> BraggWeightEstimate:
    """Finite-size point-mass weight at one wavenumber, ensemble-averaged for
    stochastic models (default seeds 1..50); the extrapolated limit is the
    value at the largest window.  Seeds x sites of the largest window, and streams
    x the terms of all windows, are bounded by ENSEMBLE_WORK_FACTOR window caps.

    The base (a coin's base, else the model) is made once at the largest N, and each
    seed reads it with its coin's flips, so the intensities are those of per-seed
    windows to the bit.  At k0 = 0 and 1/2 a +-1 model's amplitude is the integer
    (2N + 1) - 2 * (the sites whose term is negative), counted on the base's sign mask
    XOR the seed's flips shell by shell, so a seed reads its sites once; elsewhere each
    N sums the centre of the terms base(n) e^{-2 pi i k0 n} times its signs (_flipped).
    """
    k = as_wavenumber(k0)
    sizes = [_check_count("window half-size N", N) for N in N_list]
    if not sizes:
        raise ValueError("N_list must be nonempty")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("N_list must be strictly increasing")
    streams = ensemble(spec, seeds, 2 * sizes[-1] + 1)
    _check_window_length(2 * sizes[-1] + 1)
    _check_work(len(streams), "streams", sum(2 * N + 1 for N in sizes), "work")
    intensities = [  # [stream][size]
        [_intensity(a, 2 * N + 1) for N, a in zip(sizes, amplitudes)]
        for amplitudes in _amplitudes(spec, streams, sizes, k)
    ]
    entries = [
        (N, float(np.mean([row[j] for row in intensities])) / (2 * N + 1))
        for j, N in enumerate(sizes)
    ]
    slope, growth = None, "indeterminate"
    weights = [w for _, w in entries]
    if not any(weights):
        growth = "continuous"
    elif len(entries) >= 2 and all(weights):
        lengths = np.log([2 * N + 1 for N, _ in entries])
        slope = float(np.polyfit(lengths, np.log(weights), 1)[0])
        growth = "pure-point" if slope > -0.5 else "continuous"
    seed_list = tuple(stream.seed for stream in streams) if spec.is_stochastic else None
    return BraggWeightEstimate(k, entries, entries[-1][1], growth, slope, seed_list)


def _amplitudes(spec: ModelSpec, streams, sizes: list[int], k: float):
    """Per stream, its window's sums of w(n) e^{-2 pi i k n} over [-N, N] for each N of
    sizes (bragg_weight): integers from sign counts at k = 0 and 1/2, else complex."""
    top = sizes[-1]
    base = spec.coin_base or spec
    if spec.is_binary and k in (0.0, 0.5):
        negatives = _sign_mask(base, -top, top)
        if k:
            negatives[(top + 1) % 2 :: 2] ^= True  # the odd sites, whose phase is -1
        for stream in streams:
            signs = negatives
            if stream.coin_base is not None:
                signs = _flips(stream, -top, negatives.size)
                signs ^= negatives
            lo = hi = top
            count, amplitudes = 0, []
            for N in sizes:
                count += np.count_nonzero(signs[top - N : lo])
                count += np.count_nonzero(signs[hi : top + N + 1])
                lo, hi = top - N, top + N + 1
                amplitudes.append(2 * N + 1 - 2 * count)
            yield amplitudes
        return
    terms = np.exp(-2j * np.pi * k * np.arange(-top, top + 1))
    terms *= generate_window(base, -top, top).weights
    for stream in streams:
        with _flipped(terms, stream, -top):
            amplitudes = [np.sum(terms[top - N : top + N + 1]) for N in sizes]
        yield amplitudes


# ── Binned measure ─────────────────────────────────────────────────────────

@dataclass(eq=False)
class BinnedMeasure:
    """Masses of equal bins partitioning [0, 1); bin b covers [b, b+1)/bins."""

    bins: int
    masses: np.ndarray

    def __post_init__(self):
        self.masses = float_array(self.masses, (self.bins,), "masses must have length bins")

    def edges(self) -> np.ndarray:
        return np.arange(self.bins + 1) / self.bins

    def total(self) -> float:
        return float(self.masses.sum())

    def to_csv(self, path, output_format: str = "csv") -> None:
        edges = self.edges()
        values = [edges[:-1], edges[1:], self.masses]
        write_table(path, ["bin_lo", "bin_hi", "mass"], values, output_format)


def binned_measure(pg: Periodogram, bins: int) -> BinnedMeasure:
    """Integrate a periodogram over equal bins; bins must divide the grid size."""
    _check_count("bins", bins)
    if pg.grid_size % bins != 0:
        raise ValueError(f"bins={bins} does not divide grid size {pg.grid_size}")
    per_bin = pg.grid_size // bins
    masses = pg.intensities.reshape(bins, per_bin).sum(axis=1) / pg.grid_size
    return BinnedMeasure(bins, masses)


# ── Closed-form measures ───────────────────────────────────────────────────

@dataclass
class SpectralMeasure:
    """One period [0, 1) of a closed-form diffraction: point masses plus a
    constant diffuse density; singular-continuous parts are not modelled."""

    bragg: tuple[tuple[float, float], ...]
    ac_level: float
    sc: str = "none-modelled"

    def __post_init__(self):
        positions = [pos for pos, _ in self.bragg]
        if sorted(positions) != positions or len(set(positions)) != len(positions):
            raise ValueError("point masses must be sorted by distinct positions")
        if any(not 0.0 <= pos < 1.0 for pos in positions):
            raise ValueError("point-mass positions must lie in [0, 1)")
        if any(weight <= 0.0 for _, weight in self.bragg):
            raise ValueError("point-mass weights must be positive")
        if self.ac_level < 0.0:
            raise ValueError("diffuse level must be nonnegative")

    def total(self) -> float:
        return float(sum(weight for _, weight in self.bragg) + self.ac_level)

    def to_json(self) -> dict:
        return json_form(self)


def analytic_diffraction(spec: ModelSpec) -> SpectralMeasure:
    """Closed-form diffraction of a model over one period of wavenumbers, by
    its shape: a cycle c of period q has point masses |fft(c)_j / q|**2 at
    j / q (w * w at 0 for the constant w); Rudin-Shapiro is Lebesgue measure;
    a coin model has its base's measure damped by (2p - 1)**2 plus the
    diffuse level 4p(1 - p) (Baake & Grimm, arXiv:0810.5750)."""
    cycle, coin = spec.cycle, spec.coin_base
    if cycle is not None:
        c = np.asarray(cycle)
        q = c.size
        weights = np.abs(np.fft.fft(c) / q) ** 2
        # Numerically zero Fourier amplitudes are true extinctions; drop them.
        floor = 1e-12 * float(np.mean(c**2))
        bragg = tuple(
            (j / q, float(weights[j])) for j in range(q) if weights[j] > floor
        )
        return SpectralMeasure(bragg, 0.0)
    if coin is None:
        return SpectralMeasure((), 1.0)
    base = analytic_diffraction(coin)
    damping = (2.0 * spec.p - 1.0) ** 2
    bragg = tuple((pos, damping * weight) for pos, weight in base.bragg) if damping > 0.0 else ()
    ac = damping * base.ac_level + 4.0 * spec.p * (1.0 - spec.p)
    return SpectralMeasure(bragg, ac)


# ── Homometry in spectral form ─────────────────────────────────────────────

def ensemble_binned_masses(spec: ModelSpec, N: int, G: int, bins: int, seeds=None) -> np.ndarray:
    """Binned periodogram masses; stochastic specs are averaged over seeds (1..50 if None),
    whose number times the 2N + 1 sites is bounded by the ensemble budget.  The seeds
    share one base window (_folds)."""
    masses = [
        binned_measure(_periodogram(folded, N), bins).masses
        for folded in _folds(spec, ensemble(spec, seeds, 2 * N + 1), N, G)
    ]
    return sum(masses) / len(masses)


@dataclass
class SpectralComparison:
    """Sup-distance between two binned measures."""

    bins: int
    distance: float
    tolerance: float
    passed: bool
    masses_a: list[float]
    masses_b: list[float]

    def to_json(self) -> dict:
        return json_form(self)


def spectral_homometry(
    a: ModelSpec, b: ModelSpec, N: int, G: int, bins: int, tol: float, seeds=None
) -> SpectralComparison:
    """Compare binned finite-size spectra of two models (ensemble-averaged for
    stochastic specs) and report the worst bin discrepancy against tol."""
    _check_tolerance(tol)
    masses_a = ensemble_binned_masses(a, N, G, bins, seeds)
    masses_b = ensemble_binned_masses(b, N, G, bins, seeds)
    distance = float(np.max(np.abs(masses_a - masses_b)))
    return SpectralComparison(
        bins, distance, float(tol), distance <= tol, masses_a.tolist(), masses_b.tolist()
    )
