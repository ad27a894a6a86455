"""End-to-end acceptance checks.

Each test covers one numbered claim about the package and prints a single
pass/fail line; run `pytest tests/test_acceptance.py -s -v` to see every line
even when all checks pass.  Tolerances are frozen from an offline calibration
run and sit well above the observed deviations.  Next to checks 3 and 4, two
oracle tests hold the coin family's seed-ensemble means to their exact
finite-window values.
"""

import math
import time

import numpy as np
import pytest

import diffcomb as dc
from diffcomb.cli import main as cli_main
from test_combs import ALT, RS, catalogue
from test_correlation import naive_autocorrelation
from test_products import direct_product_autocorrelation
from test_spectra import direct_periodogram

RS_SUP_INTENSITY = 24.0
RS_BIN_TOL = 0.01
BRAGG_TOL = 0.03
DIFFUSE_TOL = 0.02
DELTA_TOL = 0.05
PAIRWISE_TOL = 0.02
ENTROPY_EPS = 0.01


class _criterion:
    """Prints `acceptance N (name): PASS|FAIL` when the block exits."""

    def __init__(self, number, name):
        self.number = number
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"\nacceptance {self.number} ({self.name}): {status}")
        return False


def test_1_exact_recursion_identity():
    with _criterion(1, "exact lag-recursion check"):
        started = time.perf_counter()
        report = dc.verify_rs_recursions(1024)
        elapsed = time.perf_counter() - started
        assert report.passed
        assert report.violations == []
        assert report.checked == 4098
        assert elapsed < 1.0


def test_2_rudin_shapiro_flat_spectrum():
    with _criterion(2, "flat diffuse spectrum of the two-letter recursive comb"):
        for e in (10, 12, 14):
            pg = dc.periodogram(RS, 2**e, 2**12)
            assert float(pg.intensities.max()) <= RS_SUP_INTENSITY
        masses = dc.binned_measure(dc.periodogram(RS, 2**14, 2**12), 16).masses
        assert np.max(np.abs(np.asarray(masses) - 1.0 / 16.0)) <= RS_BIN_TOL


def test_3_bernoulli_ensemble_decomposition():
    with _criterion(3, "coin-comb point mass and diffuse level"):
        N, seeds = 2**16, range(1, 51)
        for p in (0.25, 0.5, 0.75):
            spec = dc.ModelSpec.bernoulli(p, 1)
            est = dc.bragg_weight(spec, 0, [N], seeds=seeds)
            assert abs(est.limit - (2 * p - 1) ** 2) <= BRAGG_TOL
            masses = dc.ensemble_binned_masses(spec, N, 2**12, 16, seeds)
            diffuse = float(np.mean(masses[1:]) * 16)
            assert abs(diffuse - 4 * p * (1 - p)) <= DIFFUSE_TOL


def test_4_homometric_family():
    with _criterion(4, "sign-flip family shares one spectrum"):
        ps = (0.0, 0.25, 0.5, 0.75, 1.0)
        specs = [dc.ModelSpec.bernoullised(RS, p, 1) for p in ps]
        reference = dc.analytic_autocorrelation(RS, 64)
        for spec in specs:
            emp = dc.empirical_autocorrelation(spec, 2**16, 64)
            assert dc.compare_autocorrelations(emp, reference, DELTA_TOL).passed
        binned = [
            dc.ensemble_binned_masses(spec, 2**14, 2**12, 16, range(1, 11))
            for spec in specs
        ]
        for i in range(len(specs)):
            for j in range(i + 1, len(specs)):
                assert np.max(np.abs(binned[i] - binned[j])) <= PAIRWISE_TOL


# The coin family's exact finite-window mean.  A +-1 base b whose signs are each
# kept with probability p has E[w(n) w(n')] = (2p - 1)**2 b(n) b(n') for n != n',
# so at every N, not only in the limit (Baake & Grimm, arXiv:0810.5750):
#   E[I_N(k)] = (2p - 1)**2 I_N^b(k) + 4p(1 - p), and over a bin of G / bins grid
#   points E[mass] = (2p - 1)**2 mass^b + 4p(1 - p) / bins;
#   E[eta_N(m)] = (2p - 1)**2 eta_N^b(m) for m != 0.
# The means over seeds 1..50 must lie within COIN_MEAN_Z standard errors of these
# at every bin and lag, and the same bound must refuse the means expected at
# p -+ 0.02 and those of the unflipped base (p = 1).  Measured: the right means
# read |z| <= 2.9, the wrong ones |z| >= 11.  One grid point's intensity is close
# to exponential, whose sample standard error shrinks with its mean (seeds 1..50
# of bernoulli(0.6), N = 2**13, read |z| = 6.5 at k = 1/3), so the periodogram is
# compared per bin of 64 grid points, whose sum is close to normal.
COIN_MEAN_Z = 5.0
COIN_SEEDS = range(1, 51)
COIN_BASES = {"constant": dc.ModelSpec.constant(1.0),
              "period-3": dc.ModelSpec.periodic([1.0, -1.0, -1.0])}


def _coin(base, p, seed):
    if base.model == "constant":
        return dc.ModelSpec.bernoulli(p, seed)
    return dc.ModelSpec.bernoullised(base, p, seed)


def _within_bound(samples, expected) -> bool:
    samples = np.asarray(samples)
    se = samples.std(axis=0, ddof=1) / math.sqrt(len(samples))
    return bool(np.all(np.abs(samples.mean(axis=0) - expected) <= COIN_MEAN_Z * se))


def _check_coin_mean(samples, base_values, p, diffuse_scale):
    """The means match (2p - 1)**2 base + 4p(1 - p) diffuse_scale at p, and not
    at a wrong p or for the unflipped base."""
    def expected(q):
        return (2 * q - 1) ** 2 * base_values + 4 * q * (1 - q) * diffuse_scale

    assert _within_bound(samples, expected(p))
    for wrong in (p - 0.02, p + 0.02, 1.0):
        assert not _within_bound(samples, expected(wrong))


@pytest.mark.parametrize("p", (0.25, 0.6, 0.9))
@pytest.mark.parametrize("base", COIN_BASES.values(), ids=list(COIN_BASES))
def test_coin_family_binned_periodogram_mean_is_exact(base, p):
    N, G, bins = 2**13, 2**12, 64
    masses = [dc.binned_measure(dc.periodogram(_coin(base, p, seed), N, G), bins).masses
              for seed in COIN_SEEDS]
    base_masses = dc.binned_measure(dc.periodogram(base, N, G), bins).masses
    _check_coin_mean(masses, base_masses, p, 1 / bins)


@pytest.mark.parametrize("p", (0.25, 0.6, 0.9))
@pytest.mark.parametrize("base", COIN_BASES.values(), ids=list(COIN_BASES))
def test_coin_family_autocorrelation_mean_is_exact(base, p):
    N, M = 2**13, 16
    eta = [dc.empirical_autocorrelation(_coin(base, p, seed), N, M).eta[M + 1 :]
           for seed in COIN_SEEDS]
    base_eta = dc.empirical_autocorrelation(base, N, M).eta[M + 1 :]
    _check_coin_mean(eta, base_eta, p, 0.0)


def test_5_entropy_brackets():
    with _criterion(5, "entropy values and block-entropy brackets"):
        assert dc.bernoulli_entropy(0.0) == 0.0
        assert dc.bernoulli_entropy(1.0) == 0.0
        assert dc.bernoulli_entropy(0.5) == math.log(2.0)
        patch_rate = math.log(dc.patch_complexity(RS, 2**14, 8).count(8)) / 8.0
        for p in (0.0, 0.25, 0.5):
            spec = dc.ModelSpec.bernoullised(RS, p, 1)
            rate = dc.block_entropy(spec, 2**18, 8)
            lower = dc.bernoulli_entropy(p) - ENTROPY_EPS
            upper = dc.bernoulli_entropy(p) + patch_rate + ENTROPY_EPS
            assert lower <= rate <= upper


def test_6_closed_form_peaks():
    with _criterion(6, "closed-form point masses"):
        alt = dc.bragg_weight(ALT, "1/2", [2**10, 2**12])
        assert abs(alt.limit - 1.0) <= 1e-3
        assert alt.growth == "pure-point"
        const = dc.bragg_weight(dc.ModelSpec.constant(1.5), 0, [2**10, 2**12])
        assert abs(const.limit - 2.25) <= 1e-9
        assert const.growth == "pure-point"


def test_7_brute_force_equivalences():
    with _criterion(7, "estimators match literal definitions"):
        for spec in (RS, ALT, dc.ModelSpec.bernoulli(0.3, 5)):
            got = dc.empirical_autocorrelation(spec, 64, 8)
            assert np.array_equal(got.eta, naive_autocorrelation(spec, 64, 8))
        real = dc.ModelSpec.periodic((0.5, 2.0, -1.0))
        np.testing.assert_allclose(
            dc.empirical_autocorrelation(real, 64, 8).eta,
            naive_autocorrelation(real, 64, 8),
            rtol=1e-12,
        )
        for spec in (RS, real, dc.ModelSpec.bernoulli(0.7, 3)):
            pg = dc.periodogram(spec, 48, 40)
            win = dc.generate_window(spec, -48, 48)
            np.testing.assert_allclose(
                pg.intensities, direct_periodogram(win, 40), rtol=1e-9, atol=1e-9
            )
        prod = dc.product_autocorrelation(
            dc.empirical_autocorrelation(RS, 24, 5),
            dc.empirical_autocorrelation(ALT, 24, 5),
        )
        np.testing.assert_allclose(
            prod.eta,
            direct_product_autocorrelation(RS, ALT, 24, 5),
            rtol=1e-12,
            atol=1e-12,
        )


def test_8_structural_properties(tmp_path):
    with _criterion(8, "structural invariants and reproducibility"):
        for spec in catalogue(seed=5):
            ac = dc.empirical_autocorrelation(spec, 256, 32)
            assert np.array_equal(ac.eta, ac.eta[::-1])
            if spec.is_binary:
                assert ac.value(0) == 1.0
            assert np.all(np.abs(ac.eta) <= ac.value(0) + 1e-12)

            measure = dc.analytic_diffraction(spec)
            eta0 = dc.analytic_autocorrelation(spec, 0).value(0)
            assert abs(measure.total() - eta0) <= 1e-12 * max(1.0, eta0)

            full = dc.generate_window(spec, -300, 300)
            part = dc.generate_window(spec, -41, 77)
            assert np.array_equal(full.weights[-41 - full.first : 77 - full.first + 1], part.weights)

        model = '{"model": "bernoullised", "base": {"model": "rudin_shapiro"}, "p": 0.25, "seed": 3}'
        first, second = tmp_path / "one.csv", tmp_path / "two.csv"
        for out in (first, second):
            code = cli_main(
                ["autocorr", "--model", model, "--N", "2048", "--M", "16", "--out", str(out)]
            )
            assert code == 0
        assert first.read_bytes() == second.read_bytes()
