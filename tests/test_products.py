"""Separable product combs: factorised correlation and diffraction."""

import numpy as np
import pytest

import diffcomb as dc
from test_combs import ALT, RS


def direct_product_autocorrelation(spec_a, spec_b, N, M):
    """Genuine two-dimensional correlation sums over the dense rectangle."""
    wa = dc.generate_window(spec_a, -N - M, N + M).weights
    wb = dc.generate_window(spec_b, -N - M, N + M).weights
    dense = np.outer(wa, wb)
    size = 2 * N + 1
    eta = np.empty((2 * M + 1, 2 * M + 1))
    core = dense[M : M + size, M : M + size]
    for m1 in range(-M, M + 1):
        for m2 in range(-M, M + 1):
            i, j = M + abs(m1), M + abs(m2)
            shifted = dense[i : i + size, j : j + size]
            eta[m1 + M, m2 + M] = np.sum(core * shifted) / size**2
    return eta


class TestProductAutocorrelation:
    def test_matches_two_dimensional_oracle(self):
        pairs = [
            (RS, ALT),
            (RS, dc.ModelSpec.bernoulli(0.3, 6)),
            (dc.ModelSpec.periodic((0.5, 2.0, -1.0)), ALT),
        ]
        for spec_a, spec_b in pairs:
            a = dc.empirical_autocorrelation(spec_a, 24, 5)
            b = dc.empirical_autocorrelation(spec_b, 24, 5)
            got = dc.product_autocorrelation(a, b)
            expected = direct_product_autocorrelation(spec_a, spec_b, 24, 5)
            np.testing.assert_allclose(got.eta, expected, rtol=1e-12, atol=1e-12)

    def test_rs_times_alternating_spot_value(self):
        a = dc.empirical_autocorrelation(RS, 256, 8)
        b = dc.empirical_autocorrelation(ALT, 256, 8)
        prod = dc.product_autocorrelation(a, b)
        assert prod.value(3, 5) == a.value(3) * (-1.0)
        assert prod.value(0, 0) == 1.0

    def test_quadrant_symmetry(self):
        a = dc.empirical_autocorrelation(RS, 64, 6)
        b = dc.empirical_autocorrelation(dc.ModelSpec.bernoulli(0.4, 2), 64, 6)
        prod = dc.product_autocorrelation(a, b)
        for m1 in range(7):
            for m2 in range(7):
                v = prod.value(m1, m2)
                assert prod.value(-m1, m2) == v
                assert prod.value(m1, -m2) == v
                assert prod.value(-m1, -m2) == v

    def test_analytic_delta_times_delta(self):
        a = dc.analytic_autocorrelation(RS, 3)
        prod = dc.product_autocorrelation(a, a)
        expected = np.zeros((7, 7))
        expected[3, 3] = 1.0
        assert np.array_equal(prod.eta, expected)

    def test_alternating_squared(self):
        a = dc.analytic_autocorrelation(ALT, 3)
        prod = dc.product_autocorrelation(a, a)
        for m1 in range(-3, 4):
            for m2 in range(-3, 4):
                assert prod.value(m1, m2) == (-1.0) ** (m1 + m2)

    def test_lag_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dc.product_autocorrelation(
                dc.analytic_autocorrelation(RS, 3), dc.analytic_autocorrelation(ALT, 4)
            )

    def test_window_cap_applies_to_lag_square(self, monkeypatch):
        # the factors fit under the cap, their (2M+1)**2 grid does not
        monkeypatch.setenv(dc.MAX_WINDOW_ENV, "100")
        factors = dc.analytic_autocorrelation(RS, 5), dc.analytic_autocorrelation(ALT, 5)
        with pytest.raises(dc.ResourceLimitError):
            dc.product_autocorrelation(*factors)
        smaller = dc.analytic_autocorrelation(RS, 4), dc.analytic_autocorrelation(ALT, 4)
        assert dc.product_autocorrelation(*smaller).eta.shape == (9, 9)

    def test_lag_lookup_bounds(self):
        prod = dc.product_autocorrelation(
            dc.analytic_autocorrelation(RS, 2), dc.analytic_autocorrelation(ALT, 2)
        )
        with pytest.raises(ValueError):
            prod.value(3, 0)

    def test_csv_export(self, tmp_path):
        prod = dc.product_autocorrelation(
            dc.analytic_autocorrelation(ALT, 1), dc.analytic_autocorrelation(ALT, 1)
        )
        path = tmp_path / "eta2.csv"
        prod.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "m1,m2,eta"
        assert lines[1] == "-1,-1,1"
        assert len(lines) == 10


class TestProductDiffraction:
    def test_point_times_point(self):
        one = dc.analytic_diffraction(dc.ModelSpec.constant(1.0))
        prod = dc.product_diffraction(one, one)
        assert prod.point_masses == (((0.0, 0.0), 1.0),)
        assert prod.lines_fixed_k1 == () and prod.lines_fixed_k2 == ()
        assert prod.plane_level == 0.0

    def test_diffuse_times_diffuse(self):
        rs = dc.analytic_diffraction(RS)
        prod = dc.product_diffraction(rs, rs)
        assert prod.point_masses == ()
        assert prod.lines_fixed_k1 == () and prod.lines_fixed_k2 == ()
        assert prod.plane_level == 1.0

    def test_mixed_factors_make_lines(self):
        coin = dc.analytic_diffraction(dc.ModelSpec.bernoulli(0.75, 1))
        flat = dc.analytic_diffraction(dc.ModelSpec.constant(1.0))
        prod = dc.product_diffraction(coin, flat)
        assert prod.point_masses == (((0.0, 0.0), 0.25),)
        assert prod.lines_fixed_k1 == ()
        assert prod.lines_fixed_k2 == ((0.0, 0.75),)
        assert prod.plane_level == 0.0

    def test_line_orientation_swaps_with_factors(self):
        coin = dc.analytic_diffraction(dc.ModelSpec.bernoulli(0.75, 1))
        flat = dc.analytic_diffraction(dc.ModelSpec.constant(1.0))
        prod = dc.product_diffraction(flat, coin)
        assert prod.lines_fixed_k1 == ((0.0, 0.75),)
        assert prod.lines_fixed_k2 == ()

    def test_total_is_product_of_totals(self):
        specs = [
            dc.ModelSpec.constant(2.0),
            ALT,
            RS,
            dc.ModelSpec.bernoulli(0.75, 1),
            dc.ModelSpec.bernoullised(ALT, 0.25, 1),
            dc.ModelSpec.periodic((0.5, 2.0, -1.0)),
        ]
        for spec_a in specs:
            for spec_b in specs:
                a = dc.analytic_diffraction(spec_a)
                b = dc.analytic_diffraction(spec_b)
                prod = dc.product_diffraction(a, b)
                assert prod.total() == pytest.approx(a.total() * b.total(), rel=1e-12)

    def test_json_shape(self):
        coin = dc.analytic_diffraction(dc.ModelSpec.bernoulli(0.75, 1))
        alt = dc.analytic_diffraction(ALT)
        data = dc.product_diffraction(coin, alt).to_json()
        assert data["point_masses"] == [[[0.0, 0.5], 0.25]]
        assert data["lines_fixed_k2"] == [[0.5, 0.75]]
        assert data["plane_level"] == 0.0
        assert data["sc"] == "none-modelled"
