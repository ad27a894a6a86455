"""Autocorrelation estimators, closed forms, and the exact recursion check."""

import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import diffcomb as dc
import diffcomb.correlation
from diffcomb import combs
from diffcomb.correlation import _pm1_lag_sums
from test_combs import ALT, BINARY_BLOCK_MODELS, RS, catalogue


def naive_autocorrelation(spec, N, M):
    """Literal double-loop estimator over the extended window, mirrored to
    negative lags exactly like the production contract."""
    win = dc.generate_window(spec, -N - M, N + M)
    w = dict(zip(win.indices().tolist(), win.weights.tolist()))  # w[n] is the weight at n
    size = 2 * N + 1
    eta = []
    for m in range(M + 1):
        s = 0.0
        for n in range(-N, N + 1):
            s += w[n] * w[n + m]
        eta.append(s / size)
    return np.concatenate([eta[:0:-1], eta])


def dot_autocorrelation(spec, N, M):
    """One float dot product per lag over the extended window, mirrored."""
    w = dc.generate_window(spec, -N - M, N + M).weights
    size = 2 * N + 1
    core = w[M : M + size]
    eta = np.empty(2 * M + 1)
    for m in range(M + 1):
        eta[M + m] = eta[M - m] = float(core @ w[M + m : M + m + size]) / size
    return eta


def fraction_recursion_check(max_index, claimed_a, claimed_b):
    """The recursion check as a scalar loop in Fraction arithmetic, over any
    claimed pair given as functions of the lag; returns the report's JSON."""
    quarter = Fraction(1, 4)
    half = Fraction(1, 2)
    violations = []
    checked = 0
    for t in range(-max_index, max_index + 1):
        l = t % 4
        m = (t - l) // 4
        s = 1 if m % 2 == 0 else -1
        a_m, a_m1 = Fraction(claimed_a(m)), Fraction(claimed_a(m + 1))
        b_m, b_m1 = Fraction(claimed_b(m)), Fraction(claimed_b(m + 1))
        if l == 0:
            a_rhs = Fraction(1 + s, 2) * a_m
            b_rhs = Fraction(0)
        elif l == 1:
            a_rhs = Fraction(1 - s, 4) * a_m + Fraction(s, 4) * b_m - quarter * b_m1
            b_rhs = Fraction(1 - s, 4) * a_m - Fraction(s, 4) * b_m + quarter * b_m1
        elif l == 2:
            a_rhs = Fraction(0)
            b_rhs = Fraction(s, 2) * b_m + half * b_m1
        else:
            a_rhs = Fraction(1 + s, 4) * a_m1 - Fraction(s, 4) * b_m + quarter * b_m1
            b_rhs = -Fraction(1 + s, 4) * a_m1 - Fraction(s, 4) * b_m + quarter * b_m1
        for system, lhs, rhs in (
            ("a", Fraction(claimed_a(t)), a_rhs),
            ("b", Fraction(claimed_b(t)), b_rhs),
        ):
            checked += 1
            if lhs != rhs:
                violations.append(
                    {"system": system, "t": t, "claimed": str(lhs), "recursion": str(rhs)}
                )
    return {"max_index": max_index, "checked": checked, "violations": violations}


def rs_claimed_a(t):
    return 1 if t == 0 else 0


def rs_claimed_b(t):
    return 0


class TestEmpiricalAutocorrelation:
    def test_matches_naive_oracle_exactly_on_binary_models(self):
        specs = [RS, ALT, dc.ModelSpec.bernoulli(0.3, 5), dc.ModelSpec.bernoullised(RS, 0.6, 5)]
        for spec in specs:
            for N in (16, 31, 64):
                got = dc.empirical_autocorrelation(spec, N, 8)
                assert np.array_equal(got.eta, naive_autocorrelation(spec, N, 8))

    @pytest.mark.parametrize(
        "spec",
        [
            dc.ModelSpec.constant(-1.0),
            dc.ModelSpec.periodic((1.0, -1.0, -1.0, 1.0, -1.0)),
            dc.ModelSpec.bernoullised(RS, 0.25, 3),
            dc.ModelSpec.constant(0.5),
            dc.ModelSpec.periodic((0.5, 2.0, -1.0, 1.0)),
        ],
    )
    def test_matches_dot_product_oracle_bitwise(self, spec):
        # +-1 models take the integer kernel, the others the dot products;
        # both give the float dot-product coefficients bit for bit
        for N, M in ((31, 0), (32, 64), (100, 130), (2**12, 200)):
            got = dc.empirical_autocorrelation(spec, N, M)
            assert np.array_equal(got.eta, dot_autocorrelation(spec, N, M))

    @pytest.mark.parametrize("chunk,draw", [(combs._CHUNK, combs._DRAW), (7, 3), (16, 5)])
    @pytest.mark.parametrize("spec", BINARY_BLOCK_MODELS, ids=lambda spec: spec.model)
    def test_streamed_bits_match_dot_products(self, monkeypatch, spec, chunk, draw):
        # sites [-N, N + M] of every length mod 8 and mod 64, across block seams
        expected = {(N, M): dot_autocorrelation(spec, N, M)
                    for N, M in ((1, 0), (3, 2), (20, 7), (31, 1), (40, 60), (70, 64))}
        monkeypatch.setattr(combs, "_CHUNK", chunk)
        monkeypatch.setattr(combs, "_DRAW", draw)
        for (N, M), eta in expected.items():
            assert np.array_equal(dc.empirical_autocorrelation(spec, N, M).eta, eta), (N, M)

    def test_other_models_generate_only_the_sites_they_read(self, monkeypatch):
        # the lags m >= 0 read [-N, N + M]; the cap is still checked on [-N - M, N + M]
        ranges = []

        def recording(spec, first, last):
            ranges.append((first, last))
            return combs.generate_window(spec, first, last)

        monkeypatch.setattr(diffcomb.correlation, "generate_window", recording)
        dc.empirical_autocorrelation(dc.ModelSpec.periodic((0.5, 2.0, -1.0)), 100, 30)
        assert ranges == [(-100, 130)]

    def test_peak_memory_of_a_binary_estimate(self):
        """A +-1 estimate holds one sign bit per site and one block of floats, never
        a float window: its peak read 0.17 of the float window's bytes (1.22 with it)."""
        N = 2**20
        tracemalloc.start()
        try:
            dc.empirical_autocorrelation(dc.ModelSpec.bernoullised(RS, 0.25, 3), N, 512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.35 * 8 * (2 * N + 1)

    def test_matches_naive_oracle_on_real_weights(self):
        spec = dc.ModelSpec.periodic((0.5, 2.0, -1.0))
        got = dc.empirical_autocorrelation(spec, 40, 10)
        np.testing.assert_allclose(got.eta, naive_autocorrelation(spec, 40, 10), rtol=1e-12)

    def test_symmetry_and_zero_lag(self):
        for spec in catalogue(seed=2):
            ac = dc.empirical_autocorrelation(spec, 128, 16)
            assert np.array_equal(ac.eta, ac.eta[::-1])
            if spec.is_binary:
                assert ac.value(0) == 1.0
            assert np.all(np.abs(ac.eta) <= ac.value(0) + 1e-12)

    def test_constant_comb(self):
        ac = dc.empirical_autocorrelation(dc.ModelSpec.constant(2.0), 32, 8)
        assert np.array_equal(ac.eta, np.full(17, 4.0))

    def test_alternating_comb(self):
        ac = dc.empirical_autocorrelation(ALT, 32, 8)
        assert np.array_equal(ac.eta, [(-1.0) ** m for m in range(-8, 9)])

    def test_rudin_shapiro_off_lag_decay(self):
        # calibrated: sup off-lag magnitude at N = 2**14 is below 1e-3
        ac = dc.empirical_autocorrelation(RS, 2**14, 64)
        off = np.delete(ac.eta, 64)
        assert np.max(np.abs(off)) <= 0.005

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            dc.empirical_autocorrelation(RS, 0, 4)
        with pytest.raises(ValueError):
            dc.empirical_autocorrelation(RS, 8, -1)

    def test_window_cap_applies_to_extended_window(self, monkeypatch):
        monkeypatch.setenv(dc.MAX_WINDOW_ENV, "2049")
        dc.empirical_autocorrelation(RS, 1000, 24)
        with pytest.raises(dc.ResourceLimitError):
            dc.empirical_autocorrelation(RS, 1000, 25)

    @pytest.mark.parametrize("N,M", [(2**61, 2**61), (1, 2**62 - 1), (2**62, 0)])
    @pytest.mark.parametrize("spec", [RS, dc.ModelSpec.constant(0.5)], ids=lambda spec: spec.model)
    def test_lattice_domain_applies_to_extended_window(self, monkeypatch, spec, N, M):
        # refused on [-N-M, N+M] before any site is generated, on either path
        def generated(*args):
            raise AssertionError("a site was generated")

        monkeypatch.setattr(combs, "_fill_block", generated)
        monkeypatch.setattr(combs, "_negatives", generated)
        with pytest.raises(ValueError) as refused:
            dc.empirical_autocorrelation(spec, N, M)
        assert type(refused.value) is ValueError
        assert str(refused.value) == (
            f"window [{-N - M}, {N + M}] leaves the lattice domain |n| < 2**62")

    def test_strong_law_ensemble_deviation(self):
        # mean over K seeds deviates from (2p-1)**2 by at most 8/sqrt(K(2N+1))
        K, N, M = 100, 2**10, 8
        for p in (0.5, 0.75):
            acc = np.zeros(2 * M + 1)
            for seed in range(1, K + 1):
                acc += dc.empirical_autocorrelation(dc.ModelSpec.bernoulli(p, seed), N, M).eta
            acc /= K
            expected = np.full(2 * M + 1, (2 * p - 1) ** 2)
            expected[M] = 1.0
            bound = 8.0 / np.sqrt(K * (2 * N + 1))
            assert np.max(np.abs(acc - expected)) <= bound


class TestLagSumKernel:
    @settings(max_examples=60, deadline=None)
    @given(
        words=st.integers(1, 4),
        edge=st.sampled_from([-1, 0, 1]),
        M=st.integers(0, 200),
        negative=st.sampled_from([0.0, 0.5, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(words=1, edge=0, M=64, negative=1.0, seed=0)  # r = 0 one word on, tail all set
    @example(words=2, edge=-1, M=129, negative=0.5, seed=1)  # every bit offset, 3 word offsets
    @example(words=1, edge=-1, M=0, negative=1.0, seed=2)  # lag 0 only
    def test_matches_literal_double_sums(self, words, edge, M, negative, seed):
        # cores of 64k - 1, 64k and 64k + 1 sites; the signs past the core
        # fill the tail word, which the kernel must mask
        size = 64 * words + edge
        rng = np.random.default_rng(seed)
        x = np.where(rng.random(size + M) < negative, -1.0, 1.0)
        signs = x.astype(int).tolist()
        expected = [sum(signs[i] * signs[i + m] for i in range(size)) for m in range(M + 1)]
        got = _pm1_lag_sums(np.packbits(x < 0, bitorder="little"), size, M)
        assert got.dtype == np.int64 and got.tolist() == expected


class TestAnalyticAutocorrelation:
    def test_constant(self):
        ac = dc.analytic_autocorrelation(dc.ModelSpec.constant(-2.5), 5)
        assert np.array_equal(ac.eta, np.full(11, 6.25))

    def test_alternating_and_two_periodic_agree(self):
        alt = dc.analytic_autocorrelation(ALT, 6)
        per = dc.analytic_autocorrelation(dc.ModelSpec.periodic((1.0, -1.0)), 6)
        assert np.array_equal(alt.eta, per.eta)
        assert alt.value(3) == -1.0

    def test_periodic_cyclic_means(self):
        long_pattern = tuple(np.random.default_rng(11).choice([-1.0, 1.0], size=997))
        for pattern, M in (((0.5, 2.0, -1.0), 7), (long_pattern, 5)):
            ac = dc.analytic_autocorrelation(dc.ModelSpec.periodic(pattern), M)
            c = np.array(pattern)
            for m in range(-M, M + 1):
                assert ac.value(m) == float(c @ np.roll(c, -(m % c.size))) / c.size

    @pytest.mark.parametrize("q,M", [(1, 0), (1, 5), (2, 3), (3, 199), (64, 70), (65, 31),
                                     (997, 150), (16000, 64), (16001, 199)])
    def test_periodic_cyclic_means_match_rolled_copies_bitwise(self, q, M):
        # non-integer entries, so the sums round; every lag against c @ np.roll(c, -m)
        c = np.random.default_rng(q + M).normal(size=q)
        ac = dc.analytic_autocorrelation(dc.ModelSpec.periodic(c), M)
        rolled = [float(c @ np.roll(c, -m)) / q for m in range(-M, M + 1)]
        assert ac.eta.tolist() == rolled

    def test_window_cap_applies_to_lag_range(self, monkeypatch):
        monkeypatch.setenv(dc.MAX_WINDOW_ENV, "101")
        for M in (51, 10**10):
            with pytest.raises(dc.ResourceLimitError):
                dc.analytic_autocorrelation(RS, M)
        assert dc.analytic_autocorrelation(RS, 50).eta.size == 101

    def test_rudin_shapiro_is_delta(self):
        ac = dc.analytic_autocorrelation(RS, 10)
        expected = np.zeros(21)
        expected[10] = 1.0
        assert np.array_equal(ac.eta, expected)

    def test_bernoulli_family(self):
        for p in (0.0, 0.25, 0.5, 1.0):
            ac = dc.analytic_autocorrelation(dc.ModelSpec.bernoulli(p, 1), 4)
            assert ac.value(0) == 1.0
            assert np.all(ac.eta[[0, 1, 2, 3, 5, 6, 7, 8]] == (2 * p - 1) ** 2)

    def test_bernoullised_damps_base(self):
        base = dc.ModelSpec.periodic((1.0, -1.0, 1.0, 1.0))
        spec = dc.ModelSpec.bernoullised(base, 0.25, 1)
        ac = dc.analytic_autocorrelation(spec, 6)
        ref = dc.analytic_autocorrelation(base, 6)
        for m in range(-6, 7):
            expected = 1.0 if m == 0 else 0.25 * ref.value(m)
            assert ac.value(m) == pytest.approx(expected, rel=1e-15)

    def test_stochastic_analytic_ignores_seed(self):
        a = dc.analytic_autocorrelation(dc.ModelSpec.bernoulli(0.3, 1), 5)
        b = dc.analytic_autocorrelation(dc.ModelSpec.bernoulli(0.3, 999), 5)
        assert np.array_equal(a.eta, b.eta)


class TestRecursionVerification:
    def test_no_violations_up_to_1024(self):
        report = dc.verify_rs_recursions(1024)
        assert report.passed
        assert report.max_index == 1024
        assert report.checked == 2 * (2 * 1024 + 1)
        assert report.violations == []

    def test_report_schema(self):
        data = dc.verify_rs_recursions(8).to_json()
        assert set(data) == {"max_index", "checked", "violations"}
        assert data["violations"] == []

    def test_small_ranges(self):
        for M in (1, 2, 3):
            assert dc.verify_rs_recursions(M).passed

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            dc.verify_rs_recursions(0)

    def test_window_cap_applies_to_lag_range(self, monkeypatch):
        monkeypatch.setenv(dc.MAX_WINDOW_ENV, "101")
        with pytest.raises(dc.ResourceLimitError):
            dc.verify_rs_recursions(51)
        assert dc.verify_rs_recursions(50).passed

    @pytest.mark.parametrize("max_index", [1, 2, 3, 8, 1024, 4097])
    def test_matches_fraction_oracle(self, max_index):
        expected = fraction_recursion_check(max_index, rs_claimed_a, rs_claimed_b)
        assert json.dumps(dc.verify_rs_recursions(max_index).to_json()) == json.dumps(expected)

    @pytest.mark.parametrize("max_index", [5, 8, 37])
    @pytest.mark.parametrize("pair", ["shifted", "random"])
    def test_wrong_pair_violations_match_fraction_oracle(self, monkeypatch, max_index, pair):
        # "shifted": a = 1 at lags 0 and 5, b = 1 at lag 3; "random": small
        # integers at every lag, so every term of every branch is exercised
        lags = np.arange(-max_index, max_index + 1)
        if pair == "shifted":
            a = np.isin(lags, (0, 5)).astype(np.int64)
            b = (lags == 3).astype(np.int64)
        else:
            rng = np.random.default_rng(max_index)
            a, b = rng.integers(-3, 4, size=(2, lags.size))
        monkeypatch.setattr(diffcomb.correlation, "_claimed_pair", lambda n: (a, b))
        report = dc.verify_rs_recursions(max_index)
        expected = fraction_recursion_check(
            max_index, lambda t: int(a[t + max_index]), lambda t: int(b[t + max_index])
        )
        assert not report.passed
        # as text, so key order and the Python types of the values count too
        assert json.dumps(report.to_json()) == json.dumps(expected)


class TestCompareAutocorrelations:
    def test_identical_inputs_pass_at_zero_tolerance(self):
        ac = dc.analytic_autocorrelation(RS, 8)
        cmp = dc.compare_autocorrelations(ac, ac, 0.0)
        assert cmp.passed and cmp.distance == 0.0

    def test_rs_and_fair_coin_share_analytic_autocorrelation(self):
        a = dc.analytic_autocorrelation(RS, 16)
        b = dc.analytic_autocorrelation(dc.ModelSpec.bernoulli(0.5, 1), 16)
        cmp = dc.compare_autocorrelations(a, b, 0.0)
        assert cmp.passed and cmp.distance == 0.0

    def test_bernoullised_rs_close_to_delta(self):
        emp = dc.empirical_autocorrelation(dc.ModelSpec.bernoullised(RS, 0.25, 1), 2**14, 64)
        ref = dc.analytic_autocorrelation(RS, 64)
        cmp = dc.compare_autocorrelations(emp, ref, 0.05)
        assert cmp.passed

    def test_alternating_vs_rs_fails(self):
        a = dc.analytic_autocorrelation(ALT, 8)
        b = dc.analytic_autocorrelation(RS, 8)
        cmp = dc.compare_autocorrelations(a, b, 0.5)
        assert not cmp.passed and cmp.distance == 1.0

    def test_mismatched_lags_rejected(self):
        with pytest.raises(ValueError):
            dc.compare_autocorrelations(
                dc.analytic_autocorrelation(RS, 4), dc.analytic_autocorrelation(RS, 5), 0.1
            )

    def test_negative_tolerance_rejected(self):
        ac = dc.analytic_autocorrelation(RS, 4)
        with pytest.raises(ValueError):
            dc.compare_autocorrelations(ac, ac, -0.1)


class TestAutocorrelationContainer:
    def test_lag_out_of_range(self):
        ac = dc.analytic_autocorrelation(RS, 4)
        with pytest.raises(ValueError):
            ac.value(5)

    def test_csv_export(self, tmp_path):
        ac = dc.analytic_autocorrelation(ALT, 1)
        path = tmp_path / "eta.csv"
        ac.to_csv(path)
        assert path.read_text() == "m,eta\n-1,-1\n0,1\n1,-1\n"
