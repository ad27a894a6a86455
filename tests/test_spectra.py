"""Periodograms, point-mass estimates, binned measures, and closed forms."""

import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import diffcomb as dc
from test_combs import ALT, RS, catalogue


def direct_periodogram(window, grid_size):
    """Literal |sum w(n) exp(-2 pi i k n)|^2 / |window| on the regular grid."""
    n = window.indices()
    out = np.empty(grid_size)
    for j in range(grid_size):
        amp = np.sum(window.weights * np.exp(-2j * np.pi * (j / grid_size) * n))
        out[j] = abs(amp) ** 2 / len(window)
    return out


COIN_RS = dc.ModelSpec.bernoullised(RS, 0.25, 1)
PM1_CYCLES = st.lists(st.sampled_from([1.0, -1.0]), min_size=1, max_size=7).map(dc.ModelSpec.periodic)
PROBABILITIES = st.sampled_from([0.0, 0.25, 0.5, 0.9, 1.0])


def traced_peak(call):
    """The tracemalloc peak of call(), in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPeriodogram:
    def test_matches_direct_sum(self):
        for spec in catalogue(seed=4):
            for N, G in ((17, 32), (64, 50), (100, 64)):
                pg = dc.periodogram(spec, N, G)
                win = dc.generate_window(spec, -N, N)
                np.testing.assert_allclose(
                    pg.intensities, direct_periodogram(win, G), rtol=1e-9, atol=1e-9
                )

    def test_constant_zero_wavenumber(self):
        pg = dc.periodogram(dc.ModelSpec.constant(1.0), 8, 17)
        assert pg.intensities[0] == pytest.approx(17.0, rel=1e-12)

    def test_alternating_peak_and_origin(self):
        pg = dc.periodogram(ALT, 8, 2)
        # the 17-entry alternating window sums to 1, so the origin carries 1/17
        assert pg.intensities[0] == pytest.approx(1.0 / 17.0, rel=1e-12)
        assert pg.intensities[1] == pytest.approx(17.0, rel=1e-12)

    def test_nonnegative(self):
        for spec in catalogue(seed=5):
            pg = dc.periodogram(spec, 64, 128)
            assert np.all(pg.intensities >= 0.0)

    def test_grid_mean_equals_zero_lag(self):
        for spec in catalogue(seed=6):
            N = 32
            pg = dc.periodogram(spec, N, 4 * N + 4)
            eta0 = dc.empirical_autocorrelation(spec, N, 0).value(0)
            assert abs(pg.grid_mean() - eta0) <= 1e-12 * (2 * N + 1)

    def test_matches_windowed_fourier_series(self):
        # Fourier series of the edge-overlap autocovariance reproduces the
        # periodogram; np.correlate supplies the overlap sums independently.
        for spec in (RS, dc.ModelSpec.bernoulli(0.3, 7), dc.ModelSpec.periodic((0.5, 2.0, -1.0))):
            N, G = 64, 96
            w = dc.generate_window(spec, -N, N).weights
            cov = np.correlate(w, w, mode="full") / (2 * N + 1)
            m = np.arange(-2 * N, 2 * N + 1)
            k = np.arange(G)[:, None] / G
            series = (cov * np.exp(-2j * np.pi * k * m)).sum(axis=1).real
            pg = dc.periodogram(spec, N, G)
            np.testing.assert_allclose(pg.intensities, series, rtol=1e-9, atol=1e-9)

    def test_reproducible_for_stochastic_spec(self):
        spec = dc.ModelSpec.bernoulli(0.5, 11)
        a = dc.periodogram(spec, 256, 512)
        b = dc.periodogram(spec, 256, 512)
        assert np.array_equal(a.intensities, b.intensities)

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            dc.periodogram(RS, 8, 0)

    def test_peak_memory_of_a_coin(self):
        """A coin's window is its base's, negated in place where the coin flips: at
        N = 2**18 and G = 2**19 a bernoullised periodogram peaks at 5.0 window sizes
        of 2N + 1 float64.  The generated window held through the FFT read 7.0, and a
        copy of the base negated per stream 8.0."""
        spec = dc.ModelSpec.bernoullised(RS, 0.25, 1)
        peak = traced_peak(lambda: dc.periodogram(spec, 2**18, 2**19))
        assert peak / ((2**19 + 1) * 8) < 7.5

    def test_csv_header(self, tmp_path):
        path = tmp_path / "pg.csv"
        dc.periodogram(ALT, 2, 2).to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,intensity"
        assert lines[1].startswith("0,")


class TestWavenumberParsing:
    def test_accepted_forms(self):
        assert dc.as_wavenumber(0) == 0.0
        assert dc.as_wavenumber(0.25) == 0.25
        assert dc.as_wavenumber("1/2") == 0.5
        assert dc.as_wavenumber("3/8") == 0.375

    def test_rejected_forms(self):
        for bad in (1.0, -0.1, "2/2", "abc", "1/0"):
            with pytest.raises(ValueError):
                dc.as_wavenumber(bad)


class TestBraggWeight:
    def test_constant_comb(self):
        est = dc.bragg_weight(dc.ModelSpec.constant(2.0), 0, [64, 256])
        assert est.growth == "pure-point"
        for _, weight in est.entries:
            assert weight == pytest.approx(4.0, rel=1e-12)
        assert est.limit == pytest.approx(4.0, rel=1e-12)

    def test_alternating_peak(self):
        est = dc.bragg_weight(ALT, "1/2", [64, 256, 1024])
        assert est.growth == "pure-point"
        assert est.limit == pytest.approx(1.0, rel=1e-12)

    def test_rudin_shapiro_origin_vanishes(self):
        est = dc.bragg_weight(RS, 0, [2**8, 2**10, 2**12])
        assert est.growth == "continuous"
        assert est.entries[-1][1] <= 0.01

    def test_bernoulli_mean_square(self):
        # ensemble average over 20 streams approaches (2p-1)**2
        est = dc.bragg_weight(dc.ModelSpec.bernoulli(0.75, 1), 0, [2**10, 2**12], seeds=range(1, 21))
        assert est.seeds == tuple(range(1, 21))
        assert est.growth == "pure-point"
        assert abs(est.limit - 0.25) <= 0.03

    def test_fair_coin_is_continuous(self):
        est = dc.bragg_weight(dc.ModelSpec.bernoulli(0.5, 1), 0, [2**8, 2**10], seeds=range(1, 11))
        assert est.growth == "continuous"

    @pytest.mark.parametrize("k0", [0, "1/2", "1/3", math.sqrt(2) - 1])
    @pytest.mark.parametrize(
        "spec, seeds", [(RS, None), (dc.ModelSpec.bernoullised(RS, 0.25, 1), (4, 5, 6))]
    )
    def test_ensemble_matches_windows_regenerated_per_size(self, spec, seeds, k0):
        # one shared phase vector and centred sums give direct_intensity's bits
        sizes, k = [5, 64, 300], dc.as_wavenumber(k0)
        est = dc.bragg_weight(spec, k0, sizes, seeds)
        streams = [spec] if seeds is None else [replace(spec, seed=s) for s in seeds]
        expected = []
        for N in sizes:
            windows = [dc.generate_window(stream, -N, N) for stream in streams]
            intensity = float(np.mean([dc.direct_intensity(w, k) for w in windows]))
            expected.append((N, intensity / (2 * N + 1)))
        assert est.entries == expected

    @pytest.mark.parametrize("k0", ["1/2", "1/3"])
    def test_peak_memory_does_not_grow_with_the_seeds(self, k0):
        """The ensemble keeps one base (its terms, or at k0 = 1/2 its bool sign mask)
        and one seed's signs, whatever the seed count: a coin ensemble of 50 seeds at
        N = 2**16 peaks at 4.1 window sizes of 2N + 1 float64 at k0 = 1/3 and 1.3 at
        1/2.  With one generated window and phase product per seed it read 7.9 at
        k0 = 1/2 and 7.1 at 1/3."""
        spec = dc.ModelSpec.bernoullised(RS, 0.25, 1)
        peak = traced_peak(lambda: dc.bragg_weight(spec, k0, [2**12, 2**16], seeds=range(1, 51)))
        assert peak / ((2**17 + 1) * 8) < 8

    @pytest.mark.parametrize("k0", [0, "1/2"])
    def test_counted_peak_memory_is_below_three_windows(self, k0):
        """At k0 = 0 and 1/2 a +-1 ensemble holds the base's bool sign mask and one
        seed's flips, a byte a site each, and no complex terms: 50 seeds of a coin at
        N = 2**16 peak at 1.3-1.4 float64 windows of 2N + 1, where the phase-vector
        route read 4.1-4.4."""
        spec = dc.ModelSpec.bernoullised(RS, 0.25, 1)
        peak = traced_peak(lambda: dc.bragg_weight(spec, k0, [2**12, 2**16], seeds=range(1, 51)))
        assert peak / ((2**17 + 1) * 8) < 3

    @pytest.mark.parametrize("k0", [0, "1/2"])
    @pytest.mark.parametrize("spec, seeds", [(RS, None), (COIN_RS, (4, 5, 6))])
    def test_count_route_reads_each_site_once_per_stream(self, monkeypatch, spec, seeds, k0):
        # however many sizes, the counts read each stream's 2 N_max + 1 signs once
        read = []
        count_nonzero = np.count_nonzero

        def spy(values, *args, **kwargs):
            read.append(np.size(values))
            return count_nonzero(values, *args, **kwargs)

        monkeypatch.setattr(np, "count_nonzero", spy)
        streams = 1 if seeds is None else len(seeds)
        for sizes in ([2048, 4096], list(range(64, 4097, 64))):
            read.clear()
            dc.bragg_weight(spec, k0, sizes, seeds)
            assert sum(read) == streams * (2 * 4096 + 1), len(sizes)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        spec=st.one_of(
            st.sampled_from([RS, ALT, dc.ModelSpec.constant(1.0), dc.ModelSpec.constant(-1.0)]),
            PM1_CYCLES,
            st.builds(dc.ModelSpec.bernoulli, p=PROBABILITIES, seed=st.just(1)),
            st.builds(dc.ModelSpec.bernoullised, st.one_of(st.just(RS), PM1_CYCLES),
                      p=PROBABILITIES, seed=st.just(1)),
        ),
        seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=3),
        sizes=st.lists(st.integers(1, 200), min_size=1, max_size=5, unique=True).map(sorted),
        k0=st.sampled_from([0, "1/2", 0.5]),
    )
    @example(spec=RS, seeds=[1], sizes=[1, 2, 3], k0="1/2")
    @example(spec=COIN_RS, seeds=[7, 7, 2**64 - 1], sizes=[1, 64], k0=0)
    def test_pm1_weights_match_integer_sums(self, spec, seeds, sizes, k0):
        """Oracle in Python ints: the mean over seeds of (sum_{|n|<=N} w(n) (-1)**(2 k0 n))**2
        over (2N + 1)**2, from each seed's generated window; and the growth it implies."""
        if not spec.is_stochastic:
            seeds = None
        est = dc.bragg_weight(spec, k0, sizes, seeds)
        streams = [spec] if seeds is None else [replace(spec, seed=s) for s in seeds]
        half = dc.as_wavenumber(k0) == 0.5
        weights = []
        for N in sizes:
            squares = 0
            for stream in streams:
                window = dc.generate_window(stream, -N, N)
                signs = [-1 if half and n % 2 else 1 for n in range(-N, N + 1)]
                squares += sum(int(w) * s for w, s in zip(window.weights, signs)) ** 2
            weights.append(float(Fraction(squares, len(streams) * (2 * N + 1) ** 2)))
        assert [N for N, _ in est.entries] == sizes
        assert [w for _, w in est.entries] == pytest.approx(weights, rel=1e-13, abs=0)
        if len(sizes) == 1:
            assert (est.growth, est.growth_slope) == ("indeterminate", None)
        else:
            slope = float(np.polyfit(np.log([2 * N + 1 for N in sizes]), np.log(weights), 1)[0])
            assert est.growth_slope == pytest.approx(slope, rel=1e-9, abs=1e-12)
            assert est.growth == ("pure-point" if slope > -0.5 else "continuous")

    def test_oversized_window_refused_before_the_phase_vector(self):
        # an arange of 2**62 + 1 sites would fail with numpy's size error instead
        with pytest.raises(dc.ResourceLimitError, match="exceeds the cap"):
            dc.bragg_weight(RS, 0, [4, 2**61])

    def test_partly_zero_weights_are_indeterminate(self):
        # zero mean: the window [-1, 1] sums to exactly 0, [-2, 2] to -1; no log of 0 is fitted
        est = dc.bragg_weight(dc.ModelSpec.periodic([1.0, -1.0, 0.0]), 0, [1, 2])
        assert est.entries == [(1, 0.0), (2, pytest.approx(0.04, rel=1e-12))]
        assert est.growth == "indeterminate" and est.growth_slope is None

    def test_single_size_is_indeterminate(self):
        est = dc.bragg_weight(ALT, "1/2", [256])
        assert est.growth == "indeterminate" and est.growth_slope is None

    def test_sizes_must_increase(self):
        with pytest.raises(ValueError):
            dc.bragg_weight(ALT, 0, [256, 256])
        with pytest.raises(ValueError):
            dc.bragg_weight(ALT, 0, [])

    def test_direct_intensity_matches_grid(self):
        win = dc.generate_window(RS, -64, 64)
        pg = dc.periodogram(RS, 64, 32)
        for j in (0, 5, 17):
            assert dc.direct_intensity(win, j / 32) == pytest.approx(
                pg.intensities[j], rel=1e-9, abs=1e-9
            )


COIN = dc.ModelSpec.bernoulli(0.5, 1)


class TestEnsembleBudget:
    """Seeds x sites of an ensemble are bounded before the seeds are expanded."""

    def test_huge_seed_range_rejected_at_once(self):
        with pytest.raises(dc.ResourceLimitError, match="10000000000 seeds x 9 sites"):
            dc.bragg_weight(COIN, 0, [4], seeds=range(10**10))
        with pytest.raises(dc.ResourceLimitError, match="10000000000 seeds x 9 sites"):
            dc.ensemble_binned_masses(COIN, 4, 8, 4, seeds=range(10**10))

    def test_unsized_seeds_drawn_up_to_one_past_the_budget(self, monkeypatch):
        # a cap of 100 allows 6400 sites: 711 seeds of 9 sites
        monkeypatch.setenv(dc.MAX_WINDOW_ENV, "100")
        drawn = []

        def endless():
            while True:
                drawn.append(None)
                yield len(drawn)

        with pytest.raises(dc.ResourceLimitError, match="712 seeds x 9 sites"):
            dc.bragg_weight(COIN, 0, [4], seeds=endless())
        assert len(drawn) == 712
        masses = dc.ensemble_binned_masses(COIN, 4, 8, 4, seeds=iter(range(711)))
        assert masses.shape == (4,)

    @pytest.mark.parametrize("call, error, message", [
        # the seed budget, then the seed list, then the sizes, then the bins
        (lambda: dc.ensemble_binned_masses(COIN, 0, 0, 0, seeds=range(10**10)),
         dc.ResourceLimitError, "10000000000 seeds x 1 sites exceed the ensemble budget"),
        (lambda: dc.ensemble_binned_masses(COIN, 0, 0, 0, seeds=()),
         ValueError, "seed list must be nonempty for stochastic models"),
        (lambda: dc.ensemble_binned_masses(COIN, 0, 0, 0), ValueError,
         "window half-size N must be positive, got 0"),
        (lambda: dc.ensemble_binned_masses(COIN, 4, 0, 0), ValueError,
         "grid size G must be positive, got 0"),
        (lambda: dc.ensemble_binned_masses(COIN, 4, 2**23, 0), dc.ResourceLimitError,
         "window of length 8388608 exceeds the cap"),
        (lambda: dc.ensemble_binned_masses(COIN, 4, 8, 0), ValueError, "bins must be positive, got 0"),
        (lambda: dc.ensemble_binned_masses(COIN, 4, 8, 3), ValueError,
         "bins=3 does not divide grid size 8"),
        # the sizes, then the seed budget and list, then the largest window
        (lambda: dc.bragg_weight(COIN, 0, [0, 4], seeds=range(10**10)), ValueError,
         "window half-size N must be positive, got 0"),
        (lambda: dc.bragg_weight(COIN, 0, [4, 2**61], seeds=range(10**10)), dc.ResourceLimitError,
         f"10000000000 seeds x {2**62 + 1} sites exceed the ensemble budget"),
        (lambda: dc.bragg_weight(COIN, 0, [4], seeds=()), ValueError,
         "seed list must be nonempty for stochastic models"),
        (lambda: dc.bragg_weight(COIN, 0, [4, 2**22], seeds=[1]), dc.ResourceLimitError,
         "window of length 8388609 exceeds the cap"),
    ])
    def test_refusal_order(self, call, error, message):
        with pytest.raises(error) as refused:
            call()
        assert str(refused.value).startswith(message)


class TestEnsembleBinnedMasses:
    """The base window made once per ensemble gives the bits of the mean of the
    binned periodograms of the seeds' own windows."""

    @staticmethod
    def window_periodogram(spec, N, G):
        """The periodogram of the generated window itself, folded by residue mod G."""
        w = dc.generate_window(spec, -N, N).weights
        folded = np.bincount(np.arange(-N, N + 1) % G, weights=w, minlength=G)
        return dc.Periodogram(G, np.abs(np.fft.fft(folded)) ** 2 / (2 * N + 1))

    @pytest.mark.parametrize("spec, seeds", [
        (RS, None), (dc.ModelSpec.periodic((0.5, 2.0, -1.0)), None),
        (dc.ModelSpec.bernoullised(RS, 0.25, 1), (4, 5, 6)),
        (dc.ModelSpec.bernoulli(0.3, 1), range(7, 11)),
    ], ids=["rudin_shapiro", "periodic", "bernoullised", "bernoulli"])
    @pytest.mark.parametrize("N, G, bins", [
        (50, 16, 4),  # 2N + 1 = 101 sites from residue 14
        (64, 8, 2),  # 129 sites from residue 0
        (3, 32, 8),  # fewer sites than grid points
    ])
    def test_matches_the_regenerated_windows(self, spec, seeds, N, G, bins):
        streams = [spec] if seeds is None else [replace(spec, seed=s) for s in seeds]
        periodograms = [self.window_periodogram(stream, N, G) for stream in streams]
        for stream, pg in zip(streams, periodograms):
            assert np.array_equal(dc.periodogram(stream, N, G).intensities, pg.intensities)
        masses = [dc.binned_measure(pg, bins).masses for pg in periodograms]
        expected = sum(masses) / len(masses)
        assert np.array_equal(dc.ensemble_binned_masses(spec, N, G, bins, seeds), expected)


class TestBinnedMeasure:
    def test_masses_sum_to_grid_mean(self):
        for spec in catalogue(seed=8):
            pg = dc.periodogram(spec, 100, 64)
            bm = dc.binned_measure(pg, 16)
            assert bm.total() == pytest.approx(pg.grid_mean(), rel=1e-12)
            assert len(bm.masses) == 16

    def test_bins_must_divide_grid(self):
        pg = dc.periodogram(RS, 16, 64)
        with pytest.raises(ValueError):
            dc.binned_measure(pg, 7)

    def test_rudin_shapiro_flat_bins(self):
        # calibrated: max deviation from 1/16 at N = 2**12 is about 2e-3
        pg = dc.periodogram(RS, 2**12, 2**10)
        bm = dc.binned_measure(pg, 16)
        assert np.max(np.abs(np.asarray(bm.masses) - 1.0 / 16.0)) <= 0.01

    def test_edges_and_csv(self, tmp_path):
        pg = dc.periodogram(ALT, 8, 8)
        bm = dc.binned_measure(pg, 4)
        np.testing.assert_allclose(bm.edges(), [0.0, 0.25, 0.5, 0.75, 1.0])
        path = tmp_path / "bins.csv"
        bm.to_csv(path)
        assert path.read_text().splitlines()[0] == "bin_lo,bin_hi,mass"


class TestAnalyticDiffraction:
    def test_constant(self):
        m = dc.analytic_diffraction(dc.ModelSpec.constant(-2.0))
        assert m.bragg == ((0.0, 4.0),)
        assert m.ac_level == 0.0

    def test_alternating(self):
        m = dc.analytic_diffraction(ALT)
        assert m.bragg == ((0.5, 1.0),)
        assert m.ac_level == 0.0

    def test_two_periodic_matches_alternating(self):
        m = dc.analytic_diffraction(dc.ModelSpec.periodic((1.0, -1.0)))
        assert m.bragg == ((0.5, 1.0),)

    def test_periodic_peaks_are_cyclic_amplitudes(self):
        pattern = (0.5, 2.0, -1.0)
        m = dc.analytic_diffraction(dc.ModelSpec.periodic(pattern))
        amps = np.abs(np.fft.fft(np.array(pattern)) / 3) ** 2
        expected = {j / 3: amps[j] for j in range(3) if amps[j] > 1e-12 * np.mean(np.square(pattern))}
        assert dict(m.bragg) == pytest.approx(expected, rel=1e-12)

    def test_extinct_peak_dropped(self):
        m = dc.analytic_diffraction(dc.ModelSpec.periodic((1.0, -1.0)))
        assert all(pos != 0.0 for pos, _ in m.bragg)

    def test_rudin_shapiro_pure_diffuse(self):
        m = dc.analytic_diffraction(RS)
        assert m.bragg == ()
        assert m.ac_level == 1.0
        assert m.sc == "none-modelled"

    def test_bernoulli(self):
        m = dc.analytic_diffraction(dc.ModelSpec.bernoulli(0.75, 1))
        assert m.bragg == ((0.0, 0.25),)
        assert m.ac_level == pytest.approx(0.75, rel=1e-12)

    def test_fair_coin_pure_diffuse(self):
        m = dc.analytic_diffraction(dc.ModelSpec.bernoulli(0.5, 1))
        assert m.bragg == ()
        assert m.ac_level == 1.0

    def test_bernoullised_damping(self):
        spec = dc.ModelSpec.bernoullised(ALT, 0.25, 1)
        m = dc.analytic_diffraction(spec)
        assert m.bragg == ((0.5, 0.25),)
        assert m.ac_level == pytest.approx(0.75, rel=1e-12)

    def test_total_equals_zero_lag_autocorrelation(self):
        for spec in catalogue(seed=1):
            m = dc.analytic_diffraction(spec)
            eta0 = dc.analytic_autocorrelation(spec, 0).value(0)
            assert abs(m.total() - eta0) <= 1e-12 * max(1.0, eta0)

    def test_measure_validation(self):
        with pytest.raises(ValueError):
            dc.SpectralMeasure(bragg=((0.5, 1.0), (0.25, 1.0)), ac_level=0.0)
        with pytest.raises(ValueError):
            dc.SpectralMeasure(bragg=((1.5, 1.0),), ac_level=0.0)
        with pytest.raises(ValueError):
            dc.SpectralMeasure(bragg=((0.5, -1.0),), ac_level=0.0)
        with pytest.raises(ValueError):
            dc.SpectralMeasure(bragg=(), ac_level=-0.1)


class TestSpectralHomometry:
    def test_model_against_itself(self):
        cmp = dc.spectral_homometry(RS, RS, 2**10, 2**8, 16, 0.0)
        assert cmp.passed and cmp.distance == 0.0

    def test_rs_versus_fair_coin(self):
        cmp = dc.spectral_homometry(
            RS, dc.ModelSpec.bernoulli(0.5, 1), 2**12, 2**10, 16, 0.02, seeds=range(1, 11)
        )
        assert cmp.passed

    def test_distinguishable_pair_fails(self):
        cmp = dc.spectral_homometry(ALT, RS, 2**10, 2**8, 16, 0.05)
        assert not cmp.passed

    def test_report_shape(self):
        cmp = dc.spectral_homometry(ALT, ALT, 2**8, 2**6, 8, 0.01)
        data = cmp.to_json()
        assert data["bins"] == 8 and data["passed"] is True
        assert len(data["masses_a"]) == 8
