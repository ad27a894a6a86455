"""Entropy formulas, block-entropy estimates, and patch counting."""

import collections
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import diffcomb as dc
from diffcomb import order
from diffcomb._util import _distinct
from diffcomb.order import _letters, _subword_ranks
from test_combs import ALT, RS

# calibrated: distinct Rudin-Shapiro subword counts grow by exactly 8 per
# length step from L = 8 onward
RS_PATCH_COUNTS = [2, 4, 8, 16, 24, 36, 46, 56, 64, 72, 80, 88, 96, 104, 112, 120]


def counter_block_entropy(spec, N, k):
    """Independent tuple-hashing estimate of the same plug-in entropy."""
    w = dc.generate_window(spec, -N, N).weights
    words = collections.Counter(
        tuple(w[i : i + k]) for i in range(w.size - k + 1)
    )
    total = sum(words.values())
    return -sum(c / total * math.log(c / total) for c in words.values()) / k


def horner_codes(weights, max_length):
    """Yield every length-L subword packed into one int64 (Horner over the
    observed alphabet) for L = 1..max_length; codes sort lexicographically."""
    _, inverse = np.unique(weights, return_inverse=True)
    alphabet_size = int(inverse.max()) + 1
    codes = inverse.astype(np.int64)
    yield codes
    for L in range(2, max_length + 1):
        codes = codes[:-1] * alphabet_size + inverse[L - 1 :]
        yield codes


def horner_patch_complexity(spec, N, L_max):
    """Distinct Horner codes on [-N, N] (the slice from N of the doubled
    window) and on [-2N, 2N], counted by np.unique."""
    w = dc.generate_window(spec, -2 * N, 2 * N).weights
    entries, saturated = [], []
    for L, codes in enumerate(horner_codes(w, L_max), start=1):
        count = np.unique(codes[N : 3 * N + 2 - L]).size
        entries.append((L, count))
        saturated.append(count == np.unique(codes).size)
    return entries, saturated


def horner_block_entropy(spec, N, k):
    """Plug-in entropy from np.unique counts of the length-k Horner codes."""
    *_, codes = horner_codes(dc.generate_window(spec, -N, N).weights, k)
    _, counts = np.unique(codes, return_counts=True)
    probabilities = counts / codes.size
    return float(-(probabilities * np.log(probabilities)).sum() / k)


def set_patch_complexity(spec, N, L_max):
    """Entries and saturation flags from sets of subword tuples of [-N, N]
    and of [-2N, 2N]."""

    def distinct(first, last, L):
        w = dc.generate_window(spec, first, last).weights.tolist()
        return len({tuple(w[i : i + L]) for i in range(len(w) - L + 1)})

    lengths = range(1, L_max + 1)
    inner = [distinct(-N, N, L) for L in lengths]
    doubled = [distinct(-2 * N, 2 * N, L) for L in lengths]
    return list(zip(lengths, inner)), [a == b for a, b in zip(inner, doubled)]


class TestBernoulliEntropy:
    def test_degenerate_coins_exact(self):
        assert dc.bernoulli_entropy(0.0) == 0.0
        assert dc.bernoulli_entropy(1.0) == 0.0

    def test_fair_coin_exact(self):
        assert dc.bernoulli_entropy(0.5) == math.log(2.0)

    def test_quarter_coin(self):
        assert dc.bernoulli_entropy(0.25) == pytest.approx(0.5623351446188083, rel=1e-15)

    def test_symmetry(self):
        for p in (0.1, 0.3, 0.42):
            assert dc.bernoulli_entropy(p) == pytest.approx(dc.bernoulli_entropy(1 - p), rel=1e-15)

    def test_domain(self):
        for bad in (-0.1, 1.1, "0.5", None):
            with pytest.raises(ValueError):
                dc.bernoulli_entropy(bad)


class TestExactEntropy:
    def test_deterministic_models_have_zero_entropy(self):
        for spec in (RS, ALT, dc.ModelSpec.constant(2.0), dc.ModelSpec.periodic((1.0, -1.0))):
            assert dc.exact_entropy(spec) == 0.0

    def test_stochastic_models_report_coin_entropy(self):
        assert dc.exact_entropy(dc.ModelSpec.bernoulli(0.25, 1)) == dc.bernoulli_entropy(0.25)
        assert dc.exact_entropy(dc.ModelSpec.bernoullised(RS, 0.25, 1)) == dc.bernoulli_entropy(0.25)


class TestBlockEntropy:
    def test_constant_comb_is_zero(self):
        assert dc.block_entropy(dc.ModelSpec.constant(1.0), 256, 2) == 0.0

    def test_alternating_two_words(self):
        # length-3 subwords of the alternating comb take exactly two values of
        # near-equal frequency, so H_3 is log 2 up to O(1/N)
        got = dc.block_entropy(ALT, 2**10, 3)
        assert got == pytest.approx(math.log(2.0) / 3.0, abs=1e-6)

    def test_matches_counter_oracle(self):
        for spec in (ALT, RS, dc.ModelSpec.bernoulli(0.35, 9)):
            got = dc.block_entropy(spec, 2**9, 3)
            assert got == pytest.approx(counter_block_entropy(spec, 2**9, 3), rel=1e-12)

    def test_fair_coin_approaches_log_two(self):
        got = dc.block_entropy(dc.ModelSpec.bernoulli(0.5, 1), 2**16, 8)
        assert abs(got - math.log(2.0)) <= 0.01

    def test_rudin_shapiro_below_patch_rate(self):
        # H_12 / 12 for a zero-entropy model stays under log(p(12)) / 12
        counts = dc.patch_complexity(RS, 2**12, 12)
        bound = math.log(counts.count(12)) / 12.0
        assert dc.block_entropy(RS, 2**18, 12) <= bound

    def test_per_symbol_rate_nonincreasing(self):
        for spec in (dc.ModelSpec.bernoulli(0.3, 4), dc.ModelSpec.periodic((1.0, -1.0, 1.0, 1.0))):
            rates = [dc.block_entropy(spec, 2**12, k) for k in range(1, 6)]
            assert all(b <= a + 0.01 for a, b in zip(rates, rates[1:]))

    def test_window_too_small(self):
        with pytest.raises(ValueError):
            dc.block_entropy(RS, 100, 8)

    def test_79_values_at_length_10_match_counter_oracle(self):
        # 79**10 subwords exceed 2**62: the key space is large, the ranks are not
        pattern = np.random.default_rng(6).permutation(79) - 39.5
        spec = dc.ModelSpec.periodic(tuple(pattern))
        got = dc.block_entropy(spec, 51200, 10)
        assert got == pytest.approx(counter_block_entropy(spec, 51200, 10), rel=1e-12)
        assert got == pytest.approx(math.log(79) / 10, rel=1e-6)

    def test_invalid_block_length(self):
        with pytest.raises(ValueError):
            dc.block_entropy(RS, 256, 0)


class TestPatchComplexity:
    def test_constant_comb(self):
        pc = dc.patch_complexity(dc.ModelSpec.constant(1.0), 256, 4)
        assert [c for _, c in pc.entries] == [1, 1, 1, 1]
        assert pc.all_saturated

    def test_alternating_comb(self):
        pc = dc.patch_complexity(ALT, 256, 5)
        assert [c for _, c in pc.entries] == [2, 2, 2, 2, 2]
        assert pc.all_saturated

    def test_periodic_counts_cap_at_period(self):
        # cyclic length-2 windows of (1,-1,1,1) repeat the pair (1,1), so the
        # count is 3 before hitting the period cap of 4
        pc = dc.patch_complexity(dc.ModelSpec.periodic((1.0, -1.0, 1.0, 1.0)), 256, 5)
        assert [c for _, c in pc.entries] == [2, 3, 4, 4, 4]
        assert pc.all_saturated

    def test_rudin_shapiro_counts(self):
        pc = dc.patch_complexity(RS, 2**14, 16)
        assert [c for _, c in pc.entries] == RS_PATCH_COUNTS
        assert pc.all_saturated
        increments = np.diff([c for _, c in pc.entries])
        assert np.all(increments[7:] == 8)

    def test_unsaturated_window_flagged(self):
        # one deviant site at index 75 is outside [-50, 50] but inside the
        # doubled window, so the length-1 count is not saturated
        pattern = [1.0] * 300
        pattern[75] = -1.0
        pc = dc.patch_complexity(dc.ModelSpec.periodic(tuple(pattern)), 50, 1)
        assert pc.entries == [(1, 1)]
        assert pc.saturated == [False]
        assert not pc.all_saturated

    def test_counts_and_flags_match_set_oracle(self):
        # a 3-valued period longer than [-N, N] and shorter than [-2N, 2N]:
        # short lengths saturate, long ones do not; with this draw, a subword
        # at either end of [-N, N] occurs nowhere else in it
        rng = np.random.default_rng(4)
        spec = dc.ModelSpec.periodic(rng.choice([-1.0, 0.5, 2.0], size=800))
        N, L_max = 300, 6
        pc = dc.patch_complexity(spec, N, L_max)
        assert (pc.entries, pc.saturated) == set_patch_complexity(spec, N, L_max)
        assert pc.saturated[0] and not pc.saturated[-1]

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.integers(2, 5),
        period=st.integers(1, 2000),
        seed=st.integers(0, 2**32 - 1),
        L_max=st.integers(1, 8),
        scale=st.integers(50, 120),
    )
    @example(values=5, period=2000, seed=0, L_max=8, scale=50)  # sorted ranking from L = 5
    def test_counts_flags_and_entropy_match_horner_oracle(self, values, period, seed, L_max, scale):
        # periods up to 2000 against windows of 201..3841 sites reach both the
        # rank table (few distinct subwords) and the sorted ranking (many)
        digits = np.random.default_rng(seed).integers(0, values, size=period)
        spec = dc.ModelSpec.periodic(tuple(digits - 1.5))
        N = scale * L_max
        # the ranks are the dense ranks of the Horner codes, in the same order
        w = dc.generate_window(spec, -2 * N, 2 * N).weights
        ranked = _subword_ranks(*_letters(spec, -2 * N, 2 * N), L_max)
        for (ranks, size), codes in zip(ranked, horner_codes(w, L_max)):
            distinct, inverse = np.unique(codes, return_inverse=True)
            assert size == distinct.size and np.array_equal(ranks, inverse)
        pc = dc.patch_complexity(spec, N, L_max)
        assert (pc.entries, pc.saturated) == horner_patch_complexity(spec, N, L_max)
        N_k = 50 * 2**L_max
        assert dc.block_entropy(spec, N_k, L_max) == horner_block_entropy(spec, N_k, L_max)

    @pytest.mark.parametrize("period", [100, 700])
    def test_many_values_match_set_oracle(self, period):
        # 100 values: from L = 2 on, a rank table of size * 100 entries would
        # exceed the 1200 subwords of the doubled window, so they are sorted;
        # period 100 saturates at every length, period 700 does not
        pattern = np.random.default_rng(5).permutation(period) % 100 - 49.5
        spec = dc.ModelSpec.periodic(tuple(pattern))
        N, L_max = 300, 4
        pc = dc.patch_complexity(spec, N, L_max)
        assert (pc.entries, pc.saturated) == set_patch_complexity(spec, N, L_max)
        assert pc.count(1) == 100 and pc.all_saturated == (period == 100)
        assert dc.block_entropy(spec, N, 2) == horner_block_entropy(spec, N, 2)

    def test_rudin_shapiro_to_length_63_matches_set_oracle(self):
        pc = dc.patch_complexity(RS, 3200, 63)
        assert (pc.entries, pc.saturated) == set_patch_complexity(RS, 3200, 63)
        assert [c for _, c in pc.entries[:16]] == RS_PATCH_COUNTS

    @pytest.mark.parametrize("past", [0, 1], ids=["at", "past"])
    @pytest.mark.parametrize("spec,limit", [
        (RS, 32), (dc.ModelSpec.constant(2.0), 64), (dc.ModelSpec.periodic((1.0, -1.0, 0.5)), 32),
        (dc.ModelSpec.periodic((1.0, -1.0, 0.5, 2.0, 3.0, 4.0, 5.0)), 21),
    ], ids=["rs", "constant", "3-letters", "7-letters"])
    def test_at_and_past_the_64_bit_limit(self, monkeypatch, spec, limit, past):
        # limit codes of a.bit_length() bits fill 64 bits, one more overflows: the
        # path not taken raises, so neither can stand in for the other unnoticed
        def not_taken(*args):
            raise AssertionError("wrong path")
        monkeypatch.setattr(order, "_prefix_counts" if past else "_subword_ranks", not_taken)
        N, L_max = 50 * (limit + past), limit + past
        pc = dc.patch_complexity(spec, N, L_max)
        assert (pc.entries, pc.saturated) == horner_patch_complexity(spec, N, L_max)

    def test_unique_end_subwords_match_set_oracle(self):
        # a period longer than [-2N, 2N] whose letter at each end of both windows
        # occurs nowhere else: every subword through an end is unique, and so is
        # each of the last L_max - 1 codes of each window; 6 letters, so 21 codes
        # of 3 bits fill the 64-bit limit
        N = 1100
        pattern = np.random.default_rng(6).choice([-1.0, 1.0], size=5000)
        for n, value in zip((N, -N, 2 * N, -2 * N), (2.0, 3.0, 4.0, 5.0)):
            pattern[n % pattern.size] = value
        spec = dc.ModelSpec.periodic(tuple(pattern))
        for L_max in (1, 2, 9, 21):
            pc = dc.patch_complexity(spec, N, L_max)
            assert (pc.entries, pc.saturated) == set_patch_complexity(spec, N, L_max)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        letters=st.integers(1, 6),
        period=st.integers(1, 300),
        size=st.integers(1, 3000),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_prefix_counts_match_subword_ranks(self, letters, period, size, seed, data):
        # every distinct-subword count of a digit string, to the 64-bit limit of
        # its codes; repeats of a short period give long common prefixes, and a
        # letter placed once makes the subwords around it unique
        L_max = data.draw(st.integers(1, 64 // letters.bit_length()), label="L_max")
        rng = np.random.default_rng(seed)
        digits = np.resize(rng.integers(0, letters, size=period, dtype=np.uint8),
                           max(size, L_max, letters))
        digits[rng.choice(digits.size, letters, replace=False)] = np.arange(letters)  # all occur
        sizes = [count for _, count in _subword_ranks(digits, letters, L_max)]
        assert order._prefix_counts(digits, letters, L_max).tolist() == sizes

    def test_a_64_bit_xor_of_ones_keeps_its_bit_length(self):
        # 3 letters, 32 codes of 2 bits: the sorted neighbours [3, 1, 3 x 30] and
        # [3, 2, pad x 30] XOR to 62 one bits, which float64 rounds up to 2**62
        digits = np.array([2, 0] + [2] * 30 + [2, 1], dtype=np.uint8)
        sizes = [count for _, count in _subword_ranks(digits, 3, 32)]
        assert order._prefix_counts(digits, 3, 32).tolist() == sizes

    def test_lengths_times_doubled_window_within_work_budget(self, monkeypatch):
        # a cap of 20000 allows 1280000 sites: 64 lengths of 19997, not 65
        monkeypatch.setenv(dc.MAX_WINDOW_ENV, "20000")
        assert len(dc.patch_complexity(ALT, 4999, 64).entries) == 64
        with pytest.raises(dc.ResourceLimitError, match="65 lengths x 19997 sites exceed"):
            dc.patch_complexity(ALT, 4999, 65)
        with pytest.raises(dc.ResourceLimitError, match="window of length 20001 exceeds the cap"):
            dc.patch_complexity(ALT, 5000, 1)

    def test_stochastic_model_rejected(self):
        with pytest.raises(ValueError):
            dc.patch_complexity(dc.ModelSpec.bernoulli(0.5, 1), 2**10, 4)

    def test_window_too_small(self):
        with pytest.raises(ValueError):
            dc.patch_complexity(RS, 100, 16)

    def test_count_lookup(self):
        pc = dc.patch_complexity(RS, 2**10, 8)
        assert pc.count(8) == 56
        with pytest.raises(ValueError):
            pc.count(9)

    def test_csv_export(self, tmp_path):
        pc = dc.patch_complexity(ALT, 256, 2)
        path = tmp_path / "p.csv"
        pc.to_csv(path)
        assert path.read_text() == "L,count\n1,2\n2,2\n"


@pytest.mark.parametrize("count", [
    lambda: dc.block_entropy(dc.ModelSpec.bernoullised(RS, 0.25, 3), 262144, 10),
    lambda: dc.patch_complexity(RS, 131072, 32),
    lambda: dc.block_entropy(dc.ModelSpec.periodic((0.5, -2.0, 3.0, 1.0, -1.0)), 262144, 6),
    lambda: dc.patch_complexity(dc.ModelSpec.periodic((0.5, -2.0, 3.0, 1.0, -1.0, 4.0, 2.0)),
                                131072, 32),
], ids=["block_entropy", "patch_complexity", "block_entropy-5-letters",
        "patch_complexity-7-letters"])
def test_peak_memory_of_a_count(count):
    """Both counts read the letters of 2**19 + 1 sites as one byte per site, and
    no float window: the streamed sign bits of a +-1 model, the tiled ranks of a
    cycle's entries.  The peaks read 0.82, 1.22, 0.41 and 1.14 window sizes of
    8 bytes per site (4.0, 4.0, 6.25 and 6.25 with a float window, its sort and
    fresh index arrays)."""
    tracemalloc.start()
    try:
        count()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * (2**19 + 1)


class TestLetters:
    @pytest.mark.parametrize("spec", [
        dc.ModelSpec.constant(1.0), dc.ModelSpec.constant(-1.0),
        dc.ModelSpec.bernoulli(0.0, 3), dc.ModelSpec.bernoulli(1.0, 3), dc.ModelSpec.bernoulli(0.3, 3),
        ALT, RS, dc.ModelSpec.periodic((1.0, -1.0, -1.0)), dc.ModelSpec.bernoullised(RS, 0.25, 7),
        dc.ModelSpec.constant(0.5), dc.ModelSpec.periodic((0.0, 3.0, -0.0, -2.0, 3.0, 0.5)),
        dc.ModelSpec.periodic(tuple(np.random.default_rng(2).permutation(300) - 149.5)),
    ], ids=["plus-one", "minus-one", "coin-p0", "coin-p1", "coin", "alternating", "rs",
            "periodic", "rsb", "half", "signed-zeros", "300-letters"])
    def test_sign_bit_digits_match_distinct_of_the_window(self, monkeypatch, spec):
        """A model's digits are _distinct's ranks of its window, read without
        generating it: a cycle's from the entries the window reaches, any other
        +-1 model's from the sign bits; one letter gives a = 1 and zeros."""
        windows = [(5, 5), (-3, 4), (-70000, 3), (2**40, 2**40 + 70000)]
        expected = [_distinct(dc.generate_window(spec, *window).weights) for window in windows]

        def refuse(*args):
            raise AssertionError("a float window was generated")

        monkeypatch.setattr(dc.combs, "WeightWindow", refuse)
        for (first, last), (alphabet, inverse) in zip(windows, expected):
            digits, a = _letters(spec, first, last)
            assert a == alphabet.size and np.array_equal(digits, inverse), (first, last)
        one_letter = spec.model == "constant" or spec.p in (0.0, 1.0)
        assert (_letters(spec, -1000, 1000)[1] == 1) == one_letter

    @pytest.mark.parametrize("spec,N,k,ranked", [
        (dc.ModelSpec.constant(0.5), 1000, 2, False),
        (RS, 2000, 4, False),
        (dc.ModelSpec.bernoullised(RS, 0.25, 3), 2**14, 7, False),
        (dc.ModelSpec.periodic((0.5, -2.0, 3.0, 0.5, 3.0, -2.0, -2.0)), 5000, 5, False),
        (dc.ModelSpec.periodic(tuple(np.arange(100) - 49.5)), 300, 2, True),
        (dc.ModelSpec.periodic(tuple(np.random.default_rng(3).integers(0, 5, 2000) - 2.0)),
         12800, 8, True),
    ], ids=["one-letter", "rs", "rsb", "three-letters", "100-letters", "five-letters"])
    def test_block_entropy_matches_horner_oracle_on_both_branches(self, monkeypatch, spec, N, k,
                                                                  ranked):
        """Codes while a**k <= 2N + 1, ranks past it: the same float, bit for bit."""
        calls = []

        def spy(*args):
            calls.append(args)
            return _subword_ranks(*args)

        monkeypatch.setattr(order, "_subword_ranks", spy)
        assert dc.block_entropy(spec, N, k) == horner_block_entropy(spec, N, k)
        assert bool(calls) == ranked


class TestEntropyReport:
    def test_stochastic_report(self):
        report = dc.entropy_report(dc.ModelSpec.bernoulli(0.25, 3), 2**12, 4)
        data = report.to_json()
        assert data["model"]["model"] == "bernoulli"
        assert data["exact_entropy"] == pytest.approx(dc.bernoulli_entropy(0.25), rel=1e-12)
        assert data["block_length"] == 4
        assert "patch_counts" not in data
        assert abs(data["block_entropy_per_symbol"] - dc.bernoulli_entropy(0.25)) <= 0.05

    def test_deterministic_report_with_patches(self):
        report = dc.entropy_report(RS, 2**11, 4, L_max=8)
        data = report.to_json()
        assert data["exact_entropy"] == 0.0
        expected = [[L, c] for L, c in zip(range(1, 9), RS_PATCH_COUNTS[:8])]
        assert data["patch_counts"]["counts"] == expected

    def test_model_echo_is_verbatim_and_own_numbers_rounded(self):
        """The model echo keeps p in full; only the report's own floats take 12 digits."""
        p = 0.1234567890123456
        data = dc.entropy_report(dc.ModelSpec.bernoulli(p, 3), 1000, 2).to_json()
        assert data["model"] == {"model": "bernoulli", "p": p, "seed": 3}
        assert data["exact_entropy"] == 0.373756285829 != dc.bernoulli_entropy(p)
        text = json.dumps(data)
        assert '"p": 0.1234567890123456' in text
        assert '"exact_entropy": 0.373756285829,' in text

    def test_one_letter_window_has_positive_zero_entropy(self):
        """A one-letter window's entropy is 0.0, never -0.0, in the value and the report."""
        assert math.copysign(1.0, dc.block_entropy(dc.ModelSpec.constant(0.5), 1000, 2)) == 1.0
        text = json.dumps(dc.entropy_report(dc.ModelSpec.constant(0.5), 1000, 2).to_json())
        assert '"block_entropy_per_symbol": 0.0,' in text

    def test_patch_request_on_stochastic_model_rejected(self):
        with pytest.raises(ValueError):
            dc.entropy_report(dc.ModelSpec.bernoulli(0.5, 1), 2**12, 4, L_max=4)

    @pytest.mark.parametrize("k,L_max,message", [
        (100, 16, "too small for k=100"),
        (4, 10**6, "too small for L_max=1000000"),
    ])
    def test_arguments_are_checked_before_any_count(self, monkeypatch, k, L_max, message):
        """Neither count generates a window or ranks a subword before both are checked."""
        def refuse(*args):
            raise AssertionError("counted before the arguments were checked")

        monkeypatch.setattr(order, "_subword_ranks", refuse)
        monkeypatch.setattr(order, "_letters", refuse)
        with pytest.raises(ValueError, match=message):
            dc.entropy_report(RS, 10**6, k, L_max=L_max)
