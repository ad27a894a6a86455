"""Model specs, windows, and the per-index random stream."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diffcomb as dc
from diffcomb import combs

RS = dc.ModelSpec.rudin_shapiro()
ALT = dc.ModelSpec.alternating()
# Largest |n| of the documented lattice domain |n| < 2**62.
LATTICE_EDGE = 2**62 - 1


def catalogue(seed=1):
    """One spec per model family, binary where the family allows it."""
    return [
        dc.ModelSpec.constant(1.0),
        dc.ModelSpec.constant(-2.5),
        dc.ModelSpec.periodic((1.0, -1.0, 1.0, 1.0)),
        dc.ModelSpec.periodic((0.5, 2.0, -1.0)),
        ALT,
        RS,
        dc.ModelSpec.bernoulli(0.3, seed),
        dc.ModelSpec.bernoullised(RS, 0.25, seed),
        dc.ModelSpec.bernoullised(ALT, 0.75, seed),
    ]


class TestRudinShapiroWeights:
    def test_first_values(self):
        # hand descent from the fixed points w(0) = +1, w(-1) = -1
        assert [dc.rs_weight(n) for n in range(8)] == [1, 1, 1, -1, 1, 1, -1, 1]

    def test_negative_indices(self):
        assert dc.rs_weight(-1) == -1
        assert dc.rs_weight(-2) == 1

    def test_recursion_property(self):
        # w(4n+l) = w(n) for l in {0, 1} and (-1)**(n+l) w(n) for l in {2, 3}
        rng = np.random.default_rng(42)
        n = rng.integers(-(2**20), 2**20 + 1, size=100_000)
        base = dc.rs_weights(n)
        for l in range(4):
            direct = dc.rs_weights(4 * n + l)
            if l < 2:
                expected = base
            else:
                expected = np.where((n + l) % 2 == 0, base, -base)
            assert np.array_equal(direct, expected)

    def test_scalar_matches_vector(self):
        # around the origin, and at the 64-bit edges of the lattice domain
        ns = np.concatenate([np.arange(-3000, 3000), [LATTICE_EDGE, -LATTICE_EDGE, -(2**61) - 7]])
        vec = dc.rs_weights(ns)
        assert all(dc.rs_weight(int(n)) == v for n, v in zip(ns, vec))

    def test_two_sided_balance(self):
        # calibrated constant: measured |mean| * sqrt(N) stays below 0.8
        for e in range(8, 13):
            N = 2**e
            mean = dc.generate_window(RS, -N, N).weights.mean()
            assert abs(mean) <= 4.0 / np.sqrt(N)

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            dc.rs_weight(1.5)


class TestModelSpec:
    def test_validation_missing_and_extra_fields(self):
        with pytest.raises(ValueError):
            dc.ModelSpec("constant")
        with pytest.raises(ValueError):
            dc.ModelSpec("alternating", w=1.0)
        with pytest.raises(ValueError):
            dc.ModelSpec("bernoulli", p=0.5)
        with pytest.raises(ValueError):
            dc.ModelSpec("nonsense")

    def test_probability_and_seed_ranges(self):
        with pytest.raises(ValueError):
            dc.ModelSpec.bernoulli(1.5, 1)
        with pytest.raises(ValueError):
            dc.ModelSpec.bernoulli(0.5, -3)
        with pytest.raises(ValueError):
            dc.ModelSpec.bernoulli(0.5, 2**64)

    def test_bernoullised_base_rules(self):
        with pytest.raises(ValueError):
            dc.ModelSpec.bernoullised(dc.ModelSpec.bernoulli(0.5, 1), 0.5, 2)
        with pytest.raises(ValueError):
            dc.ModelSpec.bernoullised(dc.ModelSpec.constant(2.0), 0.5, 2)
        spec = dc.ModelSpec.bernoullised(dc.ModelSpec.constant(-1.0), 0.5, 2)
        assert spec.base.w == -1.0

    def test_json_round_trip(self):
        for spec in catalogue(seed=9):
            assert dc.ModelSpec.from_json(spec.to_json()) == spec

    def test_json_defaults(self):
        assert dc.ModelSpec.from_json({"model": "constant"}).w == 1.0
        spec = dc.ModelSpec.from_json({"model": "bernoulli"})
        assert spec.p == 0.5 and spec.seed == dc.DEFAULT_SEED
        nested = dc.ModelSpec.from_json(
            {"model": "bernoullised", "base": {"model": "rudin_shapiro"}, "p": 0.25}
        )
        assert nested.base == RS and nested.seed == dc.DEFAULT_SEED

    def test_json_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            dc.ModelSpec.from_json({"model": "constant", "weight": 2})

    def test_binary_flag(self):
        assert RS.is_binary and ALT.is_binary
        assert dc.ModelSpec.constant(1.0).is_binary
        assert not dc.ModelSpec.constant(2.0).is_binary
        assert not dc.ModelSpec.periodic((0.5, 1.0)).is_binary
        assert dc.ModelSpec.bernoulli(0.2, 1).is_binary


class TestGenerateWindow:
    def test_constant(self):
        win = dc.generate_window(dc.ModelSpec.constant(2.5), -3, 3)
        assert np.array_equal(win.weights, np.full(7, 2.5))

    def test_alternating_sign_of_n(self):
        win = dc.generate_window(ALT, -4, 4)
        assert np.array_equal(win.weights, [1, -1, 1, -1, 1, -1, 1, -1, 1])

    def test_periodic_anchored_at_zero(self):
        win = dc.generate_window(dc.ModelSpec.periodic((5.0, 6.0, 7.0)), -4, 4)
        assert list(win.weights) == [7, 5, 6, 7, 5, 6, 7, 5, 6]
        assert win.weights[-win.first] == 5.0  # n = 0

    def test_rudin_shapiro_window(self):
        win = dc.generate_window(RS, 0, 7)
        assert list(win.weights) == [1, 1, 1, -1, 1, 1, -1, 1]

    def test_bernoulli_degenerate_probabilities(self):
        ones = dc.generate_window(dc.ModelSpec.bernoulli(1.0, 7), -100, 100)
        assert np.all(ones.weights == 1.0)
        minus = dc.generate_window(dc.ModelSpec.bernoulli(0.0, 7), -100, 100)
        assert np.all(minus.weights == -1.0)

    def test_binary_models_produce_binary_windows(self):
        for spec in catalogue(seed=3):
            win = dc.generate_window(spec, -50, 50)
            assert win.is_binary == spec.is_binary

    def test_reproducible(self):
        spec = dc.ModelSpec.bernoullised(RS, 0.3, 41)
        a = dc.generate_window(spec, -200, 200)
        b = dc.generate_window(spec, -200, 200)
        assert np.array_equal(a.weights, b.weights)

    def test_seed_changes_stream(self):
        a = dc.generate_window(dc.ModelSpec.bernoulli(0.5, 1), 0, 999)
        b = dc.generate_window(dc.ModelSpec.bernoulli(0.5, 2), 0, 999)
        assert not np.array_equal(a.weights, b.weights)

    def test_rejects_empty_window(self):
        with pytest.raises(ValueError):
            dc.generate_window(RS, 5, 4)

    def test_window_cap(self, monkeypatch):
        monkeypatch.setenv(dc.MAX_WINDOW_ENV, "100")
        with pytest.raises(dc.ResourceLimitError):
            dc.generate_window(RS, 0, 100)
        dc.generate_window(RS, 0, 99)

    def test_cap_env_must_be_integer(self, monkeypatch):
        monkeypatch.setenv(dc.MAX_WINDOW_ENV, "many")
        with pytest.raises(ValueError):
            dc.max_window_length()

    @settings(max_examples=60, deadline=None)
    @given(first=st.integers(-LATTICE_EDGE, LATTICE_EDGE), size=st.integers(1, 8))
    def test_lattice_domain_matches_scalar_weights(self, first, size):
        last = min(first + size - 1, LATTICE_EDGE)
        n = range(first, last + 1)
        assert dc.generate_window(RS, first, last).weights.tolist() == [dc.rs_weight(i) for i in n]
        assert dc.generate_window(ALT, first, last).weights.tolist() == [1 - 2 * (i % 2) for i in n]
        periodic = dc.generate_window(dc.ModelSpec.periodic((1.0, 2.0, 3.0)), first, last)
        assert periodic.weights.tolist() == [1.0 + i % 3 for i in n]

    def test_lattice_domain_edges(self):
        edge = LATTICE_EDGE
        assert dc.generate_window(RS, edge - 3, edge).weights.tolist() == [
            dc.rs_weight(i) for i in range(edge - 3, edge + 1)
        ]
        for first, last in ((edge - 3, edge + 1), (-edge - 1, -edge + 2)):
            with pytest.raises(ValueError, match="lattice"):
                dc.generate_window(RS, first, last)


class TestWindowConsistency:
    """Overlapping windows of one spec agree index by index."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        first=st.integers(-3000, 3000),
        length=st.integers(1, 400),
        cut=st.data(),
    )
    def test_restriction_equals_direct_generation(self, seed, first, length, cut):
        last = first + length - 1
        sub_first = cut.draw(st.integers(first, last))
        sub_last = cut.draw(st.integers(sub_first, last))
        for spec in (
            RS,
            dc.ModelSpec.bernoulli(0.4, seed),
            dc.ModelSpec.bernoullised(ALT, 0.7, seed),
        ):
            full = dc.generate_window(spec, first, last)
            direct = dc.generate_window(spec, sub_first, sub_last)
            assert np.array_equal(
                full.weights[sub_first - first : sub_last - first + 1], direct.weights
            )

    def test_disjoint_chunks_tile_one_window(self):
        spec = dc.ModelSpec.bernoulli(0.5, 99)
        whole = dc.generate_window(spec, -2500, 2499)
        parts = [dc.generate_window(spec, a, a + 999) for a in range(-2500, 2500, 1000)]
        tiled = np.concatenate([p.weights for p in parts])
        assert np.array_equal(tiled, whole.weights)


class TestBernoullise:
    def test_matches_model_generation(self):
        base = dc.generate_window(RS, -300, 300)
        flipped = dc.bernoullise(base, 0.25, 17)
        model = dc.generate_window(dc.ModelSpec.bernoullised(RS, 0.25, 17), -300, 300)
        assert np.array_equal(flipped.weights, model.weights)

    def test_degenerate_p(self):
        base = dc.generate_window(ALT, -50, 50)
        assert np.array_equal(dc.bernoullise(base, 1.0, 5).weights, base.weights)
        assert np.array_equal(dc.bernoullise(base, 0.0, 5).weights, -base.weights)

    def test_flip_fraction_near_half_at_p_half(self):
        # independent count of disagreeing signs
        base = dc.generate_window(RS, -(2**15), 2**15)
        flipped = dc.bernoullise(base, 0.5, 123)
        fraction = np.mean(base.weights != flipped.weights)
        assert abs(fraction - 0.5) <= 0.02

    def test_requires_binary_window(self):
        win = dc.WeightWindow(0, np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            dc.bernoullise(win, 0.5, 1)


class TestWeightWindow:
    def test_indices_and_bounds(self):
        """Entry i holds w(offset + i), for the indices first..last."""
        win = dc.WeightWindow(-2, np.array([5.0, 6.0, 7.0]))
        assert win.first == -2 and win.last == 0
        assert dict(zip(win.indices().tolist(), win.weights.tolist())) == {-2: 5.0, -1: 6.0, 0: 7.0}

    def test_slices_at_the_window_edges_equal_direct_generation(self):
        spec = dc.ModelSpec.bernoullised(RS, 0.4, 11)
        full = dc.generate_window(spec, -10, 10)
        for lo, hi in ((-10, -10), (-10, 0), (3, 10), (10, 10), (-10, 10)):
            part = full.weights[lo - full.first : hi - full.first + 1]
            assert np.array_equal(part, dc.generate_window(spec, lo, hi).weights)

    def test_csv_export(self, tmp_path):
        win = dc.generate_window(ALT, -1, 2)
        path = tmp_path / "w.csv"
        win.to_csv(path)
        assert path.read_text() == "n,w\n-1,-1\n0,1\n1,-1\n2,1\n"

    def test_reseed(self):
        spec = dc.ModelSpec.bernoulli(0.5, 1)
        assert dc.reseed(spec, 9).seed == 9
        assert dc.reseed(RS, 9) is RS


class TestIndexUniforms:
    def test_range_and_determinism(self):
        u = dc.index_uniforms(11, -500, 499)
        assert u.shape == (1000,)
        assert u.min() >= 0.0 and u.max() < 1.0
        assert np.array_equal(u, dc.index_uniforms(11, -500, 499))

    def test_chunking_invisible(self):
        # windows longer than the internal chunk tile exactly
        u = dc.index_uniforms(3, -10, 2**20 + 10)
        v = dc.index_uniforms(3, 2**20 - 5, 2**20 + 10)
        assert np.array_equal(u[-16:], v)

    def test_small_chunks_match_one_chunk(self, monkeypatch):
        # each chunk advances the stream to its own first index
        whole = dc.index_uniforms(5, -40, 60)
        monkeypatch.setattr(combs, "_CHUNK", 7)
        assert np.array_equal(dc.index_uniforms(5, -40, 60), whole)
        assert np.array_equal(dc.index_uniforms(5, -3, 4), whole[37:45])
