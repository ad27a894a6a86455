"""Model specs, windows, and the per-index random stream."""

import importlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import diffcomb as dc
from diffcomb import combs

RS = dc.ModelSpec.rudin_shapiro()
ALT = dc.ModelSpec.alternating()
# Largest |n| of the documented lattice domain |n| < 2**62.
LATTICE_EDGE = 2**62 - 1


# Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
# SC 2011) with the Random123 multipliers and Weyl key increments.
PHILOX_M0, PHILOX_M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
PHILOX_W0, PHILOX_W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
MASK64 = 2**64 - 1


def philox_first_word(counter, key):
    """First 64-bit word of the Philox4x64-10 block at a 256-bit counter, for a 128-bit key."""
    c = [(counter >> (64 * i)) & MASK64 for i in range(4)]
    k0, k1 = key & MASK64, key >> 64
    for _ in range(10):
        p0, p1 = PHILOX_M0 * c[0], PHILOX_M1 * c[2]
        c = [(p1 >> 64) ^ c[1] ^ k0, p1 & MASK64, (p0 >> 64) ^ c[3] ^ k1, p0 & MASK64]
        k0, k1 = (k0 + PHILOX_W0) & MASK64, (k1 + PHILOX_W1) & MASK64
    return c[0]


def stream_uniform(seed, n):
    """The stream contract: index n reads counter block 2**64 + n + 1 under key (seed, 0)."""
    return (philox_first_word(2**64 + n + 1, seed) >> 11) * 2.0**-53


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

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(first=st.one_of(st.integers(-300, 100), st.integers(-LATTICE_EDGE, -LATTICE_EDGE + 200),
                           st.integers(LATTICE_EDGE - 200, LATTICE_EDGE)),
           length=st.integers(1, 200))
    @example(first=-LATTICE_EDGE, length=1)
    @example(first=LATTICE_EDGE, length=1)
    @example(first=-100, length=200)
    def test_negative_mask_matches_the_scalar_rule(self, first, length):
        last = min(first + length - 1, LATTICE_EDGE)
        mask = combs._negatives(RS, first, last - first + 1, None)
        assert mask.dtype == bool
        assert mask.tolist() == [dc.rs_weight(n) < 0 for n in range(first, last + 1)]

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

    @pytest.mark.parametrize("obj,field", [
        ({"model": "rudin_shapiro", "p": 0.3, "seed": 7}, "p"),
        ({"model": "alternating", "pattern": [1, 2]}, "pattern"),
        ({"model": "constant", "seed": 3}, "seed"),
        ({"model": "periodic", "pattern": [1, -1], "w": 2}, "w"),
        ({"model": "bernoulli", "base": {"model": "rudin_shapiro"}}, "base"),
        ({"model": "rudin_shapiro", "p": True}, "p"),
    ])
    def test_json_rejects_a_field_the_model_does_not_take(self, obj, field):
        with pytest.raises(ValueError, match=f"{obj['model']} model does not take '{field}'"):
            dc.ModelSpec.from_json(obj)

    # One row per bad field: the constructor and from_json refuse it with one message.
    BAD_FIELDS = [
        ({"model": "bernoulli", "p": True, "seed": 1}, "p must be a number, got True"),
        ({"model": "constant", "w": "3"}, "w must be a number, got '3'"),
        ({"model": "periodic", "pattern": "123"}, "pattern must be a list of numbers, got '123'"),
        ({"model": "periodic", "pattern": 5}, "pattern must be a list of numbers, got 5"),
        ({"model": "periodic", "pattern": [1, True]}, "pattern entry must be a number, got True"),
        ({"model": "constant", "w": 10**400}, "w is out of range, got 1000"),
        ({"model": "periodic", "pattern": [0.5, "2"]}, "pattern entry must be a number, got '2'"),
        ({"model": "periodic", "pattern": [0.5, 10**400]}, "pattern entry is out of range, got 1000"),
    ]

    @pytest.mark.parametrize("fields,message", BAD_FIELDS)
    def test_bad_field_is_refused_alike_in_code_and_json(self, fields, message):
        with pytest.raises(ValueError) as built:
            dc.ModelSpec(**fields)
        with pytest.raises(ValueError) as read:
            dc.ModelSpec.from_json(fields)
        assert str(built.value) == str(read.value)
        assert str(built.value).startswith(message)

    @pytest.mark.parametrize("fields,message", [row for row in BAD_FIELDS if "pattern" in row[0]])
    def test_bad_pattern_is_refused_alike_by_periodic(self, fields, message):
        with pytest.raises(ValueError) as built:
            dc.ModelSpec(**fields)
        with pytest.raises(ValueError) as periodic:
            dc.ModelSpec.periodic(fields["pattern"])
        assert str(periodic.value) == str(built.value)

    @pytest.mark.parametrize("pattern", [(0.5, -2), [0.5, -2], np.array([0.5, -2.0])])
    def test_periodic_accepts_tuples_lists_and_arrays(self, pattern):
        spec = dc.ModelSpec.periodic(pattern)
        assert spec.pattern == (0.5, -2.0)
        assert all(type(x) is float for x in spec.pattern)

    def test_base_must_be_a_spec(self):
        with pytest.raises(ValueError, match="base must be a ModelSpec, got 'rudin_shapiro'"):
            dc.ModelSpec("bernoullised", p=0.5, seed=1, base="rudin_shapiro")
        with pytest.raises(ValueError, match="model JSON must be an object"):
            dc.ModelSpec.from_json({"model": "bernoullised", "base": "rudin_shapiro"})

    @pytest.mark.parametrize("model", [["rudin_shapiro"], {}])
    def test_json_model_that_is_not_a_name_is_refused(self, model):
        with pytest.raises(ValueError, match="unknown model"):
            dc.ModelSpec.from_json({"model": model})

    @pytest.mark.parametrize("obj", [
        {"model": "rudin_shapiro", "seed": None},
        {"model": "constant", "w": None},
        {"model": None},
    ])
    def test_json_null_field_is_refused(self, obj):
        with pytest.raises(ValueError, match="model fields must not be null"):
            dc.ModelSpec.from_json(obj)

    def test_numpy_float_pattern_is_accepted(self):
        spec = dc.ModelSpec("periodic", pattern=tuple(np.array([0.5, -2.0])))
        assert spec.pattern == (0.5, -2.0)
        assert all(type(x) is float for x in spec.pattern)

    def test_binary_flag(self):
        assert RS.is_binary and ALT.is_binary
        assert dc.ModelSpec.constant(1.0).is_binary
        assert not dc.ModelSpec.constant(2.0).is_binary
        assert dc.ModelSpec.periodic((1.0, -1.0, -1.0)).is_binary
        assert not dc.ModelSpec.periodic((0.5, 1.0)).is_binary
        assert dc.ModelSpec.bernoulli(0.2, 1).is_binary

    def test_shapes(self):
        """Each model is a cycle, the Rudin-Shapiro signs, or a coin over a +-1 base."""
        coin = dc.ModelSpec.bernoulli(0.2, 1)
        rsb = dc.ModelSpec.bernoullised(RS, 0.2, 1)
        assert dc.ModelSpec.constant(-2.5).cycle == (-2.5,)
        assert ALT.cycle == (1.0, -1.0)
        assert dc.ModelSpec.periodic((0.5, 2, -1)).cycle == (0.5, 2.0, -1.0)
        assert RS.cycle is None and coin.cycle is None and rsb.cycle is None
        assert coin.coin_base == dc.ModelSpec.constant(1.0) and rsb.coin_base == RS
        assert all(spec.coin_base is None for spec in catalogue() if not spec.is_stochastic)

    @pytest.mark.parametrize("w", [0.0, -0.0, 2.0**-128, -(2.0**-128), 2.0**128, -(2**128)])
    def test_weight_range_edges_are_accepted(self, w):
        assert dc.ModelSpec.constant(w).w == w
        assert dc.ModelSpec.periodic((1.0, w)).pattern == (1.0, w)

    @pytest.mark.parametrize("w", [2.0**128 * (1 + 2**-52), -(2.0**129), 2.0**-129, -1e-200, 1e200,
                                   5e-324])
    def test_weight_outside_the_range_is_refused(self, w):
        message = r"must be 0 or of magnitude in \[2\*\*-128, 2\*\*128\]"
        with pytest.raises(ValueError, match="w " + message):
            dc.ModelSpec.constant(w)
        with pytest.raises(ValueError, match="pattern entries " + message):
            dc.ModelSpec.periodic((1.0, 0.0, w))


class TestEnsemble:
    BUDGET = 64 * 100  # ensemble budget at a window cap of 100

    def test_deterministic_spec_is_its_own_ensemble(self):
        assert combs.ensemble(RS, None, 9) == (RS,)
        assert combs.ensemble(RS, [], 9) == (RS,)

    def test_one_copy_per_seed(self):
        spec = dc.ModelSpec.bernoulli(0.5, 1)
        assert [s.seed for s in combs.ensemble(spec, (4, 2, 4), 9)] == [4, 2, 4]
        assert [s.seed for s in combs.ensemble(spec, None, 9)] == list(dc.DEFAULT_SEEDS)
        assert all(s.p == 0.5 and s.model == "bernoulli" for s in combs.ensemble(spec, [3], 9))

    @pytest.mark.parametrize("seeds", [(), [], iter(())])
    def test_empty_seed_list_is_refused(self, seeds):
        with pytest.raises(ValueError, match="seed list must be nonempty"):
            combs.ensemble(dc.ModelSpec.bernoulli(0.5, 1), seeds, 9)

    @pytest.mark.parametrize("seeds,count", [
        (range(10**15), 10**15),
        (range(2**64), BUDGET // 9 + 1),  # len() overflows; drawn one past the budget
    ])
    def test_range_is_refused_without_expanding(self, monkeypatch, seeds, count):
        monkeypatch.setenv("DIFFCOMB_MAX_WINDOW", "100")
        with pytest.raises(dc.ResourceLimitError, match=f"^{count} seeds x 9 sites exceed"):
            combs.ensemble(dc.ModelSpec.bernoulli(0.5, 1), seeds, 9)

    def test_unsized_seeds_are_drawn_one_past_the_budget(self, monkeypatch):
        monkeypatch.setenv("DIFFCOMB_MAX_WINDOW", "100")
        drawn = []

        def seeds():
            for seed in range(10**6):
                drawn.append(seed)
                yield seed

        with pytest.raises(dc.ResourceLimitError, match="712 seeds x 9 sites"):
            combs.ensemble(dc.ModelSpec.bernoulli(0.5, 1), seeds(), 9)
        assert len(drawn) == self.BUDGET // 9 + 1
        assert len(combs.ensemble(dc.ModelSpec.bernoulli(0.5, 1), iter(range(711)), 9)) == 711

    def test_invalid_seed_is_refused(self):
        with pytest.raises(ValueError, match="seed must fit in 64 bits"):
            combs.ensemble(dc.ModelSpec.bernoulli(0.5, 1), [1, -1], 9)


def test_public_names_resolve_once():
    """Each public name is the object of the one module that defines it; classes and
    functions also name that module as theirs."""
    assert len(dc.__all__) == len(set(dc.__all__)) == 42
    assert sorted(dc.__all__) == sorted(name for names in dc._EXPORTS.values() for name in names)
    for module, names in dc._EXPORTS.items():
        defining = importlib.import_module(f"diffcomb.{module}")
        assert getattr(dc, module) is defining
        for name in names:
            value = getattr(dc, name)
            assert value is getattr(defining, name), name
            assert getattr(value, "__module__", defining.__name__) == defining.__name__, name
    assert dc.DEFAULT_SEEDS is combs.DEFAULT_SEEDS


LOADED = "sorted(name for name in sys.modules if name.split('.')[0] == 'diffcomb')"


@pytest.mark.parametrize("code,expected", [
    # a bare import loads no submodule
    (f"import diffcomb; out = {LOADED}", ["diffcomb"]),
    # a name loads the module that defines it, and what that module imports
    (f"from diffcomb import ModelSpec; out = {LOADED}",
     ["diffcomb", "diffcomb._util", "diffcomb.combs"]),
    # an unknown name is an AttributeError (so hasattr is false), and loads nothing
    ("import diffcomb\ntry: diffcomb.no_such_name\nexcept AttributeError as exc: out = str(exc)\n"
     f"out = [out, hasattr(diffcomb, 'generate'), {LOADED}]",
     ["module 'diffcomb' has no attribute 'no_such_name'", False, ["diffcomb"]]),
    ("import diffcomb; out = sorted(set(diffcomb.__all__) - set(dir(diffcomb)))", []),
    # a table module resolves after a bare import, as the module itself
    ("import diffcomb; out = diffcomb.spectra is sys.modules['diffcomb.spectra']", True),
], ids=["bare-import", "one-name", "unknown-name", "dir", "table-module"])
def test_namespace_in_a_fresh_interpreter(code, expected):
    """Run in its own interpreter, so no import made by another test is seen."""
    env = {**os.environ, "PYTHONPATH": str(Path(dc.__file__).parents[1])}
    script = f"import json, sys\n{code}\nprint(json.dumps(out))"
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, check=True)
    assert json.loads(run.stdout) == expected


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
            assert bool(np.all(np.abs(win.weights) == 1.0)) == spec.is_binary

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
    """A bernoullised window is its base's window with the stream's signs flipped."""

    def test_matches_model_generation(self):
        base = dc.generate_window(RS, -300, 300).weights
        kept = dc.index_uniforms(17, -300, 300) < 0.25
        model = dc.generate_window(dc.ModelSpec.bernoullised(RS, 0.25, 17), -300, 300)
        assert np.array_equal(model.weights, np.where(kept, base, -base))

    def test_degenerate_p(self):
        base = dc.generate_window(ALT, -50, 50).weights
        kept = dc.generate_window(dc.ModelSpec.bernoullised(ALT, 1.0, 5), -50, 50)
        assert np.array_equal(kept.weights, base)
        flipped = dc.generate_window(dc.ModelSpec.bernoullised(ALT, 0.0, 5), -50, 50)
        assert np.array_equal(flipped.weights, -base)

    @pytest.mark.parametrize("n", [-(2**16) - 3, 5, 2**16 + 7])
    def test_a_variate_equal_to_p_flips_the_sign(self, n):
        """The sign is kept only where the variate is strictly below p."""
        p = float(dc.index_uniforms(21, n, n)[0])
        neighbours = dc.index_uniforms(21, n - 1, n + 1)
        coin = dc.generate_window(dc.ModelSpec.bernoulli(p, 21), n - 1, n + 1).weights
        assert coin.tolist() == np.where(neighbours < p, 1.0, -1.0).tolist()
        assert coin[1] == -1.0
        base = dc.rs_weight(n)
        assert dc.generate_window(dc.ModelSpec.bernoullised(RS, p, 21), n, n).weights[0] == -base

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_constant_base(self, sign):
        """A base of one repeated weight scales the signs of the bernoulli comb."""
        spec = dc.ModelSpec.bernoullised(dc.ModelSpec.constant(sign), 0.3, 8)
        coin = dc.generate_window(dc.ModelSpec.bernoulli(0.3, 8), -60, 60).weights
        assert np.array_equal(dc.generate_window(spec, -60, 60).weights, sign * coin)

    def test_flip_fraction_near_half_at_p_half(self):
        # independent count of disagreeing signs
        base = dc.generate_window(RS, -(2**15), 2**15)
        flipped = dc.generate_window(dc.ModelSpec.bernoullised(RS, 0.5, 123), -(2**15), 2**15)
        fraction = np.mean(base.weights != flipped.weights)
        assert abs(fraction - 0.5) <= 0.02

    def test_peak_memory_of_a_bernoullised_window(self):
        """The window is filled block by block, base then coin, so its peak is its own
        bytes plus one block's scratch (1.27 window sizes here, about 4 built whole)."""
        spec = dc.ModelSpec.bernoullised(RS, 0.25, 3)
        assert window_peak(spec) < 1.5


def window_peak(spec):
    """tracemalloc peak of generating a 2**21 + 1-site window, in window sizes."""
    tracemalloc.start()
    try:
        window = dc.generate_window(spec, -(2**20), 2**20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(window) == 2**21 + 1
    return peak / window.weights.nbytes


def oracle_weight(spec, n):
    """w(n) from the per-index rules of each model name: the cycle formula, rs_weight
    and the stream contract's stream_uniform."""
    if spec.model == "constant":
        return spec.w
    if spec.model == "alternating":
        return 1.0 - 2 * (n % 2)
    if spec.model == "periodic":
        return spec.pattern[n % len(spec.pattern)]
    if spec.model == "rudin_shapiro":
        return float(dc.rs_weight(n))
    base = 1.0 if spec.model == "bernoulli" else oracle_weight(spec.base, n)
    return base if stream_uniform(spec.seed, n) < spec.p else -base


# Every model, with bernoullised over RS, over the alternating and over a periodic pattern.
BLOCK_MODELS = [*catalogue(seed=12), dc.ModelSpec.bernoullised(
    dc.ModelSpec.periodic((1.0, -1.0, -1.0, 1.0, -1.0)), 0.6, 2**64 - 2)]
BINARY_BLOCK_MODELS = [spec for spec in BLOCK_MODELS if spec.is_binary]


class TestBlocks:
    """A window is filled in blocks of _CHUNK sites; every block, seam and tail
    holds the per-index weights, for windows shorter, as long and longer than a
    block, starting at negative and positive indices."""

    @staticmethod
    def windows(chunk):
        for length in (chunk - 1, chunk, chunk + 1, 3 * chunk + 5):
            for first in (-3 * chunk - 2, chunk + 3):
                yield first, first + length - 1

    @pytest.mark.parametrize("spec", BLOCK_MODELS, ids=lambda spec: spec.model)
    def test_block_seams_match_the_oracles(self, spec):
        chunk = combs._CHUNK
        rng = np.random.default_rng(0)
        for first, last in self.windows(chunk):
            weights = dc.generate_window(spec, first, last).weights
            size = last - first + 1
            seams = [start + d for start in range(0, size + 1, chunk) for d in (-2, -1, 0, 1)]
            offsets = sorted({i for i in seams if 0 <= i < size} | {*rng.integers(0, size, 40)})
            expected = [oracle_weight(spec, first + int(i)) for i in offsets]
            assert weights[offsets].tolist() == expected, (first, last)

    @pytest.mark.parametrize("spec", BLOCK_MODELS, ids=lambda spec: spec.model)
    def test_blocks_of_seven_sites_match_the_oracles(self, monkeypatch, spec):
        monkeypatch.setattr(combs, "_CHUNK", 7)
        for first, last in self.windows(7):
            expected = [oracle_weight(spec, n) for n in range(first, last + 1)]
            assert dc.generate_window(spec, first, last).weights.tolist() == expected

    @pytest.mark.parametrize("spec", [
        dc.ModelSpec.periodic(tuple(np.arange(23.0) - 11.0)),
        dc.ModelSpec.bernoullised(
            dc.ModelSpec.periodic(np.random.default_rng(6).choice([-1.0, 1.0], 23)), 0.4, 5),
    ], ids=["periodic", "bernoullised"])
    def test_a_cycle_longer_than_a_block(self, monkeypatch, spec):
        """Blocks of 7 sites are slices of a 23-entry cycle at every phase, in
        the window and in its sign bits."""
        monkeypatch.setattr(combs, "_CHUNK", 7)
        for first, last in [*self.windows(7), (-100, 100)]:
            expected = [oracle_weight(spec, n) for n in range(first, last + 1)]
            assert dc.generate_window(spec, first, last).weights.tolist() == expected
            bits = np.packbits(np.array(expected) < 0, bitorder="little")
            assert np.array_equal(combs._sign_bits(spec, first, last), bits)

    @pytest.mark.parametrize("spec", [
        RS, dc.ModelSpec.periodic((1.0, 2.0, -1.0)), dc.ModelSpec.bernoulli(0.3, 3),
    ], ids=lambda spec: spec.model)
    def test_peak_memory_of_a_window(self, spec):
        """Its own bytes plus one block's scratch: 1.07, 1.03 and 1.10 window sizes."""
        assert window_peak(spec) < 1.5


# Rudin-Shapiro, a coin over it and a coin over a 23-entry +-1 cycle.
SIGN_BIT_MODELS = [RS, dc.ModelSpec.bernoullised(RS, 0.4, 2**64 - 1), dc.ModelSpec.bernoullised(
    dc.ModelSpec.periodic(np.random.default_rng(6).choice([-1.0, 1.0], 23)), 0.4, 5)]
SIGN_BIT_IDS = ["rudin_shapiro", "bernoullised", "bernoullised-cycle"]


class TestSignBits:
    """The +-1 estimator's packed sign bits, streamed block by block, are the bytes
    of np.packbits(window < 0, bitorder="little") of the generated window and of
    the scalar oracles' weights."""

    @staticmethod
    def packed(spec, first, last):
        return np.packbits(dc.generate_window(spec, first, last).weights < 0, bitorder="little")

    @pytest.mark.parametrize("spec", BINARY_BLOCK_MODELS, ids=lambda spec: spec.model)
    def test_blocks_match_the_packed_window(self, spec):
        for first, last in TestBlocks.windows(combs._CHUNK):
            assert np.array_equal(combs._sign_bits(spec, first, last), self.packed(spec, first, last))

    @pytest.mark.parametrize("chunk,draw", [(7, 3), (16, 1), (20, 64)])
    @pytest.mark.parametrize("spec", BINARY_BLOCK_MODELS, ids=lambda spec: spec.model)
    def test_small_blocks_and_draws_match_the_packed_window(self, monkeypatch, spec, chunk, draw):
        # lengths of every residue mod 8 and 64, from negative and positive starts
        ranges = [(first, first + length - 1)
                  for first in (-70, -3, 5) for length in (1, 7, 8, 9, 63, 64, 65, 100, 129)]
        expected = [self.packed(spec, first, last) for first, last in ranges]
        monkeypatch.setattr(combs, "_CHUNK", chunk)
        monkeypatch.setattr(combs, "_DRAW", draw)
        for (first, last), bits in zip(ranges, expected):
            assert np.array_equal(combs._sign_bits(spec, first, last), bits), (first, last)

    @pytest.mark.parametrize("chunk,draw", [(7, 3), (combs._CHUNK, combs._DRAW)])
    @pytest.mark.parametrize("spec", SIGN_BIT_MODELS, ids=SIGN_BIT_IDS)
    def test_lattice_edges_match_the_packed_window(self, monkeypatch, spec, chunk, draw):
        ranges = [(-LATTICE_EDGE, -LATTICE_EDGE + 100), (LATTICE_EDGE - 100, LATTICE_EDGE),
                  (-LATTICE_EDGE, -LATTICE_EDGE), (LATTICE_EDGE, LATTICE_EDGE)]
        expected = [self.packed(spec, first, last) for first, last in ranges]
        monkeypatch.setattr(combs, "_CHUNK", chunk)
        monkeypatch.setattr(combs, "_DRAW", draw)
        for (first, last), bits in zip(ranges, expected):
            assert np.array_equal(combs._sign_bits(spec, first, last), bits), (first, last)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        spec=st.sampled_from(SIGN_BIT_MODELS),
        first=st.one_of(st.integers(-150, 20), st.integers(-LATTICE_EDGE, -LATTICE_EDGE + 150),
                        st.integers(LATTICE_EDGE - 150, LATTICE_EDGE)),
        length=st.integers(1, 150),
        chunk=st.sampled_from([7, 8, 16, 64, combs._CHUNK]),
        draw=st.sampled_from([1, 3, 7, 64, combs._DRAW]),
    )
    @example(spec=SIGN_BIT_MODELS[1], first=-70, length=141, chunk=16, draw=3)
    @example(spec=SIGN_BIT_MODELS[2], first=LATTICE_EDGE - 40, length=41, chunk=7, draw=1)
    def test_bits_match_the_scalar_oracles(self, spec, first, length, chunk, draw):
        """Across 0, block and draw seams and the lattice edges, against rs_weight and
        the stream contract computed by the independent Philox."""
        last = min(first + length - 1, LATTICE_EDGE)
        oracle = [oracle_weight(spec, n) < 0 for n in range(first, last + 1)]
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(combs, "_CHUNK", chunk)
            monkeypatch.setattr(combs, "_DRAW", draw)
            bits = combs._sign_bits(spec, first, last)
        assert np.array_equal(bits, np.packbits(oracle, bitorder="little")), (first, last)

    @pytest.mark.parametrize("spec", SIGN_BIT_MODELS, ids=SIGN_BIT_IDS)
    def test_peak_memory_of_the_bits(self, spec):
        """2**21 sites hold 256 KiB of bits plus one block's scratch: below the 2 MiB of a
        whole-window bool mask, and far below its 16 MiB of floats."""
        tracemalloc.start()
        try:
            bits = combs._sign_bits(spec, -(2**20), 2**20 - 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bits.nbytes == 2**18
        assert peak < 2**21


WEIGHTS = st.one_of(
    st.just(0.0), st.floats(2.0**-128, 2.0**128), st.floats(-(2.0**128), -(2.0**-128))
)


class TestCollapsedModels:
    """constant, alternating and bernoulli, which share the cycle and coin paths,
    against their literal formulas: window, coefficients and point masses."""

    M = 3

    def check_constant(self, w):
        spec = dc.ModelSpec.constant(w)
        assert np.array_equal(dc.generate_window(spec, -5, 6).weights, np.full(12, w))
        assert dc.analytic_autocorrelation(spec, self.M).eta.tolist() == [w * w] * (2 * self.M + 1)
        measure = dc.analytic_diffraction(spec)
        assert measure.bragg == (((0.0, w * w),) if w != 0 else ())
        assert measure.ac_level == 0.0

    @settings(max_examples=100, deadline=None)
    @given(w=WEIGHTS)
    def test_constant(self, w):
        self.check_constant(w)

    # 3.042594094325597e30: its square rounded correctly (w * w) and by pow (w**2)
    # differ by one ulp, and in the 12th digit.
    @pytest.mark.parametrize("w", [1.0, -2.5, 0.0, 2.0**-128, -(2.0**128), 3.042594094325597e30])
    def test_constant_fixed(self, w):
        self.check_constant(w)

    def test_alternating(self):
        lags = range(-self.M, self.M + 1)
        eta = dc.analytic_autocorrelation(ALT, self.M).eta
        assert eta.tolist() == [1.0 if m % 2 == 0 else -1.0 for m in lags]
        assert dc.analytic_diffraction(ALT) == dc.SpectralMeasure(((0.5, 1.0),), 0.0)

    def check_bernoulli(self, p, seed):
        spec = dc.ModelSpec.bernoulli(p, seed)
        window = dc.generate_window(spec, -40, 40).weights
        assert np.array_equal(window, np.where(dc.index_uniforms(seed, -40, 40) < p, 1.0, -1.0))
        point = (2 * p - 1) ** 2
        eta = dc.analytic_autocorrelation(spec, self.M).eta
        assert eta.tolist() == [point] * self.M + [1.0] + [point] * self.M
        measure = dc.analytic_diffraction(spec)
        assert measure.bragg == (((0.0, point),) if p != 0.5 else ())
        assert measure.ac_level == 4 * p * (1 - p)

    @settings(max_examples=100, deadline=None)
    @given(p=st.floats(0.0, 1.0), seed=st.integers(0, 2**64 - 1))
    def test_bernoulli(self, p, seed):
        self.check_bernoulli(p, seed)

    @pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 0.5 + 2**-53, 1.0])
    def test_bernoulli_fixed(self, p):
        self.check_bernoulli(p, 7)


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

    @pytest.mark.parametrize("seed", [0, 5, 12345678901234567, 2**64 - 1])
    def test_matches_independent_philox(self, seed):
        """Single indices, and the same indices inside one window spanning several chunks."""
        indices = [-70000, -65537, -1, 0, 1, 65535, 65536, 70000]
        expected = [stream_uniform(seed, n) for n in indices]
        assert [dc.index_uniforms(seed, n, n)[0] for n in indices] == expected
        window = dc.index_uniforms(seed, -70000, 70000)
        assert window[np.array(indices) + 70000].tolist() == expected

    def test_small_draws_match_one_draw(self, monkeypatch):
        # each call advances the stream to its own first index
        whole = dc.index_uniforms(5, -40, 60)
        monkeypatch.setattr(combs, "_DRAW", 7)
        assert np.array_equal(dc.index_uniforms(5, -40, 60), whole)
        assert np.array_equal(dc.index_uniforms(5, -3, 4), whole[37:45])


# The probabilities of the keep rule's edge cases: 0, 1, the smallest subnormal,
# one ulp of a variate, one variate below 1, the neighbours of a dyadic 1/4, and
# one irrational.
KEEP_RULE_PS = [0.0, 1.0, 5e-324, 2.0**-53, 1 - 2.0**-53,
                float(np.nextafter(0.25, 0.0)), float(np.nextafter(0.25, 1.0)), math.sqrt(2) - 1]


class TestSigns:
    """The coin's flips, read off the raw words as word >= ceil(p * 2**53) * 2**11,
    against the stream contract's float rule: variate (word >> 11) * 2**-53 >= p."""

    @staticmethod
    def flips_of(monkeypatch, p, words):
        """The flips of p on the given raw words in place of the stream's."""
        chosen = np.array(words, dtype=np.uint64)
        monkeypatch.setattr(combs, "_words", lambda seed, first, count: iter([(0, chosen)]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # nothing overflows, at p = 1 neither
            return combs._flips(dc.ModelSpec.bernoulli(p, 0), 0, chosen.size).tolist()

    @staticmethod
    def float_rule(p, words):
        return [(word >> 11) * 2.0**-53 >= p for word in words]

    @pytest.mark.parametrize("p", KEEP_RULE_PS)
    def test_threshold_on_chosen_words(self, monkeypatch, p):
        limit = math.ceil(Fraction(p) * 2**53) * 2**11
        words = [w for w in (limit - 1, limit, 0, 2**64 - 1) if 0 <= w < 2**64]
        assert self.flips_of(monkeypatch, p, words) == self.float_rule(p, words)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(p=st.floats(0.0, 1.0), words=st.lists(st.integers(0, 2**64 - 1), max_size=8))
    def test_threshold_on_random_words(self, p, words):
        with pytest.MonkeyPatch.context() as monkeypatch:
            assert self.flips_of(monkeypatch, p, words) == self.float_rule(p, words)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**64 - 1),
        p=st.one_of(st.sampled_from(KEEP_RULE_PS), st.floats(0.0, 1.0)),
        first=st.one_of(st.integers(-40, 10), st.integers(-LATTICE_EDGE, -LATTICE_EDGE + 60),
                        st.integers(LATTICE_EDGE - 60, LATTICE_EDGE)),
        length=st.integers(1, 60),
        draw=st.sampled_from([1, 3, 7, 20, 64, combs._DRAW]),
    )
    @example(seed=5, p=0.25, first=-LATTICE_EDGE, length=9, draw=3)
    @example(seed=2**64 - 1, p=0.75, first=LATTICE_EDGE - 8, length=9, draw=3)
    @example(seed=0, p=0.5, first=-10, length=21, draw=7)
    def test_stream_flips_where_the_variate_is_not_below_p(self, seed, p, first, length, draw):
        """On ranges across 0, across draw seams and at the lattice edges; p is also
        set to a variate of the range, which that site must flip."""
        last = min(first + length - 1, LATTICE_EDGE)
        variates = dc.index_uniforms(seed, first, last)
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(combs, "_DRAW", draw)
            for q in (p, float(variates[variates.size // 2])):
                flips = combs._flips(dc.ModelSpec.bernoulli(q, seed), first, variates.size)
                assert flips.dtype == bool
                assert np.array_equal(flips, variates >= q), (q, first, last)


def _cap_of(monkeypatch, raw):
    monkeypatch.setenv(dc.MAX_WINDOW_ENV, raw)
    return dc.max_window_length()


# Every size or count argument, with a value one below the least it allows.
COUNT_REFUSALS = {
    "window-cap": (lambda mp: _cap_of(mp, "0"), "DIFFCOMB_MAX_WINDOW must be positive, got 0"),
    "empirical-N": (lambda mp: dc.empirical_autocorrelation(RS, 0, 4),
                    "window half-size N must be positive, got 0"),
    "empirical-M": (lambda mp: dc.empirical_autocorrelation(RS, 4, -1),
                    "max lag M must be nonnegative, got -1"),
    "analytic-M": (lambda mp: dc.analytic_autocorrelation(RS, -1),
                   "max lag M must be nonnegative, got -1"),
    "verify-rs-max-index": (lambda mp: dc.verify_rs_recursions(0),
                            "max_index must be positive, got 0"),
    "periodogram-N": (lambda mp: dc.periodogram(RS, 0, 8),
                      "window half-size N must be positive, got 0"),
    "periodogram-G": (lambda mp: dc.periodogram(RS, 4, 0), "grid size G must be positive, got 0"),
    # the first bad size is named
    "bragg-N": (lambda mp: dc.bragg_weight(RS, 0, [-2, 0, 4]),
                "window half-size N must be positive, got -2"),
    "bins": (lambda mp: dc.binned_measure(dc.periodogram(RS, 4, 8), 0),
             "bins must be positive, got 0"),
    "block-entropy-k": (lambda mp: dc.block_entropy(RS, 4096, 0),
                        "block length k must be positive, got 0"),
    "block-entropy-N": (lambda mp: dc.block_entropy(RS, 0, 2),
                        "window half-size N must be positive, got 0"),
    "patch-L-max": (lambda mp: dc.patch_complexity(RS, 4096, 0), "L_max must be positive, got 0"),
    "patch-N": (lambda mp: dc.patch_complexity(RS, 0, 2),
                "window half-size N must be positive, got 0"),
}


@pytest.mark.parametrize("call,message", COUNT_REFUSALS.values(), ids=COUNT_REFUSALS)
def test_every_count_is_refused_by_one_rule(monkeypatch, call, message):
    with pytest.raises(ValueError) as refused:
        call(monkeypatch)
    assert str(refused.value) == message


# Every size or count argument given a value that is not an integer: a float, a bool, a str.
NON_INTEGER_COUNTS = {
    "empirical-N": (lambda: dc.empirical_autocorrelation(RS, 4.0, 4),
                    "window half-size N must be an integer, got 4.0"),
    "empirical-M": (lambda: dc.empirical_autocorrelation(RS, 4, True),
                    "max lag M must be an integer, got True"),
    "analytic-M": (lambda: dc.analytic_autocorrelation(RS, "4"), "max lag M must be an integer, got '4'"),
    "verify-rs-max-index": (lambda: dc.verify_rs_recursions(8.0), "max_index must be an integer, got 8.0"),
    "periodogram-N": (lambda: dc.periodogram(RS, 4.5, 8), "window half-size N must be an integer, got 4.5"),
    "periodogram-G": (lambda: dc.periodogram(RS, 4, np.float64(8)),
                      "grid size G must be an integer, got np.float64(8.0)"),
    # a size is not truncated: 4.5 is refused, not read as 4
    "bragg-N": (lambda: dc.bragg_weight(RS, 0, [4.5, 8]), "window half-size N must be an integer, got 4.5"),
    "bragg-N-bool": (lambda: dc.bragg_weight(RS, 0, [True, 8]),
                     "window half-size N must be an integer, got True"),
    "bins": (lambda: dc.binned_measure(dc.periodogram(RS, 4, 8), 2.0), "bins must be an integer, got 2.0"),
    "block-entropy-k": (lambda: dc.block_entropy(RS, 4096, "2"), "block length k must be an integer, got '2'"),
    "patch-L-max": (lambda: dc.patch_complexity(RS, 4096, 2.0), "L_max must be an integer, got 2.0"),
}


@pytest.mark.parametrize("call,message", NON_INTEGER_COUNTS.values(), ids=NON_INTEGER_COUNTS)
def test_every_non_integer_count_is_refused(call, message):
    with pytest.raises(ValueError) as refused:
        call()
    assert str(refused.value) == message


def test_numpy_integer_counts_are_accepted():
    est = dc.bragg_weight(RS, 0, np.array([4, 8]))
    assert est.entries == dc.bragg_weight(RS, 0, [4, 8]).entries
    assert all(type(N) is int for N, _ in est.entries)
    pg = dc.periodogram(RS, np.int64(4), np.int32(8))
    assert np.array_equal(pg.intensities, dc.periodogram(RS, 4, 8).intensities)
