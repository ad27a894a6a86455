"""Binary Dirac comb models on the integer lattice.

A model assigns a real scattering weight w(n) to every integer n.  This is
the one module that knows the six model names; the others read a model's
shape: a cycle of weights repeated from n = 0 (ModelSpec.cycle: periodic,
constant, alternating), the Rudin-Shapiro signs, or a coin that flips the
signs of a deterministic +-1 base (ModelSpec.coin_base: bernoullised, and
bernoulli over the constant 1).  The coin reads a counter-based random
stream keyed by (seed, index), so two windows of the same model agree
wherever their ranges overlap, no matter in which order or chunking they
were produced.

Stream contract, fixed per release: for seed s, lattice index n reads the
Philox4x64-10 block at counter 2**64 + n + 1 under the key (s, 0) (numpy's
Philox, advanced by 2**64 + n, increments its counter before each block);
the first 64-bit word of that block, mapped into [0, 1) as
(word >> 11) * 2**-53, is the uniform variate for n.  The sign at n is kept
exactly when the variate is < p: in integers, when word < ceil(p * 2**53) * 2**11,
so the coin's flips are the bool mask word >= that limit of the raw words (_flips).

Lattice domain: every window lies inside |n| < 2**62 (LATTICE_BOUND), so
indices and index sums such as n + M stay exact in int64.

Weights: a nonzero w or pattern entry has a magnitude in [2**-128, 2**128]
(WEIGHT_RANGE), so all derived values stay finite and every w * w is normal.

Memory: generate_window allocates a window once and fills it in blocks of
_CHUNK = 2**16 sites, each by its shape's rule on the block's own indices, so
a window costs its own 8 bytes per site plus one block's scratch, whatever its
length; a cycle's block is a slice of its repeats, made once (_cycle_blocks).
A +-1 model's rule is its bool mask of negative signs (_negatives): other window
blocks are 1 - 2 * mask, and _sign_bits packs the mask into bits for the +-1
correlation kernel, with no float made.  The coin draws its Philox words _DRAW =
2**12 sites at a time, so the draw buffer stays small enough for the allocator to reuse.

Specs: ModelSpec's constructor is the one check of every field (name, the
fields the model takes, types, ranges); from_json only reads the JSON shape,
so a spec built in code follows the same rules as one read from JSON.

Seed ensembles: ensemble() makes one copy of a stochastic spec per seed,
DEFAULT_SEEDS (1..50) when a run names none.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from ._util import write_table

# Seed applied when a model JSON omits one.
DEFAULT_SEED = 1
# Ensemble seeds used when a stochastic run does not name its own.
DEFAULT_SEEDS = tuple(range(1, 51))

# The fields each model takes, in to_json order, each with the default that
# from_json applies when the JSON omits it (None: the field is required).
# A model is stochastic exactly when it takes a seed.
_FIELDS = {
    "constant": {"w": 1.0},
    "periodic": {"pattern": None},
    "alternating": {},
    "rudin_shapiro": {},
    "bernoulli": {"p": 0.5, "seed": DEFAULT_SEED},
    "bernoullised": {"p": 0.5, "seed": DEFAULT_SEED, "base": None},
}
MODEL_NAMES = tuple(_FIELDS)
_FIELD_NAMES = ("w", "pattern", "p", "seed", "base")

LATTICE_BOUND = 1 << 62
WEIGHT_RANGE = (2.0**-128, 2.0**128)

MAX_WINDOW_ENV = "DIFFCOMB_MAX_WINDOW"
DEFAULT_MAX_WINDOW = 1 << 22
# Sites a seed ensemble may generate in all (seeds x sites per seed), in window caps.
ENSEMBLE_WORK_FACTOR = 64


class ResourceLimitError(ValueError):
    """A requested window is longer than the configured cap."""


def max_window_length() -> int:
    """Current window-length cap (env var DIFFCOMB_MAX_WINDOW, default 2**22)."""
    raw = os.environ.get(MAX_WINDOW_ENV)
    if raw is None:
        return DEFAULT_MAX_WINDOW
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"{MAX_WINDOW_ENV} must be an integer, got {raw!r}") from None
    _check_count(MAX_WINDOW_ENV, cap)
    return cap


def _check_count(name: str, value: int, least: int = 1) -> int:
    """int(value), refusing a size or count that is not an integer (a bool is not, an
    np.integer is) or is below least (1: positive, 0: nonnegative)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be {'positive' if least else 'nonnegative'}, got {value}")
    return int(value)


def _check_window_length(length: int) -> None:
    cap = max_window_length()
    if length > cap:
        raise ResourceLimitError(
            f"window of length {length} exceeds the cap of {cap}"
            f" (raise {MAX_WINDOW_ENV} to allow it)"
        )


def _ensemble_budget() -> int:
    return ENSEMBLE_WORK_FACTOR * max_window_length()


def _check_work(count: int, unit: str, sites: int, kind: str) -> None:
    """Refuse count passes of sites each beyond ENSEMBLE_WORK_FACTOR window caps."""
    budget = _ensemble_budget()
    if count * sites > budget:
        raise ResourceLimitError(
            f"{count} {unit} x {sites} sites exceed the {kind} budget of {budget} sites"
            f" ({ENSEMBLE_WORK_FACTOR} window caps; raise {MAX_WINDOW_ENV} to allow it)"
        )


def _check_probability(p) -> None:
    if not isinstance(p, (int, float)) or isinstance(p, bool) or not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be a probability in [0, 1], got {p!r}")


def _check_weights(name: str, values: tuple[float, ...]) -> None:
    magnitude = np.abs(values)
    if not np.isfinite(magnitude).all():
        raise ValueError(f"{name} must be finite")
    outside = (magnitude != 0.0) & ((magnitude < WEIGHT_RANGE[0]) | (magnitude > WEIGHT_RANGE[1]))
    if outside.any():
        raise ValueError(f"{name} must be 0 or of magnitude in [2**-128, 2**128],"
                         f" got {values[outside.argmax()]!r}")


def _check_tolerance(tol) -> None:
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tolerance must be finite and nonnegative, got {tol}")


def _number(name: str, value) -> float:
    """value as a float; a bool or a str is not a number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is out of range, got {value}") from None


def _numbers(name: str, values) -> tuple[float, ...]:
    """tuple(_number(name, x) for x in values), in one pass when no entry needs its rule."""
    if set(map(type, values)) <= {int, float}:
        try:
            return tuple(map(float, values))
        except OverflowError:
            pass
    return tuple(_number(name, x) for x in values)


def _check_seed(seed) -> None:
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must fit in 64 bits, got {seed}")


@dataclass(frozen=True)
class ModelSpec:
    """Tagged description of a comb model.

    Equal specs (including seeds) generate identical windows, which is what
    makes runs reproducible end to end.
    """

    model: str
    w: float | None = None
    pattern: tuple[float, ...] | None = None
    p: float | None = None
    seed: int | None = None
    base: "ModelSpec | None" = None

    def __post_init__(self):
        if self.model not in MODEL_NAMES:
            raise ValueError(f"unknown model {self.model!r}; expected one of {MODEL_NAMES}")
        allowed = _FIELDS[self.model]
        for name in _FIELD_NAMES:
            value = getattr(self, name)
            if name in allowed:
                if value is None:
                    raise ValueError(f"{self.model} model requires {name!r}")
            elif value is not None:
                raise ValueError(f"{self.model} model does not take {name!r}")
        if self.w is not None:
            object.__setattr__(self, "w", _number("w", self.w))
            _check_weights("w", (self.w,))
        if self.pattern is not None:
            if not isinstance(self.pattern, (list, tuple)):
                raise ValueError(f"pattern must be a list of numbers, got {self.pattern!r}")
            object.__setattr__(self, "pattern", _numbers("pattern entry", self.pattern))
            if not self.pattern:
                raise ValueError("pattern must be nonempty")
            _check_weights("pattern entries", self.pattern)
        if self.p is not None:
            object.__setattr__(self, "p", _number("p", self.p))
            _check_probability(self.p)
        if self.seed is not None:
            _check_seed(self.seed)
        if self.base is not None:
            if not isinstance(self.base, ModelSpec):
                raise ValueError(f"base must be a ModelSpec, got {self.base!r}")
            if self.base.is_stochastic:
                raise ValueError("bernoullised base must be deterministic")
            if not self.base.is_binary:
                raise ValueError("bernoullised base must take values in {+1, -1}")

    @property
    def is_stochastic(self) -> bool:
        return "seed" in _FIELDS[self.model]

    @property
    def cycle(self) -> tuple[float, ...] | None:
        """The weights the model repeats from n = 0 on, or None when it has no cycle."""
        return {"constant": (self.w,), "alternating": (1.0, -1.0)}.get(self.model, self.pattern)

    @property
    def coin_base(self) -> "ModelSpec | None":
        """The deterministic +-1 model whose signs the coin flips, or None."""
        return ModelSpec.constant(1.0) if self.model == "bernoulli" else self.base

    @property
    def is_binary(self) -> bool:
        """True when every weight of the model lies in {+1, -1}."""
        return self.cycle is None or all(x in (1.0, -1.0) for x in self.cycle)

    @classmethod
    def constant(cls, w: float) -> "ModelSpec":
        return cls("constant", w=w)

    @classmethod
    def periodic(cls, pattern) -> "ModelSpec":
        """A periodic spec; a numpy array is read as the list of its entries."""
        return cls("periodic", pattern=pattern.tolist() if isinstance(pattern, np.ndarray) else pattern)

    @classmethod
    def alternating(cls) -> "ModelSpec":
        return cls("alternating")

    @classmethod
    def rudin_shapiro(cls) -> "ModelSpec":
        return cls("rudin_shapiro")

    @classmethod
    def bernoulli(cls, p: float, seed: int) -> "ModelSpec":
        return cls("bernoulli", p=p, seed=seed)

    @classmethod
    def bernoullised(cls, base: "ModelSpec", p: float, seed: int) -> "ModelSpec":
        return cls("bernoullised", p=p, seed=seed, base=base)

    def to_json(self) -> dict:
        out: dict = {"model": self.model}
        for name in _FIELDS[self.model]:
            value = getattr(self, name)
            if name == "pattern":
                value = list(value)
            elif name == "base":
                value = value.to_json()
            out[name] = value
        return out

    @classmethod
    def from_json(cls, obj) -> "ModelSpec":
        """Build a spec from the JSON object form.

        The model's defaults (w = 1.0, p = 0.5, seed = DEFAULT_SEED) are
        merged with every field the JSON gives, and a base is read the same
        way; the constructor then checks every field, as for a spec built in
        code.  Unknown keys and null fields are rejected.
        """
        if not isinstance(obj, dict):
            raise ValueError("model JSON must be an object")
        unknown = set(obj) - {"model", *_FIELD_NAMES}
        if unknown:
            raise ValueError(f"unknown model fields: {sorted(unknown)}")
        nulls = sorted(name for name, value in obj.items() if value is None)
        if nulls:
            raise ValueError(f"model fields must not be null: {nulls}")
        model = obj.get("model")
        kwargs = {**(_FIELDS[model] if model in MODEL_NAMES else {}), **obj, "model": model}
        if "base" in obj:
            kwargs["base"] = cls.from_json(obj["base"])
        return cls(**kwargs)


def ensemble(spec: ModelSpec, seeds, sites: int) -> tuple[ModelSpec, ...]:
    """The specs a run averages over: (spec,) for a deterministic spec, else
    one copy per seed (DEFAULT_SEEDS when seeds is None), at least one.

    Seeds x sites per seed is held to the ensemble budget before any copy is
    made: a sized argument, such as a range, by len() without expanding it;
    an unsized one (or a range too long for len()) is drawn only up to one
    seed past the budget.
    """
    if not spec.is_stochastic:
        return (spec,)
    if seeds is None:
        seeds = DEFAULT_SEEDS
    try:
        count = len(seeds)
    except (TypeError, OverflowError):
        seeds = tuple(itertools.islice(seeds, _ensemble_budget() // sites + 1))
        count = len(seeds)
    _check_work(count, "seeds", sites, "ensemble")
    if not count:
        raise ValueError("seed list must be nonempty for stochastic models")
    return tuple(replace(spec, seed=seed) for seed in seeds)


# ── Rudin-Shapiro weights ──────────────────────────────────────────────────

def rs_weight(n: int) -> int:
    """Rudin-Shapiro sign of one integer, +1 or -1.

    Digit descent in base 4: writing n = 4q + l with Euclidean remainder
    l in {0,1,2,3}, the sign flips exactly when l >= 2 and q + l is odd,
    and the index drops to q.  Floor division shrinks |n| toward the fixed
    points 0 (sign +1) and -1 (sign -1), so the loop always terminates.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValueError(f"index must be an integer, got {n!r}")
    n = int(n)
    sign = 1
    while n != 0 and n != -1:
        l = n & 3
        q = n >> 2
        if l >= 2 and (q + l) & 1:
            sign = -sign
        n = q
    return sign if n == 0 else -sign


def rs_weights(indices) -> np.ndarray:
    """Vectorised rs_weight over an integer array, in closed form.

    The sign is -1 exactly when the binary expansion of n holds an odd number
    of "11" blocks (overlapping pairs of adjacent ones; Allouche & Shallit,
    Automatic Sequences, 2003).  Counted on the 64-bit two's complement with a
    logical shift, the leading ones of a negative n carry its sign: -1 has 63
    such pairs.
    """
    return 1.0 - 2.0 * _rs_negatives(indices)


def _rs_negatives(indices) -> np.ndarray:
    """The mask rs_weights(indices) < 0, as bools: the parity of the "11" blocks."""
    u = np.asarray(indices, dtype=np.int64).view(np.uint64)
    pairs = u >> 1
    pairs &= u  # in place: one index-sized temporary fewer
    return (np.bitwise_count(pairs) & 1).view(bool)


# ── Counter-based stochastic stream ────────────────────────────────────────

# Absolute counter block of lattice index 0; keeps negative indices positive.
_STREAM_ORIGIN = 1 << 64
# Sites per block of a generated window; caps the scratch memory.
_CHUNK = 1 << 16
# Sites per Philox draw, 4 words each: a 128-KiB buffer that the allocator reuses,
# where a block-sized draw (2 MiB) was mapped afresh, and page-faulted, for every block.
_DRAW = 1 << 12


def _words(seed: int, first: int, count: int):
    """The raw words of the sites first..first + count - 1, _DRAW sites at a time:
    yields (offset of the draw's first site, its words)."""
    bitgen = np.random.Philox(key=seed)
    bitgen.advance(_STREAM_ORIGIN + first)
    for done in range(0, count, _DRAW):
        # Each index consumes one 4-word block; its first word is the raw draw.
        yield done, bitgen.random_raw(4 * min(_DRAW, count - done))[::4]


def index_uniforms(seed: int, first: int, last: int) -> np.ndarray:
    """Uniform [0,1) variates for lattice indices first..last, keyed by (seed, index)."""
    _check_seed(seed)
    if first > last:
        raise ValueError(f"empty index range: first={first} > last={last}")
    out = np.empty(last - first + 1)
    for done, words in _words(seed, first, out.size):
        out[done : done + words.size] = (words >> np.uint64(11)) * (1.0 / (1 << 53))
    return out


def _flips(spec: ModelSpec, first: int, count: int) -> np.ndarray:
    """Where the coin of spec flips its base's sign at first..first + count - 1: where its
    variate, an integer over 2**53, is >= p, so its word >= ceil(p * 2**53) * 2**11."""
    flips = np.zeros(count, dtype=bool)
    limit = math.ceil(math.ldexp(spec.p, 53)) << 11
    if limit < 1 << 64:
        for done, words in _words(spec.seed, first, count):
            np.greater_equal(words, np.uint64(limit), out=flips[done : done + words.size])
    return flips


# ── Windows ────────────────────────────────────────────────────────────────

@dataclass(eq=False)
class WeightWindow:
    """Contiguous run of weights; entry i holds w(offset + i)."""

    offset: int
    weights: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.weights, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("weights must be a nonempty 1-d array")
        self.weights = arr

    def __len__(self) -> int:
        return self.weights.size

    @property
    def first(self) -> int:
        return self.offset

    @property
    def last(self) -> int:
        return self.offset + len(self) - 1

    def indices(self) -> np.ndarray:
        return np.arange(self.first, self.last + 1)

    def to_csv(self, path, output_format: str = "csv") -> None:
        write_table(path, ["n", "w"], [self.indices(), self.weights], output_format)


def _check_window(first: int, last: int) -> None:
    """Refuses [first, last] when it is empty, leaves the lattice domain or
    exceeds the window cap, before anything is generated."""
    if first > last:
        raise ValueError(f"empty window: first={first} > last={last}")
    if first <= -LATTICE_BOUND or last >= LATTICE_BOUND:
        raise ValueError(f"window [{first}, {last}] leaves the lattice domain |n| < 2**62")
    _check_window_length(last - first + 1)


def generate_window(spec: ModelSpec, first: int, last: int) -> WeightWindow:
    """Weights of a model on [first, last].

    Stochastic variants are reproducible per (seed, index): for any sub-range
    [lo, hi], the slice full.weights[lo - first : hi - first + 1] of a window and
    the window generated on [lo, hi] directly are identical arrays.

    Memory: the window is allocated once and filled in blocks of _CHUNK sites,
    so it costs its own 8 bytes per site plus one block's scratch (1 to
    2 MiB), whatever its length.
    """
    _check_window(first, last)
    weights = np.empty(last - first + 1)
    cycle_block = _cycle_blocks(spec, min(_CHUNK, weights.size))
    for start in range(0, weights.size, _CHUNK):
        _fill_block(spec, weights[start : start + _CHUNK], first + start, cycle_block)
    return WeightWindow(first, weights)


def _cycle_blocks(spec: ModelSpec, block: int):
    """The cycle of spec or of its coin base as (first, count) -> its weights from first on,
    count <= block: a slice of its repeats, made once per window.  None for Rudin-Shapiro."""
    cycle = (spec.coin_base or spec).cycle
    if cycle is None:
        return None
    repeated = np.pad(cycle, (0, block - 1), mode="wrap")
    return lambda first, count: repeated[first % len(cycle) :][:count]


def _negatives(spec: ModelSpec, first: int, count: int, cycle_block) -> np.ndarray:
    """The bool mask w(n) < 0 at n = first..first + count - 1, the one rule of each shape:
    a coin's base mask XOR its flips, the Rudin-Shapiro parity, or a cycle's block < 0."""
    if (coin := spec.coin_base) is not None:
        return _negatives(coin, first, count, cycle_block) ^ _flips(spec, first, count)
    if cycle_block is None:
        return _rs_negatives(np.arange(first, first + count))
    return cycle_block(first, count) < 0


def _fill_block(spec: ModelSpec, out: np.ndarray, first: int, cycle_block) -> None:
    """Writes the weights of spec at first, first + 1, ... into the block out: a cycle's
    block (_cycle_blocks), else 1 - 2 * the +-1 model's mask (_negatives), in place."""
    if spec.cycle is not None:
        out[:] = cycle_block(first, out.size)
    else:
        np.multiply(_negatives(spec, first, out.size, cycle_block), -2.0, out=out)
        out += 1.0


def _sign_mask(spec: ModelSpec, first: int, last: int) -> np.ndarray:
    """The bool mask w(n) < 0 for n = first..last, filled from _negatives in blocks of
    _CHUNK sites, with no window-sized index array; the caller checks the range."""
    mask = np.empty(last - first + 1, dtype=bool)
    cycle_block = _cycle_blocks(spec, min(_CHUNK, mask.size))
    for start in range(0, mask.size, _CHUNK):
        block = mask[start : start + _CHUNK]
        block[:] = _negatives(spec, first + start, block.size, cycle_block)
    return mask


def _sign_bits(spec: ModelSpec, first: int, last: int) -> np.ndarray:
    """The bits w(n) < 0 for n = first..last, packed little-endian into bytes:
    np.packbits(generate_window(spec, first, last).weights < 0, bitorder="little").

    The caller checks the range (_check_window).  Each block of at least _CHUNK
    sites, a multiple of 8 so that every block but the last packs into whole bytes,
    is packed from its mask (_negatives): no float and no window is made.
    """
    total = last - first + 1
    step = -(-_CHUNK // 8) * 8
    bits = np.empty(-(-total // 8), dtype=np.uint8)
    cycle_block = _cycle_blocks(spec, min(step, total))
    for start in range(0, total, step):  # the last slice of bits ends where bits ends
        mask = _negatives(spec, first + start, min(step, total - start), cycle_block)
        bits[start // 8 : (start + step) // 8] = np.packbits(mask, bitorder="little")
    return bits
