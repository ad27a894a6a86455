"""Binary Dirac comb models on the integer lattice.

A model assigns a real scattering weight w(n) to every integer n.  The
deterministic variants (constant, periodic, alternating, Rudin-Shapiro) are
plain functions of n.  The stochastic variants (Bernoulli comb, and the
Bernoullisation of a deterministic sign sequence) read a counter-based random
stream keyed by (seed, index), so two windows of the same model agree wherever
their ranges overlap, no matter in which order or chunking they were produced.

Stream contract, fixed per release: for seed s, lattice index n owns counter
block n + 2**64 of a Philox generator keyed by s; the first 64-bit word of
that block, mapped into [0, 1) as (word >> 11) * 2**-53, is the uniform
variate for n.  A Bernoulli weight is +1 exactly when the variate is < p.

Lattice domain: every window lies inside |n| < 2**62 (LATTICE_BOUND), so
indices and index sums such as n + M stay exact in int64.
"""

from __future__ import annotations

import itertools
import os
from collections.abc import Sized
from dataclasses import dataclass, replace

import numpy as np

from ._util import write_table

MODEL_NAMES = (
    "constant",
    "periodic",
    "alternating",
    "rudin_shapiro",
    "bernoulli",
    "bernoullised",
)

# Seed applied when a model JSON omits one.
DEFAULT_SEED = 1

LATTICE_BOUND = 1 << 62

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
    if cap < 1:
        raise ValueError(f"{MAX_WINDOW_ENV} must be positive, got {cap}")
    return cap


def _check_window_length(length: int) -> None:
    cap = max_window_length()
    if length > cap:
        raise ResourceLimitError(
            f"window of length {length} exceeds the cap of {cap}"
            f" (raise {MAX_WINDOW_ENV} to allow it)"
        )


def _ensemble_budget() -> int:
    return ENSEMBLE_WORK_FACTOR * max_window_length()


def _ensemble_seeds(seeds, sites: int) -> tuple:
    """The seeds as a tuple, once seeds x sites per seed is known to stay
    within the ensemble budget: a sized argument is checked by len() before
    it is expanded, an unsized one is drawn only up to one seed past it."""
    if not isinstance(seeds, Sized):
        seeds = tuple(itertools.islice(seeds, _ensemble_budget() // sites + 1))
    _check_work(len(seeds), "seeds", sites, "ensemble")
    return tuple(seeds)


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


def _json_number(name: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is out of range, got {value}") from None


def _check_seed(seed) -> None:
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must fit in 64 bits, got {seed}")


_FIELDS_BY_MODEL = {
    "constant": frozenset({"w"}),
    "periodic": frozenset({"pattern"}),
    "alternating": frozenset(),
    "rudin_shapiro": frozenset(),
    "bernoulli": frozenset({"p", "seed"}),
    "bernoullised": frozenset({"p", "seed", "base"}),
}


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
        if self.pattern is not None:
            object.__setattr__(self, "pattern", tuple(float(x) for x in self.pattern))
        if self.w is not None:
            object.__setattr__(self, "w", float(self.w))
        if self.p is not None:
            object.__setattr__(self, "p", float(self.p))
        allowed = _FIELDS_BY_MODEL[self.model]
        for name in ("w", "pattern", "p", "seed", "base"):
            value = getattr(self, name)
            if name in allowed:
                if value is None:
                    raise ValueError(f"{self.model} model requires {name!r}")
            elif value is not None:
                raise ValueError(f"{self.model} model does not take {name!r}")
        if self.w is not None and not np.isfinite(self.w):
            raise ValueError("w must be finite")
        if self.pattern is not None:
            if not self.pattern:
                raise ValueError("pattern must be nonempty")
            if not np.isfinite(self.pattern).all():
                raise ValueError("pattern entries must be finite")
        if self.p is not None:
            _check_probability(self.p)
        if self.seed is not None:
            _check_seed(self.seed)
        if self.base is not None:
            if self.base.is_stochastic:
                raise ValueError("bernoullised base must be deterministic")
            if not self.base.is_binary:
                raise ValueError("bernoullised base must take values in {+1, -1}")

    @property
    def is_stochastic(self) -> bool:
        return self.model in ("bernoulli", "bernoullised")

    @property
    def is_binary(self) -> bool:
        """True when every weight of the model lies in {+1, -1}."""
        if self.model == "constant":
            return self.w in (1.0, -1.0)
        if self.model == "periodic":
            return all(x in (1.0, -1.0) for x in self.pattern)
        return True

    @classmethod
    def constant(cls, w: float) -> "ModelSpec":
        return cls("constant", w=w)

    @classmethod
    def periodic(cls, pattern) -> "ModelSpec":
        return cls("periodic", pattern=tuple(pattern))

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
        if self.w is not None:
            out["w"] = self.w
        if self.pattern is not None:
            out["pattern"] = list(self.pattern)
        if self.p is not None:
            out["p"] = self.p
        if self.seed is not None:
            out["seed"] = self.seed
        if self.base is not None:
            out["base"] = self.base.to_json()
        return out

    @classmethod
    def from_json(cls, obj) -> "ModelSpec":
        """Build a spec from the JSON object form, applying documented defaults.

        Missing w defaults to 1.0, missing p to 0.5, missing seed to
        DEFAULT_SEED; unknown keys are rejected.  w and p must be JSON
        numbers and pattern a JSON list of numbers (booleans are not numbers).
        """
        if not isinstance(obj, dict):
            raise ValueError("model JSON must be an object")
        unknown = set(obj) - {"model", "w", "pattern", "p", "seed", "base"}
        if unknown:
            raise ValueError(f"unknown model fields: {sorted(unknown)}")
        model = obj.get("model")
        if model not in MODEL_NAMES:
            raise ValueError(f"unknown model {model!r}; expected one of {MODEL_NAMES}")
        kwargs: dict = {}
        if model == "constant":
            kwargs["w"] = _json_number("w", obj.get("w", 1.0))
        if model == "periodic":
            if not isinstance(obj.get("pattern"), list):
                raise ValueError("periodic model requires 'pattern', a list of numbers")
            kwargs["pattern"] = tuple(_json_number("pattern entry", x) for x in obj["pattern"])
        if model in ("bernoulli", "bernoullised"):
            kwargs["p"] = _json_number("p", obj.get("p", 0.5))
            kwargs["seed"] = obj.get("seed", DEFAULT_SEED)
        if model == "bernoullised":
            if "base" not in obj:
                raise ValueError("bernoullised model requires 'base'")
            kwargs["base"] = cls.from_json(obj["base"])
        return cls(model, **kwargs)


def reseed(spec: ModelSpec, seed: int) -> ModelSpec:
    """Copy of a stochastic spec with a new seed; deterministic specs pass through."""
    if not spec.is_stochastic:
        return spec
    return replace(spec, seed=seed)


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
    u = np.array(indices, dtype=np.int64).view(np.uint64)
    return 1.0 - 2.0 * (np.bitwise_count(u & (u >> 1)) & 1)


# ── Counter-based stochastic stream ────────────────────────────────────────

# Absolute counter block of lattice index 0; keeps negative indices positive.
_STREAM_ORIGIN = 1 << 64
# Cap per-chunk scratch memory while generating long windows.
_CHUNK = 1 << 16


def index_uniforms(seed: int, first: int, last: int) -> np.ndarray:
    """Uniform [0,1) variates for lattice indices first..last, keyed by (seed, index)."""
    _check_seed(seed)
    if first > last:
        raise ValueError(f"empty index range: first={first} > last={last}")
    total = last - first + 1
    out = np.empty(total)
    done = 0
    while done < total:
        count = min(_CHUNK, total - done)
        bitgen = np.random.Philox(key=seed)
        bitgen.advance(_STREAM_ORIGIN + first + done)
        words = np.random.Generator(bitgen).integers(
            0, 2**64, size=4 * count, dtype=np.uint64
        )[::4]
        out[done : done + count] = (words >> np.uint64(11)) * (1.0 / (1 << 53))
        done += count
    return out


def _bernoulli_signs(p: float, seed: int, first: int, last: int) -> np.ndarray:
    return np.where(index_uniforms(seed, first, last) < p, 1.0, -1.0)


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

    @property
    def is_binary(self) -> bool:
        return bool(np.all(np.abs(self.weights) == 1.0))

    def to_csv(self, path, output_format: str = "csv") -> None:
        write_table(path, ["n", "w"], [self.indices(), self.weights], output_format)


def generate_window(spec: ModelSpec, first: int, last: int) -> WeightWindow:
    """Weights of a model on [first, last].

    Stochastic variants are reproducible per (seed, index): for any sub-range
    [lo, hi], the slice full.weights[lo - first : hi - first + 1] of a window and
    the window generated on [lo, hi] directly are identical arrays.
    """
    if first > last:
        raise ValueError(f"empty window: first={first} > last={last}")
    if first <= -LATTICE_BOUND or last >= LATTICE_BOUND:
        raise ValueError(f"window [{first}, {last}] leaves the lattice domain |n| < 2**62")
    _check_window_length(last - first + 1)
    n = np.arange(first, last + 1)
    if spec.model == "constant":
        w = np.full(n.size, spec.w)
    elif spec.model == "periodic":
        w = np.asarray(spec.pattern)[n % len(spec.pattern)]
    elif spec.model == "alternating":
        w = np.where(n % 2 == 0, 1.0, -1.0)
    elif spec.model == "rudin_shapiro":
        w = rs_weights(n)
    elif spec.model == "bernoulli":
        w = _bernoulli_signs(spec.p, spec.seed, first, last)
    else:  # bernoullised
        base = generate_window(spec.base, first, last)
        w = base.weights * _bernoulli_signs(spec.p, spec.seed, first, last)
    return WeightWindow(first, w)


def bernoullise(base: WeightWindow, p: float, seed: int) -> WeightWindow:
    """Flip each sign of a +-1 window independently with probability 1 - p.

    Keyed by (seed, index), so it coincides with generating the bernoullised
    model directly on the same range.
    """
    _check_probability(p)
    _check_seed(seed)
    if not base.is_binary:
        raise ValueError("bernoullise requires weights in {+1, -1}")
    flips = _bernoulli_signs(p, seed, base.first, base.last)
    return WeightWindow(base.offset, base.weights * flips)
