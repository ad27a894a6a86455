"""Order metrics: coin entropy, block entropy of sliding subwords, and
distinct-subword (patch) counts with a saturation diagnostic.

Memory: both counts read a window's letters as digits (_letters), one byte
per site below 256 letters, and no float window exists: a cycle's digits
are the ranks of its entries tiled over the window, a +-1 model's its
streamed sign bits.  Patch counts sort one uint64 code per position, its
next L_max letters, and read every p(L) off the common prefixes of sorted
neighbours (_prefix_counts); past 64 bits of code they rank the subwords of
every length in one index array, updated in place (_subword_ranks).  Block
entropy counts the subwords' codes a chunk of positions at a time while the
word space fits the window, and ranks them past it."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import json_form, write_table
from .combs import (_CHUNK, ModelSpec, _check_count, _check_probability, _check_window,
                    _check_window_length, _check_work, _sign_bits)


def bernoulli_entropy(p: float) -> float:
    """Entropy -p log p - (1-p) log(1-p) in nats, with 0 log 0 = 0."""
    _check_probability(p)
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log(p) - (1.0 - p) * math.log(1.0 - p)


def exact_entropy(spec: ModelSpec) -> float:
    """Entropy per site of the model: H(p) for the coin-driven variants,
    0 for the deterministic ones."""
    if spec.is_stochastic:
        return bernoulli_entropy(spec.p)
    return 0.0


def _letters(spec: ModelSpec, first: int, last: int) -> tuple[np.ndarray, int]:
    """(digits, a): the rank of every weight of [first, last] among the window's a
    distinct weights, in numeric order, with no float window.

    A cycle's letters are the cycle entries the window reaches, its digits their
    ranks tiled over the window (one byte per site below 256 letters).  Any other
    model is +-1: its digits are its streamed sign bits (_sign_bits) turned over,
    digit 1 - bit, so -1 ranks below +1.  A window of one letter gets a = 1 and
    all-zero digits."""
    _check_window(first, last)
    size = last - first + 1
    if spec.cycle is not None:
        reached = np.roll(spec.cycle, -(first % len(spec.cycle)))[:size]
        alphabet, ranks = np.unique(reached, return_inverse=True)
        ranks = ranks.astype(np.min_scalar_type(alphabet.size - 1))
        return np.tile(ranks, -(-size // ranks.size))[:size], alphabet.size
    digits = np.unpackbits(_sign_bits(spec, first, last), count=size, bitorder="little")
    if np.count_nonzero(digits) in (0, size):
        return np.zeros_like(digits), 1
    digits ^= 1
    return digits, 2


def _subword_ranks(digits: np.ndarray, a: int, max_length: int):
    """Yield, for L = 1..max_length in turn, the pair (ranks, size): the dense
    lexicographic rank of every length-L subword of the digits (letters
    0..a-1) among the size distinct ones.

    Memory: one index array, updated in place for every length, so each
    yielded ranks array stays valid only until the next one is yielded.
    Length L+1 keys each subword by its length-L prefix rank and last digit,
    rank * a + digit, which orders the keys lexicographically; the keys are
    ranked by marking them in a table of size * a entries, or by sorting when
    that table would be larger than the keys themselves.  Ranks stay below
    the window length, so keys stay below its square and fit in int64."""
    ranks, size = digits.astype(np.intp), a
    yield ranks, size
    for L in range(1, max_length):
        key = ranks[:-1]
        key *= a
        key += digits[L:]
        if size * a > key.size:
            distinct, key[:] = np.unique(key, return_inverse=True)
            size = distinct.size
        else:
            seen = np.zeros(size * a, dtype=bool)
            seen[key] = True
            rank_of_key = np.cumsum(seen)
            rank_of_key -= 1
            # Every key is below size * a, so clipping never acts; it lets
            # numpy overwrite the keys with their ranks without a buffer.
            np.take(rank_of_key, key, out=key, mode="clip")
            size = int(rank_of_key[-1]) + 1
        ranks = key
        yield ranks, size


def _prefix_counts(digits: np.ndarray, a: int, L_max: int) -> np.ndarray:
    """p(L), L = 1..L_max, of at least L_max - 1 digits (letters 0..a-1), while
    L_max slots of b = a.bit_length() bits fit 64 (see patch_complexity).

    A position's code holds its next L_max letters as digit + 1, b bits a slot;
    codes of k letters become codes of up to 2k in place, a chunk at a time.
    Sorted, two neighbours share as many leading letters as their XOR has
    leading zero slots, so the distinct length-L prefixes number one plus the
    neighbours whose XOR is nonzero in the first L slots."""
    b, size = a.bit_length(), digits.size
    codes = digits + np.uint64(1)
    k = 1
    while k < L_max:
        step = min(k, L_max - k)
        for start in range(0, size, 2**14):
            stop = min(start + 2**14, size)
            after = codes[start + k : stop + k] >> ((k - step) * b)  # read before shifting
            codes[start:stop] <<= step * b
            codes[start : start + after.size] |= after
        k += step
    codes.sort()
    bit_lengths = np.zeros(65, dtype=np.intp)
    for start in range(1, size, 2**14):
        stop = min(start + 2**14, size)
        change = codes[start:stop] ^ codes[start - 1 : stop - 1]
        # no two adjacent ones, the top one kept: float64 rounding cannot carry past it
        change &= ~(change >> 1)
        bit_lengths += np.bincount(np.frexp(change)[1], minlength=65)
    at_least = np.cumsum(bit_lengths[::-1])[::-1]  # XORs of t bits or more
    return 1 + at_least[(L_max - np.arange(1, L_max + 1)) * b + 1] - np.arange(L_max)


def block_entropy(spec: ModelSpec, N: int, k: int) -> float:
    """Shannon entropy per symbol of the empirical law of length-k subwords
    of the window [-N, N].

    Requires 2N+1 >= 100 * 2**k so the word space is sampled enough for the
    plug-in estimate to be meaningful.  A k at or past the bit length of
    2N+1 is refused before 2**k is formed, so a huge k costs nothing.

    The subwords are counted in lexicographic order, as np.unique would list
    them.  While a**k <= 2N+1, always so for a +-1 model, each subword's
    Horner code over the a letters is counted directly, _CHUNK positions at
    a time; past that, its rank (_subword_ranks).  Memory: the digits, one
    chunk of codes and a**k counts, or one index array for the ranks.
    """
    _check_count("block length k", k)
    _check_count("window half-size N", N)
    size = 2 * N + 1
    if k >= size.bit_length() or size < 100 * 2**k:
        raise ValueError(
            f"window of {size} sites is too small for k={k}; need 2N+1 >= 100 * 2**{k}"
        )
    digits, a = _letters(spec, -N, N)
    positions = size - k + 1
    if a**k > size:
        for ranks, distinct in _subword_ranks(digits, a, k):  # keeps length k
            pass
        counts = np.bincount(ranks, minlength=distinct)
    else:
        counts = np.zeros(a**k, dtype=np.intp)
        for start in range(0, positions, _CHUNK):
            stop = min(start + _CHUNK, positions)
            code = digits[start:stop].astype(np.intp)
            for j in range(1, k):
                code *= a
                code += digits[start + j : stop + j]
            counts += np.bincount(code, minlength=counts.size)
        counts = counts[counts > 0]
    probabilities = counts / positions
    return float(-(probabilities * np.log(probabilities)).sum() / k) + 0.0  # -0.0 -> 0.0


@dataclass
class PatchComplexity:
    """Distinct-subword counts p(L) for L = 1..L_max on the window [-N, N].

    saturated[L-1] records whether the count is unchanged when the window is
    doubled to [-2N, 2N]; an unsaturated count underestimates the model.
    """

    window_half_size: int
    entries: list[tuple[int, int]]
    saturated: list[bool]

    @property
    def all_saturated(self) -> bool:
        return all(self.saturated)

    def count(self, L: int) -> int:
        for length, value in self.entries:
            if length == L:
                return value
        raise ValueError(f"no count for length {L}")

    def to_csv(self, path, output_format: str = "csv") -> None:
        write_table(path, ["L", "count"], list(zip(*self.entries)), output_format)

    def to_json(self) -> dict:
        return {
            "window_half_size": self.window_half_size,
            "counts": [[L, c] for L, c in self.entries],
            "saturated": self.saturated,
        }


def _check_patch_lengths(spec: ModelSpec, N: int, L_max: int) -> None:
    """Require a deterministic model and 100 sites of [-N, N] per length; the
    L_max passes of _subword_ranks over the 4N + 1 sites of the doubled window
    are budgeted."""
    if spec.is_stochastic:
        raise ValueError("patch counting needs a deterministic model")
    _check_count("L_max", L_max)
    _check_count("window half-size N", N)
    if 2 * N + 1 < 100 * L_max:
        raise ValueError(
            f"window of {2 * N + 1} sites is too small for L_max={L_max};"
            f" need at least {100 * L_max}"
        )
    _check_window_length(4 * N + 1)
    _check_work(L_max, "lengths", 4 * N + 1, "work")


def patch_complexity(spec: ModelSpec, N: int, L_max: int) -> PatchComplexity:
    """Count distinct subwords of a deterministic model up to length L_max.

    The letters of the doubled window [-2N, 2N] are read once; [-N, N] is its
    positions N..3N.  While L_max letters of a.bit_length() bits fit 64, each
    window's counts come from one sort of its position codes, the suffix-array
    and LCP route of Manber & Myers, SIAM J. Comput. 22 (1993), and Kasai et
    al., CPM 2001 (_prefix_counts).  A code is padded with 0, no letter, past
    the window's end, so each of the last L_max - 1 positions is one more
    distinct prefix of every longer length: arange(L_max) is subtracted.  Past
    64 bits the counts come from the ranks of every length (_subword_ranks)."""
    _check_patch_lengths(spec, N, L_max)
    digits, a = _letters(spec, -2 * N, 2 * N)
    if L_max * a.bit_length() <= 64:
        counts = _prefix_counts(digits[N : 3 * N + 1], a, L_max).tolist()
        sizes = _prefix_counts(digits, a, L_max).tolist()
    else:
        counts, sizes = [], []
        for L, (ranks, size) in enumerate(_subword_ranks(digits, a, L_max), start=1):
            # the subwords of [-N, N] start at positions N..3N+1-L
            seen = np.zeros(size, dtype=bool)
            seen[ranks[N : 3 * N + 2 - L]] = True
            counts.append(int(np.count_nonzero(seen)))
            sizes.append(size)
    saturated = [count == size for count, size in zip(counts, sizes)]
    return PatchComplexity(N, list(enumerate(counts, start=1)), saturated)


@dataclass
class EntropyReport:
    """Exact entropy next to its finite-window block estimate, with optional
    patch counts for deterministic models."""

    spec: ModelSpec
    exact: float
    block_length: int
    block_entropy_per_symbol: float
    window_half_size: int
    patches: PatchComplexity | None = None

    def to_json(self) -> dict:
        own = json_form({"exact_entropy": self.exact, "block_length": self.block_length,
                         "block_entropy_per_symbol": self.block_entropy_per_symbol,
                         "window_half_size": self.window_half_size})
        out = {"model": self.spec.to_json(), **own}  # a model echo is never rounded
        if self.patches is not None:
            out["patch_counts"] = self.patches.to_json()
        return out


def entropy_report(spec: ModelSpec, N: int, k: int, L_max: int | None = None) -> EntropyReport:
    """Assemble the entropy picture of one model; patch counts only when a
    deterministic model asks for them (L_max set).  Their arguments are
    checked first, and block_entropy checks k before it counts."""
    if L_max is not None:
        _check_patch_lengths(spec, N, L_max)
    block = block_entropy(spec, N, k)
    return EntropyReport(
        spec=spec,
        exact=exact_entropy(spec),
        block_length=k,
        block_entropy_per_symbol=block,
        window_half_size=N,
        patches=None if L_max is None else patch_complexity(spec, N, L_max),
    )
