"""Two-point correlations: windowed estimator, closed forms, exact identity check.

The empirical estimator averages w(n) w(n+m) over the centred window
[-N, N], so every lag sum has exactly 2N+1 terms.  Coefficients are computed
for m >= 0 and mirrored, which makes the symmetry eta(-m) = eta(m)
structural and keeps eta(0) = 1 exact for +-1 sequences.  Lags m >= 0 read
the sites [-N, N+M]: a +-1 model's are streamed block by block into packed
sign bits, one bit per site, and any other model's weights are generated on
them.  Either way the lattice domain and the window cap are checked on the
extended window [-N-M, N+M], before any work.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._util import float_array, json_form, write_table
from .combs import (
    ModelSpec,
    _check_count,
    _check_tolerance,
    _check_window,
    _check_window_length,
    _check_work,
    _sign_bits,
    generate_window,
)


@dataclass(eq=False)
class Autocorrelation:
    """Correlation coefficients on the lags -max_lag..max_lag."""

    max_lag: int
    eta: np.ndarray

    def __post_init__(self):
        self.eta = float_array(self.eta, (2 * self.max_lag + 1,),
                               "eta must have length 2 * max_lag + 1")

    def lags(self) -> np.ndarray:
        return np.arange(-self.max_lag, self.max_lag + 1)

    def value(self, m: int) -> float:
        if abs(m) > self.max_lag:
            raise ValueError(f"lag {m} outside [-{self.max_lag}, {self.max_lag}]")
        return float(self.eta[m + self.max_lag])

    def to_csv(self, path, output_format: str = "csv") -> None:
        write_table(path, ["m", "eta"], [self.lags(), self.eta], output_format)


def _pm1_lag_sums(bits: np.ndarray, size: int, M: int) -> np.ndarray:
    """Exact int64 sums of x[i] x[i + m] over i < size, m = 0..M, for a +-1
    array x of length size + M given by its sign bits x < 0, packed
    little-endian into bytes: size - 2 popcount(core XOR shifted) over those
    bits read as little-endian words, each bit shift built once."""
    width = -(-size // 64)  # words covering the core
    words = np.pad(bits, (0, 8 * (width + M // 64 + 1) - bits.size)).view("<u8")
    tail = (1 << (size % 64 or 64)) - 1  # the core's bits in its last word
    sums = np.empty(M + 1, dtype=np.int64)
    for r in range(min(M, 63) + 1):
        shifted = words if r == 0 else (words[:-1] >> r) | (words[1:] << 64 - r)
        for m in range(r, M + 1, 64):  # the lags that shift by r bits
            diff = words[:width] ^ shifted[m // 64 : m // 64 + width]
            diff[-1] &= tail
            sums[m] = size - 2 * int(np.bitwise_count(diff).sum())
    return sums


def empirical_autocorrelation(spec: ModelSpec, N: int, M: int) -> Autocorrelation:
    """Windowed correlation estimate of a model at lags up to M.

    The lattice domain and the window cap apply to [-N-M, N+M], so to
    2N + 2M + 1 sites, not 2N + 1.  A +-1 model's lag sums are counted in
    exact integers, the values its float products sum to below 2**53 sites,
    from the sign bits of [-N, N+M]: one bit per site, no float window.  Any
    other model's (M + 1) x (2N + 1) multiply-adds are held to the work budget.
    """
    _check_count("window half-size N", N)
    _check_count("max lag M", M, 0)
    _check_window(-N - M, N + M)
    size = 2 * N + 1
    if spec.is_binary:
        sums = _pm1_lag_sums(_sign_bits(spec, -N, N + M), size, M)
    else:
        _check_work(M + 1, "lags", size, "work")
        w = generate_window(spec, -N, N + M).weights
        sums = np.array([w[:size] @ w[m : m + size] for m in range(M + 1)])
    half = sums / size
    return Autocorrelation(M, np.concatenate((half[:0:-1], half)))


def analytic_autocorrelation(spec: ModelSpec, M: int) -> Autocorrelation:
    """Limit coefficients of a model at lags up to M, from the closed form of
    its shape: the cyclic means c(k) c(k + m) over one period of a cycle c
    (w * w for the constant w); a delta at lag 0 for Rudin-Shapiro; and for
    a coin model the base coefficients damped by (2p - 1)**2 away from lag 0.
    The window cap bounds the 2M + 1 lags, and the work budget the cyclic
    means of a cycle of period q: dot products of length q at the first
    min(2M + 1, q) lags, tiled over all 2M + 1."""
    _check_count("max lag M", M, 0)
    _check_window_length(2 * M + 1)
    cycle, coin = spec.cycle, spec.coin_base
    if cycle is not None:
        c = np.asarray(cycle)
        lags = range(-M, -M + min(2 * M + 1, c.size))
        _check_work(len(lags), "lags", c.size, "work")
        twice = np.concatenate((c, c))  # every rotation of c is a slice of it
        means = np.array([float(c @ twice[k % c.size :][: c.size]) for k in lags]) / c.size
        eta = np.tile(means, -(-(2 * M + 1) // means.size))[: 2 * M + 1]
    elif coin is None:
        eta = np.zeros(2 * M + 1)
    else:
        eta = (2.0 * spec.p - 1.0) ** 2 * analytic_autocorrelation(coin, M).eta
    if cycle is None:  # a +-1 comb: 1 at lag 0
        eta[M] = 1.0
    return Autocorrelation(M, eta)


# ── Exact check of the Rudin-Shapiro correlation identity ──────────────────

@dataclass
class RecursionCheckReport:
    """Outcome of substituting the claimed correlation pair into the lag recursions."""

    max_index: int
    checked: int
    violations: list[dict]

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return json_form(self)


def _claimed_pair(max_index: int) -> tuple[np.ndarray, np.ndarray]:
    """Claimed pair on the lags -max_index..max_index, as integer arrays:
    the correlation coefficients a (1 at lag 0, else 0) and their companion
    b, the mean of (-1)**n w(n) w(n+t) (identically 0)."""
    a = np.zeros(2 * max_index + 1, dtype=np.int64)
    a[max_index] = 1
    return a, np.zeros_like(a)


def verify_rs_recursions(max_index: int) -> RecursionCheckReport:
    """Check, in exact integers, that the claimed Rudin-Shapiro correlation
    pair (a = 1 at lag 0 and else 0, b = 0) satisfies the four-branch lag
    recursion system at every lag t with |t| <= max_index.

    Each t is written t = 4m + l with Euclidean remainder l in {0,1,2,3}.
    Every coefficient of the branches is a quarter-integer, so both the a-
    and b-equations are compared as 4 * lhs against 4 * rhs in int64 arrays,
    one branch (every fourth lag) at a time; any inequality is recorded as a
    violation, its values as Fractions.  The window cap bounds the
    2 * max_index + 1 lags.
    """
    _check_count("max_index", max_index)
    _check_window_length(2 * max_index + 1)
    a, b = _claimed_pair(max_index)
    found = []  # (t, system, 4 * lhs, 4 * rhs) of every violated equation
    for l in range(4):
        first = (max_index + l) % 4  # index of the first lag t = 4m + l
        t = np.arange(first - max_index, max_index + 1, 4)
        m = (t - l) // 4
        s = 1 - 2 * (m & 1)  # (-1)**m
        # m and m + 1 lie in [-max_index, max_index], so both index the claimed arrays.
        a_m, a_m1 = a[m + max_index], a[m + 1 + max_index]
        b_m, b_m1 = b[m + max_index], b[m + 1 + max_index]
        zero = np.zeros_like(m)
        if l == 0:
            rhs = (2 * (1 + s) * a_m, zero)
        elif l == 1:
            rhs = ((1 - s) * a_m + s * b_m - b_m1, (1 - s) * a_m - s * b_m + b_m1)
        elif l == 2:
            rhs = (zero, 2 * s * b_m + 2 * b_m1)
        else:
            rhs = ((1 + s) * a_m1 - s * b_m + b_m1, -(1 + s) * a_m1 - s * b_m + b_m1)
        for system, claimed, scaled_rhs in zip("ab", (a, b), rhs):
            scaled_lhs = 4 * claimed[first::4]
            for i in np.flatnonzero(scaled_lhs != scaled_rhs):
                found.append((int(t[i]), system, int(scaled_lhs[i]), int(scaled_rhs[i])))
    violations = [  # by lag, the a-equation first
        {
            "system": system,
            "t": t,
            "claimed": str(Fraction(lhs, 4)),
            "recursion": str(Fraction(rhs, 4)),
        }
        for t, system, lhs, rhs in sorted(found)
    ]
    return RecursionCheckReport(max_index, 2 * (2 * max_index + 1), violations)


# ── Comparison (homometry in correlation form) ─────────────────────────────

@dataclass
class CorrelationComparison:
    """Sup-distance between two coefficient sets on a shared lag range."""

    max_lag: int
    distance: float
    tolerance: float
    passed: bool

    def to_json(self) -> dict:
        return json_form(self)


def compare_autocorrelations(
    x: Autocorrelation, y: Autocorrelation, tol: float
) -> CorrelationComparison:
    """Report max_m |x(m) - y(m)| against a tolerance; lag ranges must match."""
    if x.max_lag != y.max_lag:
        raise ValueError(f"lag ranges differ: {x.max_lag} vs {y.max_lag}")
    _check_tolerance(tol)
    distance = float(np.max(np.abs(x.eta - y.eta)))
    return CorrelationComparison(x.max_lag, distance, float(tol), distance <= tol)
