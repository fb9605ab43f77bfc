"""Numerically stable log-gamma, digamma, trigamma and the shifted
harmonic sums built on them.

Everything here is pure float64 arithmetic with no external
special-function dependency: arguments below 6 are shifted upward with
the standard recurrences and the asymptotic (de Moivre / Bernoulli)
series is applied above the threshold. With ten series terms the
truncation error at the threshold is a few ulp.

All functions accept scalars or numpy arrays and broadcast like numpy
ufuncs; scalars in, float out.

The pooled sums over a whole sample need the data only through its
count histogram (distinct counts u, multiplicities c) and take the
polygamma-difference form on it, so their cost and memory grow with the
number of distinct counts, never with max(k) or sum(k). The finite
sums stay as the reference route that the tests compare against.
HistogramStack lays the histograms of several samples end to end, so
that one special-function call serves all of them.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "log_gamma",
    "digamma",
    "trigamma",
    "log_beta",
    "beta_log_moments",
    "harmonic_sum",
    "harmonic_sum_sq",
    "pooled_harmonic_sum",
    "pooled_harmonic_sum_sq",
    "HistogramStack",
]

_SHIFT = 6.0
_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)

# B_2n for n = 1..10: 1/6, -1/30, 1/42, -1/30, 5/66, -691/2730, 7/6,
# -3617/510, 43867/798, -174611/330
_BERNOULLI = np.array(
    [
        1.0 / 6.0,
        -1.0 / 30.0,
        1.0 / 42.0,
        -1.0 / 30.0,
        5.0 / 66.0,
        -691.0 / 2730.0,
        7.0 / 6.0,
        -3617.0 / 510.0,
        43867.0 / 798.0,
        -174611.0 / 330.0,
    ]
)
# ln-gamma series coefficients B_2n / (2n (2n-1))
_LGAMMA_COEF = _BERNOULLI / np.array([2 * n * (2 * n - 1) for n in range(1, 11)], dtype=float)
# digamma series coefficients B_2n / (2n)
_DIGAMMA_COEF = _BERNOULLI / np.array([2 * n for n in range(1, 11)], dtype=float)


def _validated(x, name: str) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError(f"{name} must be positive and finite")
    return arr, arr.ndim == 0


def _poly(coef: np.ndarray, r2: np.ndarray) -> np.ndarray:
    # Horner evaluation of sum coef[n] * r2**n, n = 0..len-1
    acc = np.full_like(r2, coef[-1])
    for c in coef[-2::-1]:
        acc = acc * r2 + c
    return acc


def _shift_up(z: np.ndarray, term, *args) -> tuple[np.ndarray, np.ndarray]:
    """Raise every argument below _SHIFT by whole steps until none is
    left, summing term(z, *args) over the values stepped past (args are
    arrays of z's shape); returns the shifted arguments and that sum,
    the recurrence correction.

    The arguments below _SHIFT are gathered once and stepped together;
    a step adds term only where its argument is still below _SHIFT, so
    each value gets the same additions in the same order as it would
    alone."""
    z = np.atleast_1d(z).copy()
    adj = np.zeros_like(z)
    low = np.flatnonzero(z < _SHIFT)
    zl, acc = z[low], np.zeros(low.size)
    rest = [x[low] for x in args]
    mask = np.ones(low.size, dtype=bool)
    while mask.any():
        np.add(acc, term(zl, *rest), out=acc, where=mask)
        np.add(zl, 1.0, out=zl, where=mask)
        np.less(zl, _SHIFT, out=mask)
    z[low], adj[low] = zl, acc
    return z, adj


def _series(z: np.ndarray) -> np.ndarray:
    """S(z), the Bernoulli tail of the Stirling series for ln Gamma(z)."""
    r = 1.0 / z
    return r * _poly(_LGAMMA_COEF, r * r)


def log_gamma(x):
    """ln Gamma(x) for x > 0."""
    z, scalar = _validated(x, "x")
    z, adj = _shift_up(z, np.log)
    out = (z - 0.5) * np.log(z) - z + _HALF_LN_2PI + _series(z)
    out -= adj
    return float(out[0]) if scalar else out


def digamma(x):
    """psi(x) = d/dx ln Gamma(x) for x > 0.

    Satisfies the recurrence psi(x+1) = psi(x) + 1/x to float precision.
    """
    z, scalar = _validated(x, "x")
    z, adj = _shift_up(z, lambda v: 1.0 / v)
    r = 1.0 / z
    r2 = r * r
    out = np.log(z) - 0.5 * r - r2 * _poly(_DIGAMMA_COEF, r2)
    out -= adj
    return float(out[0]) if scalar else out


def trigamma(x):
    """psi_1(x) = d/dx psi(x) for x > 0.

    Satisfies psi_1(x+1) = psi_1(x) - 1/x^2; psi_1(1) is the Basel sum
    pi^2/6.
    """
    z, scalar = _validated(x, "x")
    z, adj = _shift_up(z, lambda v: 1.0 / (v * v))
    r = 1.0 / z
    r2 = r * r
    out = r + 0.5 * r2 + r * r2 * _poly(_BERNOULLI, r2)
    out += adj
    return float(out[0]) if scalar else out


def _log_gamma_ratio(b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """D(b, a) = ln Gamma(b+a) - ln Gamma(b), taken as one difference
    that never forms ln Gamma(b): b is shifted up to z >= 6 through
    D(v, a) = D(v+1, a) - log1p(a/v), then

        D(z, a) = (z - 1/2) log1p(a/z) + a log(z+a) - a + S(z+a) - S(z)

    with S the Stirling tail. No term grows like b log b, so the digits
    hold for b up to the int64 limit."""
    a, b = np.broadcast_arrays(np.atleast_1d(a), b)
    z, adj = _shift_up(b, lambda v, av: np.log1p(av / v), a)
    x = z + a
    return (z - 0.5) * np.log1p(a / z) + a * np.log(x) - a + _series(x) - _series(z) - adj


def log_beta(a, b):
    """ln B(a, b) = ln Gamma(lo) - D(hi, lo), with lo, hi the smaller and
    the larger argument (B is symmetric) and D = _log_gamma_ratio: the
    digits hold where hi is huge and ln Gamma(hi) alone is ~hi log hi,
    and ln Gamma never meets a D of its own size, as ln Gamma(51) would
    against D(1, 51)."""
    aa, sa = _validated(a, "a")
    bb, sb = _validated(b, "b")
    lo, hi = np.minimum(aa, bb), np.maximum(aa, bb)
    out = log_gamma(lo) - _log_gamma_ratio(hi, lo)
    return float(out[0]) if (sa and sb) else out


def beta_log_moments(alpha, beta):
    """Mean and variance of log(p) for p ~ Beta(alpha, beta).

    Returns (mean_log, var_log) with mean_log = psi(alpha) -
    psi(alpha+beta) and var_log = psi_1(alpha) - psi_1(alpha+beta).
    The raw second moment E[(log p)^2] is var_log + mean_log**2.
    """
    aa, _ = _validated(alpha, "alpha")
    bb, _ = _validated(beta, "beta")
    total = aa + bb
    # digamma and trigamma return floats for 0-d input, so scalars give floats
    return digamma(aa) - digamma(total), trigamma(aa) - trigamma(total)


def _shifted_levels(lam: float, k: int) -> np.ndarray:
    """lam + j for j = 1..k; requires lam >= 0, k >= 1."""
    if not (lam >= 0.0 and math.isfinite(lam)):
        raise ValueError("lam must be finite and >= 0")
    if k < 1:
        raise ValueError("k must be >= 1")
    return lam + np.arange(1.0, k + 1.0)


def harmonic_sum(lam: float, k: int) -> float:
    """sum_{j=1..k} 1/(lam + j), the finite-sum form of
    psi(lam+k+1) - psi(lam+1)."""
    return float(np.sum(1.0 / _shifted_levels(lam, k)))


def harmonic_sum_sq(lam: float, k: int) -> float:
    """sum_{j=1..k} 1/(lam + j)^2, the finite-sum form of
    psi_1(lam+1) - psi_1(lam+k+1)."""
    j = _shifted_levels(lam, k)
    return float(np.sum(1.0 / (j * j)))


def _tail_multiplicity(u: np.ndarray, c: np.ndarray) -> np.ndarray:
    """m[t-1] = #{i : k_i >= t} for t = 1..max(u), from the distinct
    counts u (ascending, >= 0) and their multiplicities c."""
    return np.repeat(c[::-1].cumsum()[::-1], np.diff(u, prepend=0))


def pooled_harmonic_sum(lam: float, data, method: str = "polygamma") -> float:
    """sum_i sum_{j=1..k_i} 1/(lam + j) over a whole CountSample, read
    through its cached histogram. The "polygamma" form
    sum_u c_u psi(lam+1+u) - N psi(lam+1) costs one digamma per
    distinct count. The "finite" form sums reciprocals grouped by tail
    multiplicity over an array of length max(k); it is the reference
    route the tests compare against.
    """
    u, c = data.histogram()
    if method == "finite":
        m = _tail_multiplicity(u, c)
        j = lam + np.arange(1.0, len(m) + 1.0)
        return float(np.sum(m / j))
    if method == "polygamma":
        return float(np.sum(c * digamma(lam + 1.0 + u)) - c.sum() * digamma(lam + 1.0))
    raise ValueError(f"unknown method {method!r}")


def pooled_harmonic_sum_sq(lam: float, data, method: str = "polygamma") -> float:
    """sum_i sum_{j=1..k_i} 1/(lam + j)^2 over a whole count sample;
    arguments as for pooled_harmonic_sum."""
    u, c = data.histogram()
    if method == "finite":
        m = _tail_multiplicity(u, c)
        j = lam + np.arange(1.0, len(m) + 1.0)
        return float(np.sum(m / (j * j)))
    if method == "polygamma":
        return float(c.sum() * trigamma(lam + 1.0) - np.sum(c * trigamma(lam + 1.0 + u)))
    raise ValueError(f"unknown method {method!r}")


class HistogramStack:
    """The count histograms of several CountSamples laid end to end.

    Values are spread over the stack one per sample (spread), special
    functions act on the whole stack in one call (polygamma), and the
    per-sample sums reduce each sample's own slice with the expressions
    a lone histogram takes, c @ x and np.sum(c * x). The functions act
    elementwise, so a sample's results do not depend on which samples
    share its stack, and a stack of one sample reproduces the
    one-sample arithmetic bit for bit."""

    def __init__(self, samples):
        hists = [s.histogram() for s in samples]
        self.n = [int(c.sum()) for _, c in hists]
        self.lengths = [u.size for u, _ in hists]
        none = np.zeros(0, dtype=np.int64)  # a stack of no samples is empty
        self.u = np.concatenate([none, *(u for u, _ in hists)]).astype(np.float64)
        self.c = np.concatenate([none, *(c for _, c in hists)])
        ends = np.cumsum(self.lengths).tolist()
        self._slices = [slice(e - m, e) for e, m in zip(ends, self.lengths)]

    def spread(self, values) -> np.ndarray:
        """values[r] repeated over the histogram of sample r."""
        return np.repeat(np.asarray(values, dtype=np.float64), self.lengths)

    def polygamma(self, fn, lams) -> tuple[np.ndarray, np.ndarray]:
        """fn(lam_r + 1 + u) over the stack and fn(lam_r + 1) per sample,
        from one call of fn."""
        lam1 = np.asarray(lams, dtype=np.float64) + 1.0
        out = fn(np.concatenate([self.spread(lam1) + self.u, lam1]))
        return out[: self.u.size], out[self.u.size :]

    def dots(self, x: np.ndarray) -> list:
        """c @ x per sample."""
        return [self.c[s] @ x[s] for s in self._slices]

    def weighted_sums(self, x: np.ndarray) -> list:
        """np.sum(c * x) per sample."""
        cx = self.c * x
        return [cx[s].sum() for s in self._slices]
