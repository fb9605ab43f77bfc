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
    the recurrence correction."""
    z = np.atleast_1d(z).copy()
    adj = np.zeros_like(z)
    mask = z < _SHIFT
    while mask.any():
        adj[mask] += term(z[mask], *(x[mask] for x in args))
        z[mask] += 1.0
        mask = z < _SHIFT
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
    """ln B(a, b) = ln Gamma(a) - D(b, a), with D = _log_gamma_ratio, so
    the digits hold where b is huge and ln Gamma(b) alone is ~b log b."""
    aa, sa = _validated(a, "a")
    bb, sb = _validated(b, "b")
    out = log_gamma(aa) - _log_gamma_ratio(bb, aa)
    return float(out[0]) if (sa and sb) else out


def beta_log_moments(alpha, beta):
    """Mean and variance of log(p) for p ~ Beta(alpha, beta).

    Returns (mean_log, var_log) with mean_log = psi(alpha) -
    psi(alpha+beta) and var_log = psi_1(alpha) - psi_1(alpha+beta).
    The raw second moment E[(log p)^2] is var_log + mean_log**2.
    """
    aa, sa = _validated(alpha, "alpha")
    bb, sb = _validated(beta, "beta")
    total = aa + bb
    mean_log = digamma(aa) - digamma(total)
    var_log = trigamma(aa) - trigamma(total)
    if sa and sb:
        return float(mean_log), float(var_log)
    return mean_log, var_log


def harmonic_sum(lam: float, k: int) -> float:
    """sum_{j=1..k} 1/(lam + j), the finite-sum form of
    psi(lam+k+1) - psi(lam+1). Requires lam >= 0, k >= 1."""
    if not (lam >= 0.0 and math.isfinite(lam)):
        raise ValueError("lam must be finite and >= 0")
    if k < 1:
        raise ValueError("k must be >= 1")
    return float(np.sum(1.0 / (lam + np.arange(1.0, k + 1.0))))


def harmonic_sum_sq(lam: float, k: int) -> float:
    """sum_{j=1..k} 1/(lam + j)^2, the finite-sum form of
    psi_1(lam+1) - psi_1(lam+k+1)."""
    if not (lam >= 0.0 and math.isfinite(lam)):
        raise ValueError("lam must be finite and >= 0")
    if k < 1:
        raise ValueError("k must be >= 1")
    j = lam + np.arange(1.0, k + 1.0)
    return float(np.sum(1.0 / (j * j)))


def _histogram(counts) -> tuple[np.ndarray, np.ndarray]:
    """(u, c) of a CountSample (its cache) or of a raw count array."""
    if hasattr(counts, "histogram"):
        return counts.histogram()
    return np.unique(np.asarray(counts), return_counts=True)


def _tail_multiplicity(u: np.ndarray, c: np.ndarray) -> np.ndarray:
    """m[t-1] = #{i : k_i >= t} for t = 1..max(u), from the distinct
    counts u (ascending, >= 0) and their multiplicities c."""
    return np.repeat(c[::-1].cumsum()[::-1], np.diff(u, prepend=0))


def pooled_harmonic_sum(lam: float, counts, method: str = "polygamma") -> float:
    """sum_i sum_{j=1..k_i} 1/(lam + j) over a whole count sample.

    counts is a CountSample (its cached histogram is read) or a raw
    count array. The "polygamma" form sum_u c_u psi(lam+1+u) -
    N psi(lam+1) costs one digamma per distinct count. The "finite" form
    sums reciprocals grouped by tail multiplicity over an array of
    length max(k); it is the reference route the tests compare against.
    """
    u, c = _histogram(counts)
    if method == "finite":
        m = _tail_multiplicity(u, c)
        j = lam + np.arange(1.0, len(m) + 1.0)
        return float(np.sum(m / j))
    if method == "polygamma":
        return float(np.sum(c * digamma(lam + 1.0 + u)) - c.sum() * digamma(lam + 1.0))
    raise ValueError(f"unknown method {method!r}")


def pooled_harmonic_sum_sq(lam: float, counts, method: str = "polygamma") -> float:
    """sum_i sum_{j=1..k_i} 1/(lam + j)^2 over a whole count sample;
    arguments as for pooled_harmonic_sum."""
    u, c = _histogram(counts)
    if method == "finite":
        m = _tail_multiplicity(u, c)
        j = lam + np.arange(1.0, len(m) + 1.0)
        return float(np.sum(m / (j * j)))
    if method == "polygamma":
        return float(c.sum() * trigamma(lam + 1.0) - np.sum(c * trigamma(lam + 1.0 + u)))
    raise ValueError(f"unknown method {method!r}")
