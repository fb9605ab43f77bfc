"""Numerically stable log-gamma, digamma, trigamma and the pooled
harmonic sums built on them, in pure float64 arithmetic: arguments below
6 are shifted upward with the standard recurrences, and the asymptotic
(de Moivre / Bernoulli) series of ten terms is a few ulp off at the
threshold. Scalars or numpy arrays in, broadcast like numpy ufuncs.

The pooled sums S_p = sum_i sum_{j=1..k_i} (lam + j)^-p, p = 1, 2, of
the EM update, the Oakes information and the rate of convergence are
sum_u c_u fn(lam+1+u) - N fn(lam+1) over the count histogram (distinct
counts u, multiplicities c). HistogramStack.pooled forms it for several
samples laid end to end from one call of digamma, trigamma, or the joint
kernel _polygammas (both, in HistogramStack.sums).
"""

from __future__ import annotations

import math
import re
import sys
import warnings

import numpy as np

__all__ = [
    "log_gamma",
    "digamma",
    "trigamma",
    "log_beta",
    "beta_log_moments",
    "pooled_harmonic_sum",
    "pooled_harmonic_sum_sq",
    "HistogramStack",
]

_SHIFT = 6.0
_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)

# B_2n for n = 1..10
_BERNOULLI = np.array([1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510,
                       43867 / 798, -174611 / 330])
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
    # Horner evaluation of sum coef[n] * r2**n, n = 0..len-1, in place
    acc = np.full_like(r2, coef[-1])
    for c in coef[-2::-1]:
        acc *= r2
        acc += c
    return acc


def _shift_up(z: np.ndarray, term, *args) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raise every argument below _SHIFT by whole steps until none is
    left, summing term(z, *args) (one array or a tuple of them; args have
    z's shape) over the values stepped past. Returns the shifted z (a
    copy if any moved), the mask low of those that moved, and the sums in
    the order of z[low], the correction the caller applies at low. A
    step adds term only where its argument is still below _SHIFT, so
    each value gets the same additions in the same order as alone."""
    z = np.atleast_1d(z)
    low = z < _SHIFT
    zl = z[low]
    rest = [x[low] for x in args]
    acc = np.asarray(term(zl, *rest))  # every gathered value takes the first step
    zl += 1.0
    mask = zl < _SHIFT
    while mask.any():
        np.add(acc, term(zl, *rest), out=acc, where=mask)
        np.add(zl, 1.0, out=zl, where=mask)
        np.less(zl, _SHIFT, out=mask)
    if zl.size:
        z = z.copy()
        z[low] = zl
    return z, low, acc


def _series(z: np.ndarray) -> np.ndarray:
    """S(z), the Bernoulli tail of the Stirling series for ln Gamma(z)."""
    r = 1.0 / z
    return r * _poly(_LGAMMA_COEF, r * r)


def _psi_series(z: np.ndarray, r: np.ndarray, r2: np.ndarray) -> np.ndarray:
    # psi(z) for z >= _SHIFT, from r = 1/z and r2 = r*r
    return np.log(z) - 0.5 * r - r2 * _poly(_DIGAMMA_COEF, r2)


def _psi1_series(r: np.ndarray, r2: np.ndarray) -> np.ndarray:
    # psi_1(z) for z >= _SHIFT, from r = 1/z and r2 = r*r
    return r + 0.5 * r2 + r * r2 * _poly(_BERNOULLI, r2)


def log_gamma(x):
    """ln Gamma(x) for x > 0."""
    z, scalar = _validated(x, "x")
    z, low, adj = _shift_up(z, np.log)
    out = (z - 0.5) * np.log(z) - z + _HALF_LN_2PI + _series(z)
    out[low] -= adj
    return float(out[0]) if scalar else out


def digamma(x):
    """psi(x) = d/dx ln Gamma(x) for x > 0; psi(x+1) = psi(x) + 1/x to
    float precision."""
    z, scalar = _validated(x, "x")
    z, low, adj = _shift_up(z, lambda v: 1.0 / v)
    r = 1.0 / z
    out = _psi_series(z, r, r * r)
    out[low] -= adj
    return float(out[0]) if scalar else out


def trigamma(x):
    """psi_1(x) = d/dx psi(x) for x > 0; psi_1(x+1) = psi_1(x) - 1/x^2,
    and psi_1(1) is the Basel sum pi^2/6."""
    z, scalar = _validated(x, "x")
    z, low, adj = _shift_up(z, lambda v: 1.0 / (v * v))
    r = 1.0 / z
    out = _psi1_series(r, r * r)
    out[low] += adj
    return float(out[0]) if scalar else out


def _polygammas(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(digamma(x), trigamma(x)) bit for bit, for an array x > 0
    unchecked: each argument is shifted up once, summing 1/v and 1/v^2."""
    z, low, (adj1, adj2) = _shift_up(x, lambda v: (1.0 / v, 1.0 / (v * v)))
    r = 1.0 / z
    r2 = r * r
    psi, psi1 = _psi_series(z, r, r2), _psi1_series(r, r2)
    psi[low] -= adj1
    psi1[low] += adj2
    return psi, psi1


def _log_gamma_ratio(b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """D(b, a) = ln Gamma(b+a) - ln Gamma(b), taken as one difference
    that never forms ln Gamma(b): b is shifted up to z >= 6 through
    D(v, a) = D(v+1, a) - log1p(a/v), then

        D(z, a) = (z - 1/2) log1p(a/z) + a log(z+a) - a + S(z+a) - S(z)

    with S the Stirling tail. No term grows like b log b, so the digits
    hold for b up to the int64 limit."""
    a, b = np.broadcast_arrays(np.atleast_1d(a), b)
    z, low, adj = _shift_up(b, lambda v, av: np.log1p(av / v), a)
    x = z + a
    out = (z - 0.5) * np.log1p(a / z) + a * np.log(x) - a + _series(x) - _series(z)
    out[low] -= adj
    return out


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


class FieldError(ValueError):
    """ValueError about the values of fields, kept as a str.format
    template: a slot {field} names each field checked, unnumbered slots {}
    take the values. str() names each field as the library does (the
    field, or names[field]); rename(names) as the caller does, where it can."""

    def __init__(self, template: str, *values, **names: str):
        self.template, self.values = template, values
        self.fields = {field: names.get(field, field) for field in re.findall(r"{(\w+)}", template)}
        super().__init__(self.rename({}))

    def rename(self, names) -> str:
        return self.template.format(*self.values, **{**self.fields, **names})


def _warn(message: str) -> None:
    """Issue message as a RuntimeWarning that names the first frame
    outside this package, the caller's line however deep in the package
    it arose; warnings.warn's skip_file_prefixes does this from Python
    3.12 on."""
    frame, stacklevel = sys._getframe(1), 2
    while frame is not None and frame.f_globals.get("__name__", "").startswith(f"{__package__}."):
        frame, stacklevel = frame.f_back, stacklevel + 1
    warnings.warn(message, RuntimeWarning, stacklevel=stacklevel)


def _check_lambda(lam: float, field: str = "lam") -> float:
    """lam as a float; FieldError on field (lam reads as lambda) unless
    it is positive and finite."""
    lam = float(lam)
    if not (lam > 0.0 and math.isfinite(lam)):
        raise FieldError("{%s} must be positive and finite" % field, lam="lambda")
    return lam


def pooled_harmonic_sum(lam: float, data) -> float:
    """sum_i sum_{j=1..k_i} 1/(lam + j) over a whole CountSample, read
    through its cached histogram as sum_u c_u psi(lam+1+u) - N psi(lam+1):
    one digamma per distinct count."""
    return HistogramStack([data]).pooled(digamma, [_check_lambda(lam)])[0]


def pooled_harmonic_sum_sq(lam: float, data) -> float:
    """sum_i sum_{j=1..k_i} 1/(lam + j)^2 over a whole CountSample, as
    N psi_1(lam+1) - sum_u c_u psi_1(lam+1+u)."""
    return -HistogramStack([data]).pooled(trigamma, [_check_lambda(lam)])[0]


class HistogramStack:
    """The count histograms of several CountSamples laid end to end: a
    special function acts on the whole stack in one call (pooled), and
    each sample's sum reduces its own slice of the result. The functions
    act elementwise, so a sample's results do not depend on which samples
    share its stack, and a stack of one gives the one-sample bits."""

    def __init__(self, samples):
        hists = [s.histogram() for s in samples]
        self.n = [int(c.sum()) for _, c in hists]
        self.lengths = [u.size for u, _ in hists]
        none = np.zeros(0, dtype=np.int64)  # a stack of no samples is empty
        self.u = np.concatenate([none, *(u for u, _ in hists)]).astype(np.float64)
        self.c = np.concatenate([none, *(c for _, c in hists)])
        ends = np.cumsum(self.lengths).tolist()
        self._slices = [slice(e - m, e) for e, m in zip(ends, self.lengths)]

    def pooled(self, fn, lams) -> list:
        """sum_u c_u fn(lam_r+1+u) - N_r fn(lam_r+1) for every sample r,
        from one call of fn over the stack: S1 with fn = digamma, -S2 with
        trigamma, and a tuple of sums from a kernel that returns a tuple
        of arrays. The lams are not checked here."""
        lam1 = np.asarray(lams, dtype=np.float64) + 1.0
        outs = fn(np.concatenate([np.repeat(lam1, self.lengths) + self.u, lam1]))
        if not isinstance(outs, tuple):
            return self._reduce(outs)
        return list(zip(*map(self._reduce, outs)))

    def sums(self, lams) -> list[tuple[float, float]]:
        """(S1, S2) of every sample at its lam from one pass of the joint
        kernel; a lam of inf gets NaN sums, quietly. S2 is 0.0 - x, not -x,
        so one that underflowed to 0 reads +0.0."""
        with np.errstate(invalid="ignore"):
            sums = self.pooled(_polygammas, lams)
        return [(s1, 0.0 - minus_s2) for s1, minus_s2 in sums]

    def _reduce(self, out: np.ndarray) -> list[float]:
        cx = self.c * out[: self.u.size]
        return [
            float(cx[s].sum() - n * f1)
            for s, n, f1 in zip(self._slices, self.n, out[self.u.size :])
        ]
