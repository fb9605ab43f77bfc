"""Numerically stable log-gamma, digamma, trigamma and the pooled
harmonic sums, in pure float64 arithmetic: arguments below 6 are
shifted upward with the standard recurrences, and the asymptotic
(de Moivre / Bernoulli) series of ten terms is a few ulp off at the
threshold. Scalars or numpy arrays in, broadcast like numpy ufuncs.

The pooled sums S_p = sum_i sum_{j=1..k_i} (lam + j)^-p, p = 1, 2, of
the EM update, the Oakes information and the rate of convergence are
sum_u c_u sum_{j=1..u} (lam + j)^-p over the count histogram (distinct
counts u, multiplicities c). HistogramStack forms them for several
samples laid end to end, S1 alone (s1) or both (sums), from a table of
1/(lam + j) for the first 64 terms of each count and a cancellation-free
series for the rest; every summand is positive, so the sums keep their
digits at every lam, and a pass makes a fixed number of numpy calls.
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
    acc = coef[-1] * r2
    acc += coef[-2]
    for c in coef[-3::-1]:
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


# HistogramStack's table width. Its tail series starts at z = lam +
# _TABLE + 1 >= 65, where four Bernoulli terms reach float precision: the
# first term left out is below 4e-18 of the tail's first summand.
_TABLE = 64
_STEPS = np.arange(1.0, _TABLE + 1.0)
_TAIL_PSI = _DIGAMMA_COEF[:4]
_TAIL_PSI1 = _BERNOULLI[:4]


def pooled_harmonic_sum(lam: float, data) -> float:
    """sum_i sum_{j=1..k_i} 1/(lam + j) over a whole CountSample, the
    one-sample call of HistogramStack.s1."""
    return HistogramStack([data]).s1([_check_lambda(lam)])[0]


def pooled_harmonic_sum_sq(lam: float, data) -> float:
    """sum_i sum_{j=1..k_i} 1/(lam + j)^2 over a whole CountSample, from
    the one-sample joint pass HistogramStack.sums."""
    return HistogramStack([data]).sums([_check_lambda(lam)])[0][1]


class HistogramStack:
    """The count histograms of several CountSamples laid end to end, and
    the pooled sums of every sample r at its own lam_r,

        S1 = sum_u c_u sum_{j=1..u} 1/(lam_r + j),  S2 the same of squares,

    over its distinct counts u (multiplicities c), from a fixed number of
    numpy calls however many samples and counts the stack holds.

    Sample r has a table row T_r[j] = sum_{i<=j} 1/(lam_r + i), j <=
    _TABLE, and a count u reads its cell min(u, _TABLE). A count above
    _TABLE adds psi(z+d) - psi(z), the sum over j = _TABLE+1..u, with
    z = lam_r + _TABLE + 1 and d = u - _TABLE, taken without cancellation:

        log1p(d/z) + d/(2z(z+d)) - [S(z+d) - S(z)],

    S the Bernoulli tail of the digamma series. The tail of S2 is
    d/(z(z+d)) + d(2z+d)/(2z^2(z+d)^2) + [T(z) - T(z+d)], T that of the
    trigamma series. No summand is negative, so the sums keep their
    digits at every lam >= 0. Each sample's summands are added over its
    own slice of the stack, so its sums do not depend on which samples
    share the stack, and a stack of one gives the one-sample bits."""

    def __init__(self, samples):
        hists = [s.histogram() for s in samples]
        none = np.zeros(0, dtype=np.int64)  # a stack of no samples is empty
        u = np.concatenate([none, *(values for values, _ in hists)])
        c = np.concatenate([none, *(counts for _, counts in hists)])
        sizes = np.array([values.size for values, _ in hists], dtype=np.intp)
        # where each sample's slice starts; no sample is empty
        self._starts = np.cumsum(sizes) - sizes
        self.n = np.add.reduceat(c, self._starts).tolist()
        self._c = c.astype(np.float64)
        row = np.repeat(np.arange(sizes.size), sizes)
        # cells from the int64 counts: a float count near 2**63 would wrap
        self._cell = row * _TABLE + np.minimum(u, _TABLE) - 1
        self._tail_at = np.flatnonzero(u > _TABLE)
        self._tail_row = row.take(self._tail_at)
        self._d = (u.take(self._tail_at) - _TABLE).astype(np.float64)

    def s1(self, lams) -> list[float]:
        """S1 of every sample at its lam; the lams are not checked here."""
        return self._pass(lams, squares=False).tolist()

    def sums(self, lams) -> list[tuple[float, float]]:
        """(S1, S2) of every sample at its lam from one joint pass; a lam
        of inf gets NaN sums, quietly."""
        lam = np.asarray(lams, dtype=np.float64)
        s1, s2 = self._pass(lam, squares=True)
        with np.errstate(invalid="ignore"):
            nan_at_inf = lam - lam
        return list(zip((s1 + nan_at_inf).tolist(), (s2 + nan_at_inf).tolist()))

    def _pass(self, lams, squares: bool):
        lam = np.asarray(lams, dtype=np.float64)
        rows, at, d = lam.size, self._tail_row, self._d
        inv = 1.0 / np.add.outer(lam, _STEPS)
        z_row = lam + (_TABLE + 1.0)
        z = z_row.take(at)
        w = d / z
        # 1/z of each sample, then 1/(z+d) of each count above the table
        h = 1.0 / np.concatenate([z_row, z + d])
        h2 = h * h
        q = h[rows:]
        s = h2 * _poly(_TAIL_PSI, h2)
        tail = np.log1p(w) + 0.5 * w * q + (s.take(at) - s[rows:])
        s1 = self._per_sample(np.cumsum(inv, axis=1), tail)
        if not squares:
            return s1
        t = h * h2 * _poly(_TAIL_PSI1, h2)
        tail = w * q * (1.0 + 0.5 * (h.take(at) + q)) + (t.take(at) - t[rows:])
        return s1, self._per_sample(np.cumsum(inv * inv, axis=1), tail)

    def _per_sample(self, table: np.ndarray, tail: np.ndarray) -> np.ndarray:
        """Each sample's sum of c times its table cell and its tail."""
        summands = table.take(self._cell)
        summands[self._tail_at] += tail
        summands *= self._c
        return np.add.reduceat(summands, self._starts)
