import math
import sys

import mpmath as mp
import numpy as np
import pytest

from yulesimon import CountSample, RngStream, sample_mixture
from yulesimon.special import (
    HistogramStack,
    beta_log_moments,
    digamma,
    log_beta,
    log_gamma,
    pooled_harmonic_sum,
    pooled_harmonic_sum_sq,
    trigamma,
)

from _oracles import finite_pooled_sum, finite_pooled_sum_sq, harmonic_sum, harmonic_sum_sq

EULER_GAMMA = 0.5772156649015329
BASEL = math.pi**2 / 6.0

# frozen 1e7-draw Monte Carlo over Beta(2,3) log-values, seed 20260809
MC_BETA23_VAR_LOG = 0.42304874556378447
MC_BETA23_MEAN_LOG = -1.0830212486837922


def test_log_gamma_known_points():
    assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-13)
    assert log_gamma(2.0) == pytest.approx(0.0, abs=1e-13)
    assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-13)


def test_log_gamma_against_mpmath_grid():
    rng = np.random.default_rng(1)
    x = np.exp(rng.uniform(math.log(1e-6), math.log(1e8), size=400))
    ours = log_gamma(x)
    for xi, got in zip(x, ours):
        ref = float(mp.loggamma(mp.mpf(float(xi))))
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))


def test_digamma_known_points():
    assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-13)
    assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-13)


def test_digamma_recurrence_spot_values():
    for x in (0.5, 1.0, 3.7):
        assert digamma(x + 1.0) - digamma(x) == pytest.approx(1.0 / x, abs=1e-12)


def test_digamma_against_mpmath_grid():
    rng = np.random.default_rng(2)
    x = np.exp(rng.uniform(math.log(1e-2), math.log(1e4), size=400))
    ours = digamma(x)
    for xi, got in zip(x, ours):
        ref = float(mp.digamma(mp.mpf(float(xi))))
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))


def test_trigamma_known_points():
    assert trigamma(1.0) == pytest.approx(BASEL, abs=1e-12)
    assert trigamma(2.0) == pytest.approx(BASEL - 1.0, abs=1e-12)


def test_trigamma_recurrence_spot_values():
    for x in (1.0, 2.5):
        assert trigamma(x + 1.0) - trigamma(x) == pytest.approx(-1.0 / x**2, abs=1e-12)


def test_trigamma_against_mpmath_grid():
    rng = np.random.default_rng(3)
    x = np.exp(rng.uniform(math.log(1e-2), math.log(1e4), size=400))
    ours = trigamma(x)
    for xi, got in zip(x, ours):
        ref = float(mp.polygamma(1, mp.mpf(float(xi))))
        assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref))


def test_recurrence_residuals_random():
    rng = np.random.default_rng(4)
    x = rng.uniform(1e-3, 1e3, size=1000)
    res_psi = digamma(x + 1.0) - digamma(x) - 1.0 / x
    res_psi1 = trigamma(x + 1.0) - trigamma(x) + 1.0 / x**2
    assert np.max(np.abs(res_psi)) <= 1e-12
    assert np.max(np.abs(res_psi1)) <= 1e-12


def test_log_beta_known_points():
    assert log_beta(2.0, 1.0) == pytest.approx(math.log(0.5), abs=1e-13)
    assert log_beta(1.0, 1.0) == pytest.approx(0.0, abs=1e-13)
    ref = float(mp.loggamma(2.5) + mp.loggamma(3) - mp.loggamma(5.5))
    assert log_beta(2.5, 3.0) == pytest.approx(ref, abs=1e-13)


@pytest.mark.parametrize("b", [1.0, 2.5, 5.5, 6.0, 100.0, 1e6, 1e12, 2.0**62])
def test_log_beta_against_mpmath_up_to_the_int64_limit(b):
    # the likelihood's log B(lam+1, k): a = lam+1 over the rates, b = k
    # up to the generator cap, where ln Gamma(b) alone is ~2e20
    a = np.exp(np.linspace(math.log(1.02), math.log(51.0), 40))
    ours = log_beta(a, b)
    with mp.workdps(50):
        for ai, got in zip(a, ours):
            x, y = mp.mpf(float(ai)), mp.mpf(b)
            ref = float(mp.loggamma(x) + mp.loggamma(y) - mp.loggamma(x + y))
            assert abs(got - ref) <= 1e-13 * max(1.0, abs(ref)), (ai, b)


def test_log_beta_is_symmetric():
    a = np.exp(np.linspace(math.log(1e-3), math.log(2.0**62), 200))
    b = a[::-1]
    assert np.array_equal(log_beta(a, b), log_beta(b, a))
    assert log_beta(51.0, 1.0) == log_beta(1.0, 51.0)


def test_beta_log_moments_uniform_cases():
    mean_log, _ = beta_log_moments(1.0, 1.0)
    assert mean_log == pytest.approx(-1.0, abs=1e-13)
    mean_log, _ = beta_log_moments(2.0, 1.0)
    assert mean_log == pytest.approx(-0.5, abs=1e-13)


def test_beta_log_moments_vs_frozen_monte_carlo():
    mean_log, var_log = beta_log_moments(2.0, 3.0)
    assert var_log == pytest.approx(MC_BETA23_VAR_LOG, abs=1e-3)
    assert mean_log == pytest.approx(MC_BETA23_MEAN_LOG, abs=1e-3)


def test_beta_log_moments_second_raw_moment_identity():
    # E[(log p)^2] recovered as var + mean^2, checked by quadrature
    mean_log, var_log = beta_log_moments(2.0, 3.0)
    raw2 = float(
        mp.quad(lambda p: (mp.log(p)) ** 2 * 12 * p * (1 - p) ** 2, [0, 1])
    )
    assert var_log + mean_log**2 == pytest.approx(raw2, rel=1e-10)


def test_finite_sum_identity_digamma():
    rng = np.random.default_rng(5)
    for _ in range(50):
        lam = rng.uniform(0.0, 20.0)
        k = int(rng.integers(1, 10_001))
        lhs = digamma(lam + k + 1.0) - digamma(lam + 1.0)
        assert abs(lhs - harmonic_sum(lam, k)) <= 1e-12


def test_finite_sum_identity_trigamma():
    rng = np.random.default_rng(6)
    for _ in range(50):
        lam = rng.uniform(0.0, 20.0)
        k = int(rng.integers(1, 10_001))
        lhs = trigamma(lam + 1.0) - trigamma(lam + k + 1.0)
        assert abs(lhs - harmonic_sum_sq(lam, k)) <= 1e-12


def test_digamma_is_derivative_of_log_gamma():
    for x in (0.3, 1.0, 2.7, 15.0, 400.0):
        h = 1e-5 * max(1.0, x)
        fd = (log_gamma(x + h) - log_gamma(x - h)) / (2.0 * h)
        assert digamma(x) == pytest.approx(fd, abs=1e-6)


def test_trigamma_is_derivative_of_digamma():
    for x in (0.3, 1.0, 2.7, 15.0, 400.0):
        h = 1e-5 * max(1.0, x)
        fd = (digamma(x + h) - digamma(x - h)) / (2.0 * h)
        assert trigamma(x) == pytest.approx(fd, abs=1e-6)


def test_pooled_sums_methods_agree():
    rng = np.random.default_rng(7)
    for _ in range(20):
        counts = CountSample(rng.integers(1, 500, size=rng.integers(1, 300)))
        lam = rng.uniform(0.0, 10.0)
        fin = finite_pooled_sum(lam, counts)
        pol = pooled_harmonic_sum(lam, counts)
        assert fin == pytest.approx(pol, rel=1e-12)
        fin2 = finite_pooled_sum_sq(lam, counts)
        pol2 = pooled_harmonic_sum_sq(lam, counts)
        assert fin2 == pytest.approx(pol2, rel=1e-12)


def test_pooled_sum_matches_direct_loop():
    counts = CountSample([1, 5, 3, 3])
    lam = 0.7
    direct = sum(harmonic_sum(lam, int(k)) for k in counts.counts)
    assert pooled_harmonic_sum(lam, counts) == pytest.approx(direct, rel=1e-14)
    direct2 = sum(harmonic_sum_sq(lam, int(k)) for k in counts.counts)
    assert pooled_harmonic_sum_sq(lam, counts) == pytest.approx(direct2, rel=1e-14)


def stack_samples():
    """Samples whose counts sit on both sides of the table's last cell,
    one held by the table alone, and one with counts near the int64
    limit."""
    return [CountSample([64, 65, 1, 64, 200]), CountSample([2, 3, 1]),
            sample_mixture(0.6, 500, RngStream(9)), CountSample([2**63 - 1, 5, 2**62])]


def test_stacked_sums_are_each_samples_own_bit_for_bit():
    samples = stack_samples()
    lams = [0.0, 1.3, 0.6, 1e16]
    s1 = HistogramStack(samples).s1(lams)
    sums = HistogramStack(samples).sums(lams)
    alone = [HistogramStack([data]).sums([lam])[0] for data, lam in zip(samples, lams)]
    assert [x.hex() for x in s1] == [s.hex() for s, _ in sums]
    assert [(a.hex(), b.hex()) for a, b in sums] == [(a.hex(), b.hex()) for a, b in alone]
    assert HistogramStack(samples).n == [data.n for data in samples]


def _calls(fn) -> int:
    """How many Python and C functions fn calls."""
    events = []
    sys.setprofile(lambda frame, event, arg: events.append(event))
    try:
        fn()
    finally:
        sys.setprofile(None)
    return events.count("call") + events.count("c_call")


def test_a_pass_makes_as_many_calls_for_one_small_sample_as_for_a_stack():
    """No loop of the kernel runs per sample, per count or per shift."""
    small, big = HistogramStack([CountSample([2, 3, 1])]), HistogramStack(stack_samples())
    lams = [0.6, 0.0, 7.5, 1e300]
    assert _calls(lambda: small.s1(lams[:1])) == _calls(lambda: big.s1(lams))
    assert _calls(lambda: small.sums(lams[:1])) == _calls(lambda: big.sums(lams))


@pytest.mark.parametrize("fn", [pooled_harmonic_sum, pooled_harmonic_sum_sq])
@pytest.mark.parametrize("lam", [-0.5, -3.0, 0.0, math.nan, math.inf])
def test_pooled_sums_refuse_lambda_outside_the_model(fn, lam):
    with pytest.raises(ValueError, match="lambda"):
        fn(lam, CountSample([1, 2, 3]))


@pytest.mark.parametrize("fn", [log_gamma, digamma, trigamma])
@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_domain_errors(fn, bad):
    with pytest.raises(ValueError):
        fn(bad)


def test_log_beta_domain_errors():
    with pytest.raises(ValueError):
        log_beta(-1.0, 2.0)
    with pytest.raises(ValueError):
        log_beta(1.0, 0.0)
    with pytest.raises(ValueError):
        beta_log_moments(0.0, 1.0)


def test_vectorized_matches_scalar():
    x = np.array([0.5, 1.0, 7.3, 123.4])
    assert np.allclose(log_gamma(x), [log_gamma(v) for v in x], rtol=0, atol=0)
    assert np.allclose(digamma(x), [digamma(v) for v in x], rtol=0, atol=0)
    assert np.allclose(trigamma(x), [trigamma(v) for v in x], rtol=0, atol=0)


def test_two_dimensional_arguments_match_the_flat_ones_bit_for_bit():
    # arguments on both sides of the shift threshold, so the recurrence
    # gathers some entries of each row and none of others
    x = np.array([[0.5, 7.3, 2.0], [123.4, 1.0, 3.5]])
    y = np.array([[3.0, 0.25, 900.0], [2.0, 2.0**62, 6.5]])
    for fn in (log_gamma, digamma, trigamma):
        assert fn(x).tobytes() == fn(x.ravel()).reshape(x.shape).tobytes()
        column = x.reshape(-1, 1)
        assert fn(column).tobytes() == fn(x.ravel()).reshape(column.shape).tobytes()
    flat = log_beta(x.ravel(), y.ravel())
    assert log_beta(x, y).tobytes() == flat.reshape(x.shape).tobytes()
    # a row against a column broadcasts to the full grid
    grid = log_beta(x[0][:, None], y[1][None, :])
    want = log_beta(np.repeat(x[0], 3), np.tile(y[1], 3)).reshape(3, 3)
    assert grid.tobytes() == want.tobytes()
