"""Properties of the count-histogram core and of the paper's EM
invariants over the whole parameter range: lambda in [0.02, 50], samples
of up to 10^5 counts (3000 for the fits), counts up to the int64 limit."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from yulesimon import (
    CountSample,
    FitConfig,
    RngStream,
    em_fit,
    em_map_jacobian,
    louis_information,
    oakes_information,
    rate_theoretical,
    sample_mixture,
)
from yulesimon.special import pooled_harmonic_sum, pooled_harmonic_sum_sq

# a fixed example sequence, so the suite is reproducible run to run
reproducible = settings(derandomize=True, database=None, deadline=None, max_examples=60)

lambdas = st.floats(min_value=0.02, max_value=50.0)
# the same range on a log grid, so the heavy tails of small rates show up
# in the data as often as the light tails of large ones
log_lambdas = st.integers(0, 1000).map(lambda i: 0.02 * 2500.0 ** (i / 1000))


def magnitudes(top: int):
    """Integers from 1 to top, spread over every power of ten: d * 10**e."""
    digits = len(str(top)) - 1
    return st.builds(lambda d, e: min(d * 10**e, top), st.integers(1, 10), st.integers(0, digits))


@st.composite
def mixture_samples(draw, max_count=None, max_n=100_000, rates=log_lambdas):
    """Yule-Simon samples of 1..max_n counts at a drawn rate; with
    max_count, counts above a drawn cap are set to the cap. Small rates
    reach the generator's 2**62 cap, which is expected here."""
    lam = draw(rates)
    n = draw(magnitudes(max_n))
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "sample_mixture clipped", RuntimeWarning)
        counts = sample_mixture(lam, n, RngStream(draw(st.integers(0, 2**32 - 1))))[0].counts
    if max_count is not None:
        counts = np.minimum(counts, draw(magnitudes(max_count)))
    return counts


@reproducible
@given(counts=mixture_samples(max_count=1_000_000), lam=lambdas)
def test_finite_and_polygamma_sums_agree(counts, lam):
    sample = CountSample(counts)
    for pooled in (pooled_harmonic_sum, pooled_harmonic_sum_sq):
        finite = pooled(lam, counts, method="finite")
        assert pooled(lam, counts) == pytest.approx(finite, rel=1e-12)
        assert pooled(lam, sample) == pooled(lam, counts)


@reproducible
@given(counts=mixture_samples())
def test_cached_histogram_is_np_unique(counts):
    sample = CountSample(counts)
    u, c = sample.histogram()
    want_u, want_c = np.unique(counts, return_counts=True)
    assert np.array_equal(u, want_u) and np.array_equal(c, want_c)
    assert sample.histogram() is sample.histogram()
    assert not sample.counts.flags.writeable


@reproducible
@given(st.lists(st.integers(min_value=1, max_value=2**63 - 1), min_size=1, max_size=200))
def test_total_is_exact(values):
    sample = CountSample(np.array(values, dtype=np.int64))
    assert sample.total() == sum(values)
    assert repr(sample) == f"CountSample(n={len(values)}, total={sum(values)})"


# EM fits: up to 3000 counts, since at lambda near 50 a fit takes about
# a thousand iterations; the rate comes from a float on the log scale,
# which spreads the examples over the range where log_lambdas' integer
# index keeps most of them near 0.02
fit_samples = mixture_samples(
    max_n=3000, rates=st.floats(0.0, 1.0).map(lambda t: 0.02 * 2500.0**t)
)


def converged_fit(counts, config=None):
    assume(counts.max() > 1)  # all-ones samples have no interior maximum
    data = CountSample(counts)
    fit = em_fit(data, config)
    assume(fit.converged)
    return data, fit


@reproducible
@given(counts=fit_samples)
def test_em_loglik_trace_ascends(counts):
    # at the default tol; at tol = 1e-10 near lambda = 50 the last steps
    # gain less than the ~1e-10 rounding of the likelihood itself
    _, fit = converged_fit(counts)
    assert np.all(np.diff(fit.loglik_trace[1:]) >= -1e-10)


@reproducible
@given(counts=fit_samples)
def test_louis_equals_oakes_at_the_estimate(counts):
    data, fit = converged_fit(counts)
    i_o = oakes_information(data, fit.lambda_hat)
    i_l = louis_information(data, fit.lambda_hat)
    assert abs(i_l - i_o) <= 1e-9 * max(1.0, abs(i_o))


@reproducible
@given(counts=fit_samples)
def test_em_map_jacobian_equals_rate_at_the_fixed_point(counts):
    data, fit = converged_fit(counts, FitConfig(tol=1e-10, max_iter=4000))
    lam = fit.lambda_hat
    assert abs(em_map_jacobian(data, lam) - rate_theoretical(data, lam)) <= 1e-8
