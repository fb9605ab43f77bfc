"""Properties of the count-histogram core and of the paper's EM
invariants over the whole parameter range: lambda in [0.02, 50], samples
of up to 10^5 counts (3000 for the fits), counts up to the int64 limit."""

import math
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
from yulesimon.em import em_fit_stacked
from yulesimon.information import standard_errors
from yulesimon.special import pooled_harmonic_sum, pooled_harmonic_sum_sq

from _oracles import em_fit_loop, oakes_standard_error

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
        counts = sample_mixture(lam, n, RngStream(draw(st.integers(0, 2**32 - 1)))).counts
    if max_count is not None:
        counts = np.minimum(counts, draw(magnitudes(max_count)))
    return counts


@reproducible
@given(counts=mixture_samples(max_count=1_000_000), lam=lambdas)
def test_finite_and_polygamma_sums_agree(counts, lam):
    sample = CountSample(counts)
    for pooled in (pooled_harmonic_sum, pooled_harmonic_sum_sq):
        finite = pooled(lam, sample, method="finite")
        assert pooled(lam, sample) == pytest.approx(finite, rel=1e-12)


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
fit_rates = st.floats(0.0, 1.0).map(lambda t: 0.02 * 2500.0**t)
fit_samples = mixture_samples(max_n=3000, rates=fit_rates)


def converged_fit(counts, config=None):
    assume(counts.max() > 1)  # all-ones samples have no interior maximum
    data = CountSample(counts)
    fit = em_fit(data, config)
    assume(fit.converged)
    return data, fit


@reproducible
@given(counts=fit_samples)
def test_em_loglik_trace_ascends(counts):
    # at the default tol; test_em checks a tol = 1e-10 fit near lambda =
    # 50, whose last steps gain ~1e-12
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


@st.composite
def fit_blocks(draw):
    """1-3 samples of up to 300 counts at rates over [0.02, 50] and one
    all-ones sample, with a config drawn so that over the examples reps
    stop every way: converged, out of iterations (max_iter 3), over a
    small ceiling (3.0), and the all-ones divergence; the init policies
    include 0.0 and moments, whose fallback the all-ones sample takes.
    The last item is where to split the block in two."""
    samples = [CountSample(c) for c in draw(
        st.lists(mixture_samples(max_n=300, rates=fit_rates), min_size=1, max_size=3))]
    ones = CountSample(np.ones(draw(st.integers(1, 50)), dtype=np.int64))
    samples.insert(draw(st.integers(0, len(samples))), ones)
    config = FitConfig(
        init=draw(st.sampled_from([0.0, "moments", "mode_one", 2.5])),
        max_iter=draw(st.sampled_from([3, 60])),
        divergence_ceiling=draw(st.sampled_from([3.0, 1e6])),
    )
    return samples, config, draw(st.integers(0, len(samples)))


def _close(got, want) -> bool:
    """Equal within 1e-12 relative; NaN matches NaN, -inf matches -inf."""
    if not math.isfinite(want):
        return got == want or (math.isnan(got) and math.isnan(want))
    return abs(got - want) <= 1e-12 * abs(want)


def _warning_texts(caught) -> list[str]:
    return sorted(str(w.message) for w in caught)


@reproducible
@given(block=fit_blocks())
def test_stacked_fits_match_the_one_sample_loop(block):
    samples, config, split = block
    with warnings.catch_warnings(record=True) as caught_stacked:
        warnings.simplefilter("always")
        fits = em_fit_stacked(samples, config)
        se = standard_errors(samples, [f.lambda_hat for f in fits])
    with warnings.catch_warnings(record=True) as caught_loop:
        warnings.simplefilter("always")
        want = [em_fit_loop(data, config) for data in samples]
        want_se = [oakes_standard_error(data, f.lambda_hat) for data, f in zip(samples, want)]
    assert _warning_texts(caught_stacked) == _warning_texts(caught_loop)
    assert [f.status for f in fits] == [f.status for f in want]
    assert [f.iterations for f in fits] == [f.iterations for f in want]
    for fit, ref, got_se, ref_se in zip(fits, want, se, want_se):
        assert _close(fit.lambda_hat, ref.lambda_hat)
        assert all(map(_close, fit.trace, ref.trace))
        assert all(map(_close, fit.loglik_trace, ref.loglik_trace))
        assert _close(got_se, ref_se)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        parts = em_fit_stacked(samples[:split], config) + em_fit_stacked(samples[split:], config)
    assert parts == fits
