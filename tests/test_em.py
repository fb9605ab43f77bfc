import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from yulesimon import (
    CountSample,
    FitConfig,
    RngStream,
    diagnose,
    em_fit,
    em_map_jacobian,
    em_step,
    init_lambda,
    observed_loglik,
    rate_theoretical,
    sample_mixture,
    standard_error,
)
from yulesimon import em
from yulesimon.em import CONVERGED, DIVERGENCE_CEILING, DIVERGING, MAX_ITER_REACHED, em_fit_stacked
from yulesimon.special import log_beta, pooled_harmonic_sum, pooled_harmonic_sum_sq

from _oracles import (
    CONVEXITY_BOUND,
    convexity_check,
    em_fit_loop,
    finite_em_step,
    finite_pooled_sum,
    golden_section_maximize,
    int64_limit_sample,
    loglik_trace,
    q_function,
    random_dataset,
)


def test_observed_loglik_values():
    assert observed_loglik(CountSample([1]), 1.0) == pytest.approx(math.log(0.5), abs=1e-12)
    expected = math.log(1 / 2) + math.log(1 / 6) + math.log(1 / 12)
    assert observed_loglik(CountSample([1, 2, 3]), 1.0) == pytest.approx(expected, abs=1e-12)


def test_q_function_closed_form_single_point():
    # data=[1], lam'=1: Q(lam | 1) = -lam/2 + log(lam)
    data = CountSample([1])
    for lam in (0.3, 1.0, 2.5):
        assert q_function(lam, 1.0, data) == pytest.approx(-lam / 2 + math.log(lam), abs=1e-12)


def test_q_function_stationary_at_update():
    rng = np.random.default_rng(21)
    for _ in range(10):
        data = random_dataset(float(rng.uniform(0.5, 3.0)), 200, int(rng.integers(1e6)))
        lam_prev = float(rng.uniform(0.3, 3.0))
        lam_new = em_step(lam_prev, data)
        h = 1e-6 * max(1.0, lam_new)
        grad = (q_function(lam_new + h, lam_prev, data) - q_function(lam_new - h, lam_prev, data)) / (2 * h)
        assert abs(grad) <= 1e-8 * max(1.0, data.n)


def test_update_maximizes_q():
    rng = np.random.default_rng(22)
    data = random_dataset(1.25, 300, 77)
    lam_prev = 0.9
    best = q_function(em_step(lam_prev, data), lam_prev, data)
    for _ in range(100):
        lam = float(rng.uniform(1e-3, 50.0))
        assert q_function(lam, lam_prev, data) <= best + 1e-9


def test_em_step_hand_values():
    assert em_step(1.0, CountSample([5])) == pytest.approx(
        1.0 / (1 / 2 + 1 / 3 + 1 / 4 + 1 / 5 + 1 / 6), rel=1e-14
    )
    # all-ones data: update is lam + 1, the map has no fixed point
    for lam in (0.0, 1.0, 7.3):
        assert em_step(lam, CountSample([1])) == pytest.approx(lam + 1.0, rel=1e-14)


def test_em_step_accepts_zero_start():
    data = CountSample([3, 1, 4])
    assert em_step(0.0, data) > 0.0


def test_em_step_degenerate_prior_errors():
    with pytest.raises(ValueError):
        em_step(1.0, CountSample([2]), prior_a=0.0)


@pytest.mark.parametrize("start", [1e15, 1e16, 1e300])
def test_a_start_where_the_pooled_sum_loses_every_digit_is_a_field_error(start):
    """On 2 3 1 the digamma-difference form of S1 rounds to exactly 0 at
    a lam of 1e15 and up. The kernel's S1 sums positive terms and keeps
    its digits there, so every start gets an update and a fit."""
    data = CountSample([2, 3, 1])
    s1 = pooled_harmonic_sum(start, data)
    assert s1 > 0.0 and s1 == pytest.approx(finite_pooled_sum(start, data), rel=1e-12)
    assert em_step(start, data) == 3.0 / s1
    fit = em_fit(data, FitConfig(init=start))
    assert fit.trace[0] == start and fit.lambda_hat < start
    # from 1e300 the iterates halve, too slowly for the budget
    assert fit.status == (CONVERGED if start < 1e100 else MAX_ITER_REACHED)
    assert em_fit(data, FitConfig(init=start, prior_b=2.0)).converged


def test_em_fit_on_counts_near_the_int64_limit():
    data = int64_limit_sample()
    assert data.total() > 2**63
    fit = em_fit(data)
    assert fit.status in (CONVERGED, DIVERGING, MAX_ITER_REACHED)
    assert math.isfinite(fit.lambda_hat) and fit.lambda_hat > 0.0


def test_observed_loglik_near_the_int64_limit_matches_mpmath():
    # ln Gamma of a count near 2**62 is ~2e20: the likelihood must not
    # take differences of such terms
    data = int64_limit_sample()
    lam = 0.0569
    u, c = data.histogram()
    with mp.workdps(50):
        a = mp.mpf(lam) + 1
        terms = (int(m) * (mp.loggamma(a) + mp.loggamma(int(k)) - mp.loggamma(a + int(k)))
                 for k, m in zip(u, c))
        ref = float(data.n * mp.log(lam) + mp.fsum(terms))
    assert observed_loglik(data, lam) == pytest.approx(ref, rel=1e-12)


def test_em_step_forms_agree():
    rng = np.random.default_rng(23)
    for _ in range(200):
        data = random_dataset(float(rng.choice([0.6, 1.25, 5.0])), 100, int(rng.integers(1e6)))
        lam = float(rng.uniform(0.0, 10.0))
        fin = finite_em_step(lam, data)
        pol = em_step(lam, data)
        assert fin == pytest.approx(pol, rel=1e-12)


def test_em_fit_matches_golden_section_oracle():
    rng = np.random.default_rng(24)
    for _ in range(10):
        lam_true = float(rng.choice([0.6, 1.25, 5.0]))
        data = random_dataset(lam_true, 400, int(rng.integers(1e6)))
        fit = em_fit(data, FitConfig(tol=1e-10))
        assert fit.converged
        oracle = golden_section_maximize(
            lambda lam: observed_loglik(data, lam), 1e-6, 1e3, tol=1e-8
        )
        assert fit.lambda_hat == pytest.approx(oracle, abs=1e-4)


def test_em_fit_trace_contract():
    data = random_dataset(1.25, 300, 4242)
    fit = em_fit(data)
    assert len(fit.trace) == fit.iterations + 1
    assert fit.trace[0] == 1.0
    assert fit.lambda_hat == fit.trace[-1]
    assert abs(fit.trace[-1] - fit.trace[-2]) < FitConfig().tol


def test_em_fit_ascent_property():
    rng = np.random.default_rng(25)
    for _ in range(200):
        lam_true = float(rng.choice([0.6, 0.8, 1.25, 5.0]))
        data = random_dataset(lam_true, int(rng.choice([40, 120, 400])), int(rng.integers(1e6)))
        fit = em_fit(data)
        ll = np.array(loglik_trace(fit)[1:])  # drop the (possibly -inf) start
        assert np.all(np.diff(ll) >= -1e-10)


def test_em_loglik_trace_ascends_at_tight_tol_near_lambda_50():
    # the last steps gain ~1e-12; log B(51, k) taken as ln Gamma(51) minus
    # a D of the same size rounded the trace down by up to 4.7e-10 here
    data = sample_mixture(50.0, 3000, RngStream(7))
    fit = em_fit(data, FitConfig(tol=1e-10, max_iter=4000))
    assert fit.converged
    assert np.all(np.diff(loglik_trace(fit)[1:]) >= -1e-10)


@pytest.fixture()
def log_beta_calls(monkeypatch):
    """The calls em makes to log_beta, one entry per call."""
    calls = []

    def counted(a, b):
        calls.append(np.size(a))
        return log_beta(a, b)

    monkeypatch.setattr(em, "log_beta", counted)
    return calls


def test_em_iterates_without_the_likelihood(log_beta_calls):
    samples = [random_dataset(lam, 400, seed) for lam, seed in [(0.6, 1), (1.25, 2), (5.0, 3)]]
    em_fit_stacked(samples)
    em_fit(samples[0], FitConfig(init=0.0))
    assert log_beta_calls == []


def test_em_fit_fixed_point_residual():
    data = random_dataset(0.8, 500, 31)
    config = FitConfig(tol=1e-9)
    fit = em_fit(data, config)
    assert fit.converged
    assert abs(em_step(fit.lambda_hat, data) - fit.lambda_hat) < config.tol


def test_em_fit_all_ones_diverges():
    fit = em_fit(CountSample([1] * 25))
    assert fit.status == DIVERGING
    assert fit.trace[-1] > fit.trace[0]


def test_em_fit_ceiling_reports_diverging():
    # under prior_a = 30 the update on 25 ones is 54 (lam + 1) / 25, which
    # crosses the ceiling of 1e6 long before max_iter runs out
    fit = em_fit(CountSample([1] * 25), FitConfig(prior_a=30.0, prior_b=0.0))
    assert fit.status == DIVERGING
    assert fit.iterations == 17
    assert fit.trace[-2] <= DIVERGENCE_CEILING < fit.lambda_hat


def test_em_fit_falling_from_above_the_ceiling_is_not_diverging():
    # from 1e8 the iterate on 2 3 1 halves step by step toward the fixed
    # point: above the ceiling but falling, so the fit runs on
    data = CountSample([2, 3, 1])
    config = FitConfig(init=1e8)
    fit = em_fit(data, config)
    assert fit.status == CONVERGED
    assert DIVERGENCE_CEILING < fit.trace[1] < fit.trace[0]
    assert fit.lambda_hat == pytest.approx(em_fit(data).lambda_hat, rel=1e-3)
    loop = em_fit_loop(data, config)
    assert (loop.status, loop.trace) == (fit.status, fit.trace)
    # on all ones the iterate rises above the ceiling from the same start
    ones = em_fit(CountSample([1, 1, 1]), config)
    assert ones.status == DIVERGING
    assert ones.lambda_hat > max(ones.trace[-2], DIVERGENCE_CEILING)


def test_em_fit_map_with_prior_rate_converges_on_ones():
    # a proper prior rate caps the update, so all-ones data still converges
    fit = em_fit(CountSample([1] * 25), FitConfig(prior_a=2.0, prior_b=1.0))
    assert fit.status == CONVERGED


def test_fits_carry_the_pooled_sums_at_their_estimate_bit_for_bit():
    """FitResult.sums, from the one joint pass at the end of a fit, are
    pooled_harmonic_sum and pooled_harmonic_sum_sq at lambda_hat bit for
    bit: for one-sample and stacked fits, however each fit stopped."""
    samples = [random_dataset(0.6, 400, 1), random_dataset(5.0, 300, 2),
               CountSample([1] * 25), int64_limit_sample()]
    fits = [*em_fit_stacked(samples), *em_fit_stacked(samples, FitConfig(max_iter=3)),
            em_fit(samples[0]), em_fit(samples[1], FitConfig(max_iter=3)),
            em_fit(samples[2]), em_fit(samples[2], FitConfig(prior_a=30.0))]
    assert [fit.status for fit in fits] == [
        CONVERGED, CONVERGED, DIVERGING, CONVERGED,
        MAX_ITER_REACHED, MAX_ITER_REACHED, DIVERGING, CONVERGED,
        CONVERGED, MAX_ITER_REACHED, DIVERGING, DIVERGING]
    for fit in fits:
        want = (pooled_harmonic_sum(fit.lambda_hat, fit.sample),
                pooled_harmonic_sum_sq(fit.lambda_hat, fit.sample))
        assert [x.hex() for x in fit.sums] == [x.hex() for x in want]


def test_an_estimate_that_overflows_to_inf_ends_the_fit_without_a_warning():
    # (N + a - 1) / S1 = 1.7e308 / 0.5 on the sample 1: the final pass at
    # lambda = inf gives NaN sums quietly, and so NaN rates in the report
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = em_fit(CountSample([1]), FitConfig(prior_a=1.7e308))
        report = diagnose(fit)
    assert fit.status == DIVERGING and fit.lambda_hat == math.inf
    assert math.isnan(fit.sums[0])
    assert math.isnan(report.r_theoretical) and math.isnan(report.jacobian_at_hat)


def test_em_fit_flat_prior_is_bitwise_pure_likelihood():
    data = random_dataset(1.25, 300, 55)
    default = em_fit(data)
    explicit = em_fit(data, FitConfig(prior_a=1.0, prior_b=0.0))
    assert default.trace == explicit.trace
    assert default.lambda_hat == explicit.lambda_hat


def test_init_lambda_policies():
    data = CountSample([2, 2, 2])  # kbar = 2
    assert init_lambda(data, "moments") == pytest.approx(2.0)
    assert init_lambda(data, "mode_one") == 1.0
    assert init_lambda(data, 0.0) == 0.0
    assert init_lambda(data, 2.5) == 2.5
    five = CountSample([1, 1, 1, 2])  # kbar = 1.25
    assert init_lambda(five, "moments") == pytest.approx(5.0)
    with pytest.raises(ValueError):
        init_lambda(data, "nonsense")
    # one check serves FitConfig and init_lambda: a policy is rejected
    # by both or accepted by both, so a config that constructs also fits
    assert init_lambda(data, np.int64(2)) == 2.0
    assert em_fit(data, FitConfig(init=np.int64(2))).converged
    for bad in (True, np.bool_(True), None, -1.0, math.inf):
        with pytest.raises(ValueError):
            init_lambda(data, bad)
        with pytest.raises(ValueError):
            FitConfig(init=bad)


def test_fit_config_rejects_a_nonfinite_tol():
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            FitConfig(tol=bad)


def test_fit_config_rejects_nonfinite_priors():
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="prior_a"):
            FitConfig(prior_a=bad)
        with pytest.raises(ValueError, match="prior_b"):
            FitConfig(prior_b=bad)


def test_init_lambda_moments_fallback_warns():
    data = CountSample([1, 1, 1])
    with pytest.warns(RuntimeWarning):
        assert init_lambda(data, "moments") == 1.0


def test_init_insensitivity_synthetic():
    data = random_dataset(1.1, 2000, 909)
    fits = [
        em_fit(data, FitConfig(tol=1e-8, init=start)).lambda_hat
        for start in (0.0, 0.6, 1.1, 1.25, 2.0)
    ]
    assert max(fits) - min(fits) < 1e-3


def test_convexity_check_values():
    second, inside = convexity_check(CountSample([1]), 1.0)
    assert second == pytest.approx(-0.75, abs=1e-12)
    assert not inside
    second, inside = convexity_check(random_dataset(0.6, 200, 8), 0.5)
    assert inside
    assert second < 0
    _, at_bound = convexity_check(CountSample([1]), CONVEXITY_BOUND)
    assert not at_bound  # boundary excluded


def test_convexity_negative_inside_certified_interval():
    rng = np.random.default_rng(26)
    grid = np.linspace(0.01, CONVEXITY_BOUND - 1e-6, 50)
    for _ in range(20):
        data = random_dataset(float(rng.choice([0.6, 1.25, 5.0])), 100, int(rng.integers(1e6)))
        for lam in grid:
            second, inside = convexity_check(data, float(lam))
            assert inside
            assert second < 0


# em_fit at the default config, pinned bit for bit as float.hex: ys fit
# prints these digits, so a change in how the sums reduce shows here
EM_FIT_BITS = {
    "lambda 0.6, N 2.5e5": (
        lambda: sample_mixture(0.6, 250_000, RngStream(6)),
        ["0x1.0000000000000p+0", "0x1.5b4365e949d07p-1", "0x1.3b23d06dc8429p-1",
         "0x1.34832558a43a0p-1", "0x1.3320d15874341p-1", "0x1.32d6a195ea16ap-1",
         "0x1.32c7171971e9ep-1"],
        ["-0x1.7fe1aa2435832p+19", "-0x1.728df0b5814c3p+19", "-0x1.71d3fb81d33f3p+19",
         "-0x1.71cb5d242bbfep+19", "-0x1.71cafb2188925p+19", "-0x1.71caf6d15ee00p+19",
         "-0x1.71caf6a0e050ap+19"],
    ),
    "lambda 0.05 near the int64 limit": (
        int64_limit_sample,
        ["0x1.0000000000000p+0", "0x1.eab6be16b6b12p-5", "0x1.d299774d6ce1fp-5",
         "0x1.d27c36992fda3p-5"],
        ["-0x1.8ffdcf3ec8f89p+16", "-0x1.ea01784fed80fp+15", "-0x1.e9f9af5d10230p+15",
         "-0x1.e9f9af513635cp+15"],
    ),
}


@pytest.mark.parametrize("case", EM_FIT_BITS)
def test_em_fit_reproduces_pinned_bits(case):
    sample, trace, loglik_hex = EM_FIT_BITS[case]
    fit = em_fit(sample())
    assert fit.converged
    assert fit.lambda_hat.hex() == trace[-1]
    assert [x.hex() for x in fit.trace] == trace
    assert [x.hex() for x in loglik_trace(fit)] == loglik_hex


# em_step (prior (2, 0.5)), pooled_harmonic_sum, pooled_harmonic_sum_sq,
# standard_error, rate_theoretical, em_map_jacobian (prior (2, 0.5)) and
# the second derivative of convexity_check on the samples above, at the
# pinned estimate and at lambda 1, as float.hex: every route through the
# pooled sums keeps its bits
SUM_BITS = {
    "lambda 0.6, N 2.5e5": {
        "0x1.32c7171971e9ep-1": [
            "0x1.32c40de6149d9p-1", "0x1.977a6293bae1ap+18", "0x1.1cf9de314c3b4p+17",
            "0x1.6154953a98140p-10", "0x1.ad1dff98a9310p-3", "0x1.ad1510e0c63afp-3",
            "-0x1.0cc63e148905ap+19"],
        "0x1.0000000000000p+0": [
            "0x1.5b43a2129bb81p-1", "0x1.67f51af80b7c6p+18", "0x1.8c0c3f304c85ap+16",
            "0x1.5400e3504b59bp-9", "0x1.9f494845636ccp-2", "0x1.7e14d71813437p-3",
            "-0x1.2241e067d9bd3p+17"],
    },
    "lambda 0.05 near the int64 limit": {
        "0x1.d27c36992fda3p-5": [
            "0x1.d2a2bf52a52d0p-5", "0x1.9b96cebcff6ddp+15", "0x1.1281791a3bb57p+12",
            "0x1.112ff47ad5e4ep-10", "0x1.371e5cac2f9f2p-8", "0x1.37373695a0115p-8",
            "-0x1.c19a433b9c05ap+19"],
        "0x1.0000000000000p+0": [
            "0x1.eadf5cb9bb193p-5", "0x1.87444894e67e8p+15", "0x1.c659c08f6b30cp+10",
            "0x1.dc6ebc942c5b5p-6", "0x1.362b8580a08e8p-1", "0x1.1d014af8f29fdp-9",
            "-0x1.27a63f7094cf4p+10"],
    },
}


@pytest.mark.parametrize("case", SUM_BITS)
def test_pooled_sum_routes_reproduce_pinned_bits(case):
    data = EM_FIT_BITS[case][0]()
    for lam_hex, want in SUM_BITS[case].items():
        lam = float.fromhex(lam_hex)
        got = [
            em_step(lam, data, 2.0, 0.5),
            pooled_harmonic_sum(lam, data),
            pooled_harmonic_sum_sq(lam, data),
            standard_error(data, lam),
            rate_theoretical(data, lam),
            em_map_jacobian(data, lam, 2.0, 0.5),
            convexity_check(data, lam)[0],
        ]
        assert [x.hex() for x in got] == want
