import math
from dataclasses import replace

import numpy as np
import pytest

from yulesimon import (
    CountSample,
    FitConfig,
    FitResult,
    RngStream,
    diagnose,
    em_fit,
    em_map_jacobian,
    em_step,
    empirical_rates,
    rate_theoretical,
    sample_mixture,
    standard_error,
)
from yulesimon.information import _fit_standard_error
from yulesimon.special import FieldError, pooled_harmonic_sum_sq, trigamma

from _oracles import empirical_rates_known_limit, random_dataset


def test_rate_single_observation():
    assert rate_theoretical(CountSample([1]), 1.0) == pytest.approx(0.25, rel=1e-12)


def test_rate_matches_trigamma_difference_form():
    rng = np.random.default_rng(41)
    for _ in range(30):
        data = random_dataset(float(rng.choice([0.6, 1.25, 5.0])), 150, int(rng.integers(1e6)))
        lam = float(rng.uniform(0.2, 8.0))
        via_trigamma = (
            lam**2
            * np.sum(trigamma(lam + 1.0) - trigamma(lam + 1.0 + data.counts.astype(float)))
            / data.n
        )
        assert rate_theoretical(data, lam) == pytest.approx(via_trigamma, rel=1e-12)


def test_diagnostics_at_huge_and_tiny_lambda_do_not_raise():
    data = CountSample([2, 3, 1])
    # lam**2 overflows and the pooled sums underflow to 0
    assert math.isnan(rate_theoretical(data, 1e300))
    assert math.isnan(em_map_jacobian(data, 1e300, prior_a=1e300))
    assert em_map_jacobian(data, 1e300, prior_a=1e300, prior_b=1.0) == 0.0
    # (b + S1)**2 overflows
    assert em_map_jacobian(data, 3e-155, prior_b=1e155) == 0.0
    # a fit whose rate is nan is not reported as linear
    fit = em_fit(data, FitConfig(prior_a=1e300))
    report = diagnose(fit)
    assert math.isnan(report.r_theoretical) and report.regime == "sublinear"


def test_rate_near_paper_value_for_lam_1_1():
    data = random_dataset(1.1, 500, 4711)
    fit = em_fit(data, FitConfig(tol=1e-9))
    assert 0.28 <= rate_theoretical(data, fit.lambda_hat) <= 0.48


def test_rate_monotone_in_lambda():
    data = random_dataset(1.25, 400, 77)
    grid = [0.6, 1.25, 5.0, 10.0]
    rates = [rate_theoretical(data, lam) for lam in grid]
    assert all(a < b for a, b in zip(rates, rates[1:]))


def test_jacobian_hand_value():
    assert em_map_jacobian(CountSample([1]), 1.0) == pytest.approx(1.0, rel=1e-12)


def test_jacobian_matches_finite_difference():
    rng = np.random.default_rng(42)
    for _ in range(100):
        data = random_dataset(float(rng.choice([0.6, 1.25, 5.0])), 120, int(rng.integers(1e6)))
        lam = float(np.exp(rng.uniform(np.log(0.2), np.log(10.0))))
        a = float(rng.choice([1.0, 2.0]))
        b = float(rng.choice([0.0, 0.5]))
        h = 1e-5 * max(1.0, lam)
        fd = (em_step(lam + h, data, a, b) - em_step(lam - h, data, a, b)) / (2 * h)
        assert abs(em_map_jacobian(data, lam, a, b) - fd) <= 1e-7 * max(1.0, abs(fd))


def test_jacobian_equals_rate_at_fixed_point():
    for seed, lam_true in ((1, 0.6), (2, 1.25), (3, 5.0)):
        data = random_dataset(lam_true, 800, seed)
        fit = em_fit(data, FitConfig(tol=1e-12, max_iter=3000))
        assert fit.converged
        jac = em_map_jacobian(data, fit.lambda_hat)
        rate = rate_theoretical(data, fit.lambda_hat)
        assert abs(jac - rate) <= 1e-8
        assert 0.0 < rate < 1.0


def test_rate_under_a_prior_is_the_map_iterations_rate():
    """diagnose reports lam^2 S2 / (N + a - 1) under the prior of the
    fit's config; the prior rate b acts through the fixed point alone."""
    data = random_dataset(0.8, 300, 4)
    lam = 0.9
    s2 = sum(1.0 / (lam + j) ** 2 for k in data.counts.tolist() for j in range(1, k + 1))

    def rate(**prior):
        fit = FitResult(lam, 0, [lam], "converged", data, FitConfig(**prior))
        return diagnose(fit).r_theoretical

    assert rate(prior_a=30.0, prior_b=5.0) == pytest.approx(lam**2 * s2 / (300 + 29.0), rel=1e-12)
    assert rate(prior_a=30.0, prior_b=5.0) == rate(prior_a=30.0)
    assert rate(prior_b=5.0) == rate() == rate_theoretical(data, lam)


def test_diagnose_reads_sums_at_the_estimate_however_the_fit_was_made():
    """A FitResult built by hand, or copied or changed after its fit, has
    no sums of the fit's pass at its own estimate and sample; diagnose
    and the fit's standard error take fresh ones there."""
    data, other = random_dataset(0.8, 300, 4), random_dataset(2.0, 200, 5)
    fit = em_fit(data, FitConfig(tol=1e-10))

    def check(fit, data, lam):
        report = diagnose(fit)
        assert report.r_theoretical == rate_theoretical(data, lam)
        assert report.jacobian_at_hat == em_map_jacobian(data, lam)
        assert _fit_standard_error(fit) == standard_error(data, lam)

    check(fit, data, fit.lambda_hat)
    by_hand = FitResult(0.9, 0, [0.9], "converged", data, FitConfig())
    check(by_hand, data, 0.9)
    assert diagnose(by_hand).regime == "linear"
    check(replace(fit, lambda_hat=1.5), data, 1.5)
    check(replace(fit, sample=other), other, fit.lambda_hat)
    fit.lambda_hat = 0.5
    check(fit, data, 0.5)


@pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, -math.inf])
def test_diagnose_refuses_an_estimate_that_no_fit_ends_at(lam):
    # only an update's overflow to inf ends a fit off the positive floats
    fit = FitResult(lam, 0, [lam], "converged", CountSample([1, 2]), FitConfig())
    with pytest.raises(FieldError, match="^lambda must be positive and finite$"):
        diagnose(fit)


def test_empirical_rates_successive_differences():
    values, truncated = empirical_rates([1.0, 1.5, 1.75])
    assert values == pytest.approx([0.5])
    assert not truncated


def test_empirical_rates_known_limit_form():
    values, truncated = empirical_rates_known_limit([2.0, 1.5, 1.25], lambda_infinity=1.0)
    assert values == pytest.approx([0.5, 0.5])
    assert not truncated


def test_empirical_rates_truncation_guard():
    values, truncated = empirical_rates([1.0, 1.5, 1.5, 1.5])
    assert truncated
    assert values == pytest.approx([0.0])


def test_empirical_rates_length_errors():
    with pytest.raises(ValueError):
        empirical_rates([1.0, 1.1])
    with pytest.raises(ValueError):
        empirical_rates_known_limit([1.0], lambda_infinity=0.5)


def test_both_rate_forms_share_a_limit():
    data = random_dataset(1.25, 1500, 99)
    fit = em_fit(data, FitConfig(tol=1e-10))
    assert fit.converged
    diff_form, _ = empirical_rates(fit.trace)
    limit_form, _ = empirical_rates_known_limit(fit.trace, lambda_infinity=fit.lambda_hat)
    # compare where both paths have stabilized; taking the converged
    # iterate as the limit corrupts the last few limit-form entries
    window = slice(3, len(diff_form) - 4)
    assert np.median(diff_form[window]) == pytest.approx(
        np.median(limit_form[window]), abs=0.05
    )


def test_terminal_empirical_rates_approach_theoretical():
    data = random_dataset(1.1, 500, 1234)
    fit = em_fit(data, FitConfig(tol=1e-9))
    report = diagnose(fit)
    for r in report.empirical_rates[-3:]:
        assert abs(r - report.r_theoretical) < 0.1


def test_diagnose_report_fields():
    data = random_dataset(0.6, 500, 5)
    fit = em_fit(data, FitConfig(tol=1e-9))
    report = diagnose(fit)
    assert report.regime == "linear"
    assert report.jacobian_at_hat == pytest.approx(report.r_theoretical, abs=1e-6)
    big = random_dataset(10.0, 500, 6)
    fit_big = em_fit(big, FitConfig(tol=1e-9, max_iter=2000))
    report_big = diagnose(fit_big)
    assert report_big.regime == "sublinear"
    assert report_big.r_theoretical > 0.9


def test_diagnose_takes_the_prior_the_fit_ran_under():
    """Under a Gamma(30, 5) prior the Jacobian at the MAP estimate is the
    rate the iteration shows, and not the likelihood map's."""
    fit = em_fit(sample_mixture(0.6, 300, RngStream(5)),
                 FitConfig(prior_a=30.0, prior_b=5.0, tol=1e-12))
    assert fit.converged
    report = diagnose(fit)
    assert report.jacobian_at_hat == em_map_jacobian(fit.sample, fit.lambda_hat, 30.0, 5.0)
    assert abs(report.jacobian_at_hat - np.median(report.empirical_rates[-3:])) < 1e-3
    assert abs(report.jacobian_at_hat - em_map_jacobian(fit.sample, fit.lambda_hat)) > 1e-3
    # the rate of the MAP iteration, lam^2 S2 / (N + a - 1), is that Jacobian
    s2 = pooled_harmonic_sum_sq(fit.lambda_hat, fit.sample)
    assert report.r_theoretical == fit.lambda_hat**2 * s2 / (fit.sample.n + 29.0)
    assert abs(report.r_theoretical - report.jacobian_at_hat) < 1e-8


@pytest.mark.parametrize("field", ["prior_a", "prior_b"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
@pytest.mark.parametrize("call", [
    lambda data, **prior: em_step(1.0, data, **prior),
    lambda data, **prior: em_map_jacobian(data, 1.0, **prior),
], ids=["em_step", "em_map_jacobian"])
def test_loose_prior_floats_are_checked(call, field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite and >= 0"):
        call(CountSample([1, 2, 5]), **{field: value})
