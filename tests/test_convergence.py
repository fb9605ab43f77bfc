import numpy as np
import pytest

from yulesimon import (
    CountSample,
    FitConfig,
    diagnose,
    em_fit,
    em_map_jacobian,
    em_step,
    empirical_rates,
    rate_theoretical,
)
from yulesimon.special import trigamma

from _oracles import random_dataset


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


def test_empirical_rates_successive_differences():
    values, truncated = empirical_rates([1.0, 1.5, 1.75])
    assert values == pytest.approx([0.5])
    assert not truncated


def test_empirical_rates_known_limit_form():
    values, truncated = empirical_rates([2.0, 1.5, 1.25], lambda_infinity=1.0)
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
        empirical_rates([1.0], lambda_infinity=0.5)


def test_both_rate_forms_share_a_limit():
    data = random_dataset(1.25, 1500, 99)
    fit = em_fit(data, FitConfig(tol=1e-10))
    assert fit.converged
    diff_form, _ = empirical_rates(fit.trace)
    limit_form, _ = empirical_rates(fit.trace, lambda_infinity=fit.lambda_hat)
    # compare where both paths have stabilized; taking the converged
    # iterate as the limit corrupts the last few limit-form entries
    window = slice(3, len(diff_form) - 4)
    assert np.median(diff_form[window]) == pytest.approx(
        np.median(limit_form[window]), abs=0.05
    )


def test_terminal_empirical_rates_approach_theoretical():
    data = random_dataset(1.1, 500, 1234)
    fit = em_fit(data, FitConfig(tol=1e-9))
    report = diagnose(data, fit)
    for r in report.empirical_rates[-3:]:
        assert abs(r - report.r_theoretical) < 0.1


def test_diagnose_report_fields():
    data = random_dataset(0.6, 500, 5)
    fit = em_fit(data, FitConfig(tol=1e-9))
    report = diagnose(data, fit)
    assert report.regime == "linear"
    assert report.jacobian_at_hat == pytest.approx(report.r_theoretical, abs=1e-6)
    big = random_dataset(10.0, 500, 6)
    fit_big = em_fit(big, FitConfig(tol=1e-9, max_iter=2000))
    report_big = diagnose(big, fit_big)
    assert report_big.regime == "sublinear"
    assert report_big.r_theoretical > 0.9
