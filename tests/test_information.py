import math

import numpy as np
import pytest

from yulesimon import (
    CountSample,
    FitConfig,
    em_fit,
    louis_information,
    numeric_information,
    oakes_information,
    observed_loglik,
    standard_error,
)

from _oracles import dataset_grid, int64_limit_sample, random_dataset


def test_oakes_hand_values():
    assert oakes_information(CountSample([1, 2, 3]), 1.0) == pytest.approx(
        3.0 - (1 / 4 + (1 / 4 + 1 / 9) + (1 / 4 + 1 / 9 + 1 / 16)), rel=1e-12
    )
    assert oakes_information(CountSample([1]), 1.0) == pytest.approx(0.75, rel=1e-12)


def test_louis_matches_oakes_at_hand_point():
    # same single-observation value even though lam=1 is no maximum here
    assert louis_information(CountSample([1]), 1.0) == pytest.approx(0.75, rel=1e-10)


def test_louis_equals_oakes_on_random_fits():
    for lam_true, n, data in dataset_grid(300, 40):
        fit = em_fit(data, FitConfig(tol=1e-9))
        if not fit.converged:
            continue
        i_o = oakes_information(data, fit.lambda_hat)
        i_l = louis_information(data, fit.lambda_hat)
        assert abs(i_l - i_o) <= 1e-9 * max(1.0, abs(i_o))


def test_score_sums_to_zero_at_mle():
    data = random_dataset(1.25, 800, 62)
    fit = em_fit(data, FitConfig(tol=1e-12, max_iter=2000))
    lam = fit.lambda_hat
    h = 1e-6
    score = (observed_loglik(data, lam + h) - observed_loglik(data, lam - h)) / (2 * h)
    assert abs(score) < 1e-3 * data.n


def test_oakes_matches_numeric_curvature():
    for lam_true, n, data in dataset_grid(301, 15):
        fit = em_fit(data, FitConfig(tol=1e-10))
        if not fit.converged:
            continue
        i_o = oakes_information(data, fit.lambda_hat)
        i_n = numeric_information(data, fit.lambda_hat)
        assert abs(i_o - i_n) <= 1e-5 * abs(i_o)


def test_numeric_curvature_matches_oakes_near_the_int64_limit():
    data = int64_limit_sample()
    fit = em_fit(data)
    assert fit.converged
    i_o = oakes_information(data, fit.lambda_hat)
    assert numeric_information(data, fit.lambda_hat) == pytest.approx(i_o, rel=1e-5)


def test_standard_error_report_contract():
    data = random_dataset(0.6, 2000, 63)
    fit = em_fit(data, FitConfig(tol=1e-9))
    info_oakes = oakes_information(data, fit.lambda_hat)
    assert info_oakes > 0
    assert standard_error(data, fit.lambda_hat) == pytest.approx(
        math.sqrt(1.0 / info_oakes), rel=1e-14
    )
    assert louis_information(data, fit.lambda_hat) == pytest.approx(info_oakes, rel=1e-9)
    assert numeric_information(data, fit.lambda_hat) == pytest.approx(info_oakes, rel=1e-5)


def test_nonpositive_information_warns_and_nans():
    # lam far above the maximizer turns the curvature positive
    data = CountSample([1, 1, 1, 1, 2])
    with pytest.warns(RuntimeWarning):
        assert oakes_information(data, 50.0) <= 0
    with pytest.warns(RuntimeWarning):
        assert math.isnan(standard_error(data, 50.0))


def test_information_where_lambda_squared_underflows():
    # below about 1e-162, lam**2 is 0 and N/lam**2 reads inf; the SE is
    # lam/sqrt(N - lam^2 S2), which is lam/sqrt(N) to every digit there
    data = CountSample([2, 3, 1])
    assert oakes_information(data, 1e-200) == math.inf
    assert standard_error(data, 1e-200) == pytest.approx(1e-200 / math.sqrt(3), rel=1e-15)


@pytest.mark.parametrize("lam", [1e155, 1e200, 1e300])
def test_information_where_lambda_squared_overflows(lam):
    # above about 1.34e154, lam*lam is inf and N/lam^2 reads 0, so the
    # information is not positive and the SE is NaN, with the warning
    data = CountSample([2, 3, 1])
    with pytest.warns(RuntimeWarning, match="Oakes information is not positive"):
        assert oakes_information(data, lam) <= 0
    with pytest.warns(RuntimeWarning, match="Oakes information is not positive"):
        assert math.isnan(standard_error(data, lam))


@pytest.mark.parametrize("lam", [3e-155, 1.5e-154, 1e-300])
def test_standard_error_keeps_its_digits_where_one_over_the_information_is_not_normal(lam):
    # at 3e-155 (the estimate under --prior-b 1e155) N/lam^2 overflows
    # while lam^2 does not underflow; at 1.5e-154 the information is
    # finite but 1/I is subnormal
    data = CountSample([2, 3, 1])
    assert standard_error(data, lam) == pytest.approx(lam / math.sqrt(3), rel=1e-15)


def test_standard_errors_shrink_with_sample_size():
    medians = {}
    for n in (50, 500, 5000):
        ses = []
        for rep in range(60):
            data = random_dataset(0.8, n, 9000 + rep)
            fit = em_fit(data)
            if not fit.converged:
                continue
            ses.append(standard_error(data, fit.lambda_hat))
        medians[n] = float(np.median(ses))
    assert medians[5000] < medians[500] < medians[50]


def test_information_domain_errors():
    data = CountSample([2, 3])
    for fn in (oakes_information, louis_information, numeric_information):
        with pytest.raises(ValueError):
            fn(data, 0.0)
        with pytest.raises(ValueError):
            fn(data, math.inf)
