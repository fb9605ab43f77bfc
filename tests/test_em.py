import math

import mpmath as mp
import numpy as np
import pytest

from yulesimon import (
    CONVEXITY_BOUND,
    CountSample,
    FitConfig,
    RngStream,
    convexity_check,
    em_fit,
    em_step,
    init_lambda,
    observed_loglik,
    q_function,
    sample_mixture,
)
from yulesimon.em import CONVERGED, DIVERGING, MAX_ITER_REACHED

from _oracles import golden_section_maximize, int64_limit_sample, random_dataset


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
        fin = em_step(lam, data, method="finite")
        pol = em_step(lam, data, method="polygamma")
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
    assert len(fit.loglik_trace) == len(fit.trace)
    assert fit.trace[0] == 1.0
    assert fit.lambda_hat == fit.trace[-1]
    assert abs(fit.trace[-1] - fit.trace[-2]) < FitConfig().tol


def test_em_fit_ascent_property():
    rng = np.random.default_rng(25)
    for _ in range(200):
        lam_true = float(rng.choice([0.6, 0.8, 1.25, 5.0]))
        data = random_dataset(lam_true, int(rng.choice([40, 120, 400])), int(rng.integers(1e6)))
        fit = em_fit(data)
        ll = np.array(fit.loglik_trace[1:])  # drop the (possibly -inf) start
        assert np.all(np.diff(ll) >= -1e-10)


def test_em_loglik_trace_ascends_at_tight_tol_near_lambda_50():
    # the last steps gain ~1e-12; log B(51, k) taken as ln Gamma(51) minus
    # a D of the same size rounded the trace down by up to 4.7e-10 here
    data = sample_mixture(50.0, 3000, RngStream(7))
    fit = em_fit(data, FitConfig(tol=1e-10, max_iter=4000))
    assert fit.converged
    assert np.all(np.diff(fit.loglik_trace[1:]) >= -1e-10)


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
    fit = em_fit(CountSample([1] * 25), FitConfig(max_iter=500, divergence_ceiling=100.0))
    assert fit.status == DIVERGING
    assert fit.lambda_hat > 100.0


def test_em_fit_map_with_prior_rate_converges_on_ones():
    # a proper prior rate caps the update, so all-ones data still converges
    fit = em_fit(CountSample([1] * 25), FitConfig(prior_a=2.0, prior_b=1.0))
    assert fit.status == CONVERGED


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
        ["0x1.0000000000000p+0", "0x1.5b4365e949d09p-1", "0x1.3b23d06dc842ap-1",
         "0x1.34832558a43a1p-1", "0x1.3320d15874340p-1", "0x1.32d6a195ea16bp-1",
         "0x1.32c7171971ea1p-1"],
        ["-0x1.7fe1aa2435832p+19", "-0x1.728df0b5814c2p+19", "-0x1.71d3fb81d33f2p+19",
         "-0x1.71cb5d242bbfep+19", "-0x1.71cafb2188925p+19", "-0x1.71caf6d15edfdp+19",
         "-0x1.71caf6a0e0509p+19"],
    ),
    "lambda 0.05 near the int64 limit": (
        int64_limit_sample,
        ["0x1.0000000000000p+0", "0x1.eab6be16b6b13p-5", "0x1.d299774d6ce1ep-5",
         "0x1.d27c36992fda2p-5"],
        ["-0x1.8ffdcf3ec8f89p+16", "-0x1.ea01784fed80fp+15", "-0x1.e9f9af5d10230p+15",
         "-0x1.e9f9af513635cp+15"],
    ),
}


@pytest.mark.parametrize("case", EM_FIT_BITS)
def test_em_fit_reproduces_pinned_bits(case):
    sample, trace, loglik_trace = EM_FIT_BITS[case]
    fit = em_fit(sample())
    assert fit.converged
    assert fit.lambda_hat.hex() == trace[-1]
    assert [x.hex() for x in fit.trace] == trace
    assert [x.hex() for x in fit.loglik_trace] == loglik_trace
