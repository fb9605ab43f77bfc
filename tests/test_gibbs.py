import numpy as np
import pytest
from scipy import stats

from yulesimon import (
    FitConfig,
    GibbsConfig,
    RngStream,
    autocorrelation,
    conditional_lambda_draw,
    em_fit,
    gibbs_run,
    standard_error,
)

from _oracles import random_dataset


def test_conditional_draw_mean_matches_gamma_oracle():
    draws = conditional_lambda_draw(
        5.0, 10, prior_a=1.0, prior_b=0.0, rng=RngStream(101), size=1_000_000
    )
    assert draws.mean() == pytest.approx(11.0 / 5.0, rel=0.005)


def test_conditional_draw_exponential_case_ks():
    # shape a+n = 1 and rate 1 is a standard exponential
    draws = conditional_lambda_draw(
        0.5, 1, prior_a=0.0, prior_b=0.5, rng=RngStream(102), size=200_000
    )
    _, pvalue = stats.kstest(draws, "expon")
    assert pvalue > 0.001


def test_conditional_draw_reproducible_and_validates():
    a = conditional_lambda_draw(2.0, 5, 0.05, 0.25, RngStream(7))
    b = conditional_lambda_draw(2.0, 5, 0.05, 0.25, RngStream(7))
    assert a == b and a > 0
    with pytest.raises(ValueError):
        conditional_lambda_draw(0.0, 5, 0.05, 0.25, RngStream(7))
    with pytest.raises(ValueError):
        conditional_lambda_draw(1.0, 0, 0.05, 0.25, RngStream(7))


def test_autocorrelation_edge_cases():
    with pytest.warns(RuntimeWarning):
        acf = autocorrelation(np.ones(500), 10)
    assert np.all(acf == 0.0)
    alternating = np.tile([1.0, -1.0], 300)
    acf = autocorrelation(alternating, 5)
    assert acf[0] == pytest.approx(-1.0, abs=2.0 / 600)
    assert np.all(np.abs(acf) <= 1.0)
    with pytest.raises(ValueError):
        autocorrelation(np.arange(10.0), 10)


def test_gibbs_run_reproducible():
    data = random_dataset(1.25, 400, 201)
    cfg = GibbsConfig(n_samples=600, burn_in=100, seed=RngStream(31))
    a = gibbs_run(data, cfg)
    b = gibbs_run(data, cfg)
    assert np.array_equal(a.chain, b.chain)
    assert a.posterior_mean == b.posterior_mean
    c = gibbs_run(data, GibbsConfig(n_samples=600, burn_in=100, seed=RngStream(32)))
    assert not np.array_equal(a.chain, c.chain)


def test_gibbs_chain_length_and_thinning():
    data = random_dataset(0.8, 200, 202)
    cfg = GibbsConfig(n_samples=1000, burn_in=200, thin=4, seed=RngStream(1))
    res = gibbs_run(data, cfg)
    assert res.raw_chain.size == 1000
    assert res.chain.size == (1000 - 200) / 4
    assert res.posterior_sd == pytest.approx(res.chain.std(ddof=1))
    assert res.autocorrelations.size == 100


def test_gibbs_config_validation():
    with pytest.raises(ValueError):
        GibbsConfig(n_samples=100, burn_in=100)
    with pytest.raises(ValueError):
        GibbsConfig(thin=0)
    with pytest.raises(ValueError):
        GibbsConfig(lambda_init=0.0)
    # the retained chain, counted after thinning, needs two draws
    with pytest.raises(ValueError, match="at least 2 draws"):
        GibbsConfig(n_samples=2, burn_in=1)
    with pytest.raises(ValueError, match="at least 2 draws"):
        GibbsConfig(n_samples=10, burn_in=5, thin=5)
    assert GibbsConfig(n_samples=10, burn_in=5, thin=4).n_samples == 10


def test_sum_w_routes_share_analytic_moments():
    # the production sweep draws sum_w from the same distribution at any
    # split level: per observation (T = 0), per count level (T = max k,
    # the level the rule picks here) and split in between; each must
    # match the analytic mean S1 and variance S2 of
    # sum_i -log Beta(lam+1, k_i)
    from yulesimon.gibbs import _sum_w_sampler, split_level
    from yulesimon.special import pooled_harmonic_sum, pooled_harmonic_sum_sq
    from yulesimon import CountSample

    data = CountSample(np.tile([1, 2, 3, 7, 20], 40))
    lam, reps = 1.3, 20_000
    assert split_level(data.counts) == 20
    s1 = pooled_harmonic_sum(lam, data)
    s2 = pooled_harmonic_sum_sq(lam, data)
    for split, seed in ((0, 501), (20, 502), (3, 503)):
        draw = _sum_w_sampler(data.counts, split, RngStream(seed).generator())
        sw = np.array([draw(lam) for _ in range(reps)])
        assert sw.mean() == pytest.approx(s1, abs=5.0 * np.sqrt(s2 / reps))
        assert sw.var(ddof=1) == pytest.approx(s2, rel=0.1)


def test_split_level_minimises_variates_per_sweep():
    from yulesimon.gibbs import split_level

    # cost T + 2 #{k > T}: 20 at T = 0 beats 100 at T = max k
    assert split_level([100] * 10) == 0
    # 20, then 1 + 2 = 3 at T = 1, then 2 at T = max k
    assert split_level([1] * 9 + [2]) == 2
    # 20, then 1 + 2 = 3 at T = 1, then 1000 at T = max k
    assert split_level([1] * 9 + [1000]) == 1
    # ties go to the smaller level: 4 at T = 0 and at T = max k
    assert split_level([4, 4]) == 0


def test_gibbs_posterior_concentration():
    hits = trials = 0
    for lam_true in (0.6, 0.8, 1.25):
        for rep in range(15):
            data = random_dataset(lam_true, 2000, 7000 + rep, stream=int(lam_true * 100))
            cfg = GibbsConfig(n_samples=1500, burn_in=300, seed=RngStream(800 + rep))
            res = gibbs_run(data, cfg)
            trials += 1
            if abs(res.posterior_mean - lam_true) < 3.0 * res.posterior_sd:
                hits += 1
    assert hits >= 0.95 * trials


def test_gibbs_split_half_stationarity():
    # the chain is an AR(1)-like process whose lag-1 correlation equals
    # the missing-information fraction, so the half-mean sampling scale
    # carries the (1+r)/(1-r) inflation and a sqrt(2) for the difference
    ok = trials = 0
    for rep in range(12):
        data = random_dataset(1.25, 1000, 880 + rep)
        res = gibbs_run(data, GibbsConfig(n_samples=3000, burn_in=500, seed=RngStream(11, rep)))
        half = res.chain.size // 2
        gap = abs(res.chain[:half].mean() - res.chain[half:].mean())
        r1 = min(max(res.autocorrelations[0], 0.0), 0.95)
        scale = np.sqrt(2.0 * (1.0 + r1) / (1.0 - r1)) * res.posterior_sd / np.sqrt(half)
        trials += 1
        if gap < 2.0 * scale:
            ok += 1
    assert ok >= 10



def test_gibbs_mean_tracks_em_and_sd_tracks_se():
    data = random_dataset(0.6, 5000, 990)
    fit = em_fit(data, FitConfig(tol=1e-10))
    res = gibbs_run(data, GibbsConfig(seed=RngStream(55)))
    assert abs(res.posterior_mean - fit.lambda_hat) < 1e-3
    se = standard_error(data, fit.lambda_hat)
    assert res.posterior_sd == pytest.approx(se, rel=0.15)


def test_gibbs_prior_insensitivity_at_scale():
    data = random_dataset(1.1, 20_000, 991)
    means = []
    for a, b in ((0.05, 0.25), (1.0, 1.0), (0.0, 1.0)):
        res = gibbs_run(
            data, GibbsConfig(prior_a=a, prior_b=b, n_samples=4000, burn_in=500,
                              seed=RngStream(66))
        )
        means.append(res.posterior_mean)
    assert max(means) - min(means) < 1e-3
