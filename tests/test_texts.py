"""Text-application suite; every test skips unless the five Gutenberg
novels are available locally (see _textdata)."""

import numpy as np
import pytest

from yulesimon import (
    FitConfig,
    GibbsConfig,
    RngStream,
    em_fit,
    gibbs_run,
    standard_error,
    strip_gutenberg,
    tokenize_count,
)
from yulesimon.convergence import empirical_rates, rate_theoretical

from _textdata import TEXT_TABLE, TEXTS_DIR, load_text_counts, missing_texts, texts_available

pytestmark = pytest.mark.skipif(
    not texts_available(), reason=f"Gutenberg texts missing from {TEXTS_DIR}: {missing_texts()}"
)


@pytest.fixture(scope="module")
def text_counts():
    return {name: load_text_counts(row[0]) for name, row in TEXT_TABLE.items()}


def test_unique_word_counts_near_reported(text_counts):
    for name, (_, _, _, n_unique) in TEXT_TABLE.items():
        got = text_counts[name].n
        assert abs(got - n_unique) <= 0.02 * n_unique, (name, got)


def test_em_estimates_and_standard_errors(text_counts):
    for name, (_, lam_ref, se_ref, _) in TEXT_TABLE.items():
        data = text_counts[name]
        fit = em_fit(data, FitConfig(tol=1e-6))
        assert fit.converged
        assert fit.lambda_hat == pytest.approx(lam_ref, abs=0.05), name
        se = standard_error(data, fit.lambda_hat)
        assert se == pytest.approx(se_ref, abs=0.002), name
        assert fit.iterations <= 15


def test_em_gibbs_three_decimal_agreement(text_counts):
    for name, data in text_counts.items():
        fit = em_fit(data, FitConfig(tol=1e-6))
        res = gibbs_run(data, GibbsConfig(seed=RngStream(42)))
        assert abs(res.posterior_mean - fit.lambda_hat) < 5e-4, name
        se = standard_error(data, fit.lambda_hat)
        assert res.posterior_sd == pytest.approx(se, abs=5e-4), name


def test_initialization_insensitivity_on_text(text_counts):
    data = text_counts["ulysses"]
    fits = [
        em_fit(data, FitConfig(tol=1e-6, init=start)).lambda_hat
        for start in (0.0, 0.6, 1.1, 1.25, 2.0)
    ]
    assert max(fits) - min(fits) < 1e-3


def test_gibbs_prior_insensitivity_on_text(text_counts):
    data = text_counts["war_and_peace"]
    means = []
    for a, b in ((0.05, 0.25), (1.0, 1.0), (0.0, 1.0)):
        res = gibbs_run(data, GibbsConfig(prior_a=a, prior_b=b, seed=RngStream(7)))
        means.append(res.posterior_mean)
    assert max(means) - min(means) < 1e-3


def test_empirical_rates_track_theoretical_on_text(text_counts):
    data = text_counts["ulysses"]
    fit = em_fit(data, FitConfig(tol=1e-9))
    rate = rate_theoretical(data, fit.lambda_hat)
    tail = empirical_rates(fit.trace)[0][-3:]
    assert all(abs(r - rate) < 0.1 for r in tail)


@pytest.mark.xfail(
    strict=False,
    reason="chain autocorrelation equals the missing-information fraction "
    "(~0.37 for this text), far above the 5% threshold",
)
def test_gibbs_autocorrelation_below_five_percent_on_text(text_counts):
    res = gibbs_run(text_counts["ulysses"], GibbsConfig(seed=RngStream(99)))
    assert float(np.max(np.abs(res.autocorrelations))) < 0.05
