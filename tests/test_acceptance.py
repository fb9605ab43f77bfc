"""Acceptance suite. Each test prints one PASS/FAIL/SKIPPED line; run
with `pytest tests/test_acceptance.py -s` to see them all.

Fits feeding the identity checks (1-3, 8) use explicit tight
tolerances: the Louis/Oakes and Jacobian/rate identities hold exactly
at the fixed point, so the evaluation point must sit on it to more
digits than the identity tolerance being asserted. Criterion 10 uses
the default configuration on purpose.
"""

import math

import numpy as np
import pytest

from yulesimon import (
    FitConfig,
    GibbsConfig,
    ExperimentSpec,
    RngStream,
    em_fit,
    em_map_jacobian,
    em_step,
    gibbs_run,
    louis_information,
    numeric_information,
    oakes_information,
    observed_loglik,
    rate_theoretical,
    run_experiment,
    sample_mixture,
    standard_error,
)
from yulesimon.convergence import empirical_rates

from _oracles import (
    CONVEXITY_BOUND,
    convexity_check,
    finite_em_step,
    golden_section_maximize,
    random_dataset,
)
from _textdata import TEXT_TABLE, TEXTS_DIR, load_text_counts, missing_texts

# acceptance bands for the two pinned estimates
TEXT_LAMBDA_BANDS = {"ulysses": (1.03, 1.13), "war_and_peace": (0.59, 0.65)}


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:02d} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _grid_datasets(seed0: int, how_many: int, lams, ns):
    rng = np.random.default_rng(seed0)
    out = []
    for i in range(how_many):
        lam = float(rng.choice(lams))
        n = int(rng.choice(ns))
        out.append(random_dataset(lam, n, seed0 + i))
    return out


@pytest.fixture(scope="module")
def fifty_fits():
    # interior maxima guaranteed away from the tiny-N, lambda=10 corner
    datasets = _grid_datasets(200, 50, (0.6, 0.8, 1.25, 5.0), (200, 1000, 5000))
    fits = [em_fit(d, FitConfig(tol=1e-10, max_iter=4000)) for d in datasets]
    assert all(f.converged for f in fits)
    return list(zip(datasets, fits))


@pytest.fixture(scope="module")
def recovery_experiments():
    out = {}
    for n in (5000, 50):
        spec = ExperimentSpec(
            true_lambda=0.6,
            n=n,
            n_rep=200,
            estimators=("em",),
            seed=RngStream(20260500 + n),
            fit_config=FitConfig(tol=1e-9),
        )
        out[n] = (spec, run_experiment(spec))
    return out


def test_criterion_01_louis_equals_oakes():
    datasets = _grid_datasets(100, 100, (0.6, 0.8, 1.25, 5.0, 10.0), (50, 500, 5000))
    worst = 0.0
    for data in datasets:
        fit = em_fit(data, FitConfig(tol=1e-8, max_iter=3000))
        lam = fit.lambda_hat if fit.converged else 1.0
        i_o = oakes_information(data, lam)
        i_l = louis_information(data, lam)
        worst = max(worst, abs(i_l - i_o) / abs(i_o))
    report(1, worst <= 1e-9, f"max |I_L - I_O|/I_O = {worst:.3e} over 100 datasets (<= 1e-9)")


def test_criterion_02_mle_matches_golden_section(fifty_fits):
    worst = 0.0
    for data, fit in fifty_fits:
        oracle = golden_section_maximize(
            lambda lam: observed_loglik(data, lam), 1e-6, 1e3, tol=1e-8
        )
        worst = max(worst, abs(fit.lambda_hat - oracle))
    report(2, worst <= 1e-4, f"max |EM - golden section| = {worst:.3e} over 50 fits (<= 1e-4)")


def test_criterion_03_information_matches_numeric(fifty_fits):
    worst = 0.0
    for data, fit in fifty_fits:
        i_o = oakes_information(data, fit.lambda_hat)
        i_n = numeric_information(data, fit.lambda_hat)
        worst = max(worst, abs(i_o - i_n) / abs(i_o))
    report(3, worst <= 1e-5, f"max |I_O - I_numeric|/I_O = {worst:.3e} over 50 fits (<= 1e-5)")


def test_criterion_04_update_forms_agree():
    rng = np.random.default_rng(400)
    worst = 0.0
    for i in range(1000):
        lam_true = float(rng.choice([0.6, 0.8, 1.25, 5.0]))
        data = random_dataset(lam_true, 60, 4000 + i)
        lam = float(rng.uniform(0.0, 10.0))
        fin = finite_em_step(lam, data)
        pol = em_step(lam, data)
        worst = max(worst, abs(fin - pol) / abs(fin))
    report(4, worst <= 1e-12, f"max relative gap finite vs polygamma = {worst:.3e} (<= 1e-12)")


def test_criterion_05_synthetic_recovery_standard_errors(recovery_experiments):
    _, big = recovery_experiments[5000]
    _, small = recovery_experiments[50]
    mean_big = big.estimators["em"].se_mean
    mean_small = small.estimators["em"].se_mean
    ok = 0.0085 <= mean_big <= 0.0105 and 0.085 <= mean_small <= 0.11
    report(
        5,
        ok,
        f"mean EM SE: N=5000 -> {mean_big:.4f} (in [0.0085, 0.0105]), "
        f"N=50 -> {mean_small:.4f} (in [0.085, 0.11]), 200 reps each",
    )


def test_criterion_06_em_gibbs_agreement():
    hits = 0
    total = 0
    for lam_true, n_samples in ((0.6, 8000), (1.25, 50_000)):
        for rep in range(10):
            data = sample_mixture(lam_true, 5000, RngStream(20260600, rep + int(lam_true * 100)))
            fit = em_fit(data, FitConfig(tol=1e-8))
            cfg = GibbsConfig(
                n_samples=n_samples,
                burn_in=500,
                seed=RngStream(20260601, rep + int(lam_true * 100)),
            )
            result = gibbs_run(data, cfg)
            total += 1
            if abs(result.posterior_mean - fit.lambda_hat) < 5e-4:
                hits += 1
    report(6, hits >= 18, f"|EM - Gibbs mean| < 5e-4 in {hits}/{total} reps at N=5000 (need >= 18)")


def test_criterion_07_convergence_rate_lam_1_1():
    data = random_dataset(1.1, 500, 4711)
    fit = em_fit(data, FitConfig(tol=1e-9))
    rate = rate_theoretical(data, fit.lambda_hat)
    tail = empirical_rates(fit.trace)[0][-3:]
    tail_ok = all(abs(r - rate) < 0.1 for r in tail)
    ok = 0.28 <= rate <= 0.48 and tail_ok
    report(
        7,
        ok,
        f"r(lambda_hat) = {rate:.3f} (in [0.28, 0.48]); terminal empirical rates "
        f"{[round(r, 3) for r in tail]} within 0.1",
    )


def test_criterion_08_jacobian_identity(fifty_fits, recovery_experiments):
    worst_fp = 0.0
    for data, fit in fifty_fits:
        gap = abs(em_map_jacobian(data, fit.lambda_hat) - rate_theoretical(data, fit.lambda_hat))
        worst_fp = max(worst_fp, gap)
    for n, (spec, summary) in recovery_experiments.items():
        for rec in summary.records:
            if rec.status != "converged":
                continue
            data = sample_mixture(spec.true_lambda, spec.n, spec.seed.child(rec.rep, 0))
            gap = abs(em_map_jacobian(data, rec.lambda_hat) - rate_theoretical(data, rec.lambda_hat))
            worst_fp = max(worst_fp, gap)

    rng = np.random.default_rng(800)
    worst_fd = 0.0
    for i in range(100):
        data = random_dataset(float(rng.choice([0.6, 1.25, 5.0])), 120, 8000 + i)
        lam = float(np.exp(rng.uniform(np.log(0.2), np.log(10.0))))
        h = 1e-5 * max(1.0, lam)
        fd = (em_step(lam + h, data) - em_step(lam - h, data)) / (2 * h)
        worst_fd = max(worst_fd, abs(em_map_jacobian(data, lam) - fd))
    ok = worst_fp <= 1e-8 and worst_fd <= 1e-7
    report(
        8,
        ok,
        f"max |J - r| at fixed points = {worst_fp:.2e} (<= 1e-8); "
        f"max |J - finite diff| = {worst_fd:.2e} at 100 random points (<= 1e-7)",
    )


def test_criterion_09_convexity_certificate():
    grid = np.linspace(0.01, CONVEXITY_BOUND - 1e-6, 50)
    worst = -math.inf
    rng = np.random.default_rng(900)
    for i in range(100):
        data = random_dataset(float(rng.choice([0.6, 0.8, 1.25, 5.0])), 100, 9000 + i)
        for lam in grid:
            second, inside = convexity_check(data, float(lam))
            assert inside
            worst = max(worst, second)
    report(9, worst < 0.0, f"max second derivative on certified interval = {worst:.3e} (< 0)")


def test_criterion_10_iteration_counts_default_tol():
    medians = {}
    for lam_true in (0.6, 0.8, 1.25):
        for n in (50, 500, 5000):
            iters = [
                em_fit(random_dataset(lam_true, n, 10_000 + rep, stream=n)).iterations
                for rep in range(31)
            ]
            medians[(lam_true, n)] = float(np.median(iters))
    slow = [
        em_fit(random_dataset(5.0, 500, 11_000 + rep)).iterations for rep in range(31)
    ]
    slow_median = float(np.median(slow))
    small_ok = all(m <= 10 for m in medians.values())
    ok = small_ok and 20 <= slow_median <= 120
    report(
        10,
        ok,
        f"median iterations (default tol): small-lambda cells max = "
        f"{max(medians.values()):.0f} (<= 10); lambda=5 -> {slow_median:.0f} (in [20, 120])",
    )


def test_criterion_11_text_reproduction():
    missing = missing_texts()
    if missing:
        print(
            f"ACCEPTANCE 11 SKIPPED - Gutenberg files not found in {TEXTS_DIR} "
            f"(missing: {', '.join(missing)})"
        )
        pytest.skip(f"texts not available: {missing}")
    details = []
    ok = True
    for name, (filename, _, se_table, _) in TEXT_TABLE.items():
        data = load_text_counts(filename)
        fit = em_fit(data, FitConfig(tol=1e-6))
        se = standard_error(data, fit.lambda_hat)
        gibbs = gibbs_run(data, GibbsConfig(seed=RngStream(1100)))
        agree = abs(gibbs.posterior_mean - fit.lambda_hat) < 5e-4
        se_ok = abs(se - se_table) <= 0.002
        band = TEXT_LAMBDA_BANDS.get(name)
        band_ok = band is None or band[0] <= fit.lambda_hat <= band[1]
        ok = ok and agree and se_ok and band_ok
        details.append(f"{name}: lam={fit.lambda_hat:.4f} se={se:.4f} gibbs_agree={agree}")
    report(11, ok, "; ".join(details))


def test_criterion_12_distributional_sanity():
    sample = sample_mixture(5.0, 1_000_000, RngStream(1200))
    mean_ok = abs(sample.sample_mean() - 1.25) <= 0.0125
    from yulesimon import pmf

    partial = float(pmf(np.arange(1, 1_000_001), 0.6).sum())
    ok = mean_ok and partial >= 0.999
    report(
        12,
        ok,
        f"mixture mean at lambda=5: {sample.sample_mean():.4f} (within 1% of 1.25); "
        f"pmf partial sum at lambda=0.6: {partial:.5f} (>= 0.999)",
    )


@pytest.mark.xfail(
    strict=False,
    reason=(
        "single-chain autocorrelation of this data-augmentation sampler equals "
        "the missing-information fraction (~0.38 at lambda=1.1), so lags 1-3 "
        "cannot fall below 0.05; see the decisions ledger"
    ),
)
def test_criterion_13_gibbs_autocorrelation_threshold():
    data = random_dataset(1.1, 29_000, 1300)
    result = gibbs_run(data, GibbsConfig(seed=RngStream(1301)))
    acf_max = float(np.max(np.abs(result.autocorrelations)))
    report(
        13,
        acf_max < 0.05,
        f"max |acf(1..100)| = {acf_max:.3f} on N=29000, lambda=1.1 (< 0.05); "
        f"lag-1 = {result.autocorrelations[0]:.3f} matches the theoretical rate "
        f"{rate_theoretical(data, 1.1):.3f}, not the 0.05 threshold",
    )
