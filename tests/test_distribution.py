import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate, stats

from yulesimon import (
    CountFileError,
    CountSample,
    FitConfig,
    RngStream,
    em_fit,
    log_pmf,
    pmf,
    read_count_file,
    sample_mixture,
    sample_urn,
    write_count_file,
)
from _oracles import mixture_latents, urn_loop


def test_log_pmf_known_values():
    assert log_pmf(1, 1.0) == pytest.approx(math.log(0.5), abs=1e-12)
    for k in (2, 3, 4):
        assert log_pmf(k, 1.0) == pytest.approx(math.log(1.0 / (k * (k + 1))), abs=1e-12)
    assert log_pmf(1, 2.0) == pytest.approx(math.log(2.0 / 3.0), abs=1e-12)


def test_log_pmf_matches_gamma_ratio_form():
    # lam*B(lam+1,k) == lam*G(k)G(lam+1)/G(k+lam+1), checked in log space
    rng = np.random.default_rng(11)
    for _ in range(50):
        lam = float(rng.uniform(0.1, 20.0))
        k = int(rng.integers(1, 10_000))
        ref = float(
            mp.log(lam) + mp.loggamma(k) + mp.loggamma(lam + 1) - mp.loggamma(k + lam + 1)
        )
        assert abs(log_pmf(k, lam) - ref) <= 1e-12 * max(1.0, abs(ref))


def test_log_pmf_domain_errors():
    with pytest.raises(ValueError):
        log_pmf(0, 1.0)
    with pytest.raises(ValueError):
        log_pmf(1, 0.0)
    with pytest.raises(ValueError):
        log_pmf(1.5, 1.0)


def test_pmf_normalization_partial_sums():
    k = np.arange(1, 1_000_001)
    for lam in (0.6, 1.25, 5.0):
        probs = pmf(k, lam)
        assert np.all(probs > 0)
        total = probs.sum()
        assert total >= 0.999
        assert total < 1.0 + 1e-9
        partial = np.cumsum(probs)
        assert np.all(np.diff(partial) >= 0)
        # strict growth while the increments are still representable
        assert np.all(np.diff(partial[:100]) > 0)


def test_pmf_strictly_decreasing_and_mode_one():
    k = np.arange(1, 10_001)
    for lam in (0.6, 1.25, 5.0, 10.0):
        probs = pmf(k, lam)
        assert np.all(np.diff(probs) < 0)
        assert probs[0] == max(probs)


def test_joint_marginalizes_to_pmf():
    # integrating lam p^lam (1-p)^(k-1) over (0,1) recovers the mass
    for lam in (0.6, 1.25, 5.0):
        for k in (1, 2, 5, 17, 50):
            val, _ = integrate.quad(
                lambda p: lam * p**lam * (1.0 - p) ** (k - 1), 0.0, 1.0,
                epsabs=1e-13, epsrel=1e-12,
            )
            assert val == pytest.approx(pmf(k, lam), abs=1e-8)


def test_sample_mixture_reproducible():
    stream = RngStream(seed=99, stream_id=3)
    a = sample_mixture(1.25, 500, stream)
    b = sample_mixture(1.25, 500, stream)
    assert a == b
    assert np.array_equal(mixture_latents(1.25, 500, stream)[2], a.counts)
    c = sample_mixture(1.25, 500, RngStream(seed=99, stream_id=4))
    assert c != a


def test_sample_mixture_warns_when_it_clips():
    with pytest.warns(RuntimeWarning, match=r"clipped 327 of 3000 draws at 2\*\*62"):
        sample = sample_mixture(0.05, 3000, RngStream(2))
    assert np.count_nonzero(sample.counts == 2**62) == 327
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sample_mixture(0.6, 3000, RngStream(2))


def test_sample_mixture_latent_consistency():
    sample = sample_mixture(0.8, 2000, RngStream(5))
    p, w, k = mixture_latents(0.8, 2000, RngStream(5))
    assert np.allclose(p, np.exp(-w))
    assert np.all((p > 0) & (p < 1))
    assert np.array_equal(k, sample.counts)
    assert k.size == sample.n


def test_sample_mixture_mean_matches_formula():
    sample = sample_mixture(5.0, 1_000_000, RngStream(42))
    assert sample.sample_mean() == pytest.approx(1.25, rel=0.01)


def test_sample_mixture_matches_pmf_at_one():
    sample = sample_mixture(1.25, 1_000_000, RngStream(43))
    frac_ones = np.mean(sample.counts == 1)
    assert frac_ones == pytest.approx(pmf(1, 1.25), abs=0.005)


def test_sample_mixture_chi_square_gof():
    # pooled bins {1..20, >=21} against the exact pmf
    edges = np.arange(1, 21)
    for lam, seed in ((0.6, 1), (1.25, 2), (5.0, 3)):
        sample = sample_mixture(lam, 1_000_000, RngStream(7, seed))
        observed = np.array(
            [np.sum(sample.counts == k) for k in edges] + [np.sum(sample.counts >= 21)]
        )
        p_bins = pmf(edges, lam)
        expected = np.concatenate([p_bins, [1.0 - p_bins.sum()]]) * sample.n
        _, pvalue = stats.chisquare(observed, expected)
        assert pvalue > 0.001


def test_sample_urn_reproducible_and_validates():
    a = sample_urn(5.0, 2000, RngStream(1))
    b = sample_urn(5.0, 2000, RngStream(1))
    assert a == b
    with pytest.raises(ValueError):
        sample_urn(1.0, 100, RngStream(1))
    with pytest.raises(ValueError):
        sample_urn(0.8, 100, RngStream(1))


def test_sample_urn_innovation_dominated_limit():
    # huge lambda -> innovation probability near 1 -> nearly all counts 1
    sample = sample_urn(1000.0, 20_000, RngStream(2))
    assert np.mean(sample.counts == 1) > 0.99


def test_sample_urn_total_preserved():
    total = 5000
    sample = sample_urn(2.0, total, RngStream(3))
    assert sample.total() == total


def test_sample_urn_em_recovery():
    # repeated-seed median of the EM fit recovers the urn parameter
    estimates = []
    for s in range(5):
        sample = sample_urn(5.0, 100_000, RngStream(60, s))
        fit = em_fit(sample, FitConfig(tol=1e-8))
        assert fit.converged
        estimates.append(fit.lambda_hat)
    assert abs(float(np.median(estimates)) - 5.0) < 0.5


@pytest.mark.parametrize("n", [1, 2, 10, 1000, 200_000])
@pytest.mark.parametrize("lam", [1.0001, 1.25, 3.0, 50.0])
@pytest.mark.parametrize("seed", [1, 2])
def test_sample_urn_matches_the_arrival_loop(n, lam, seed):
    sample = sample_urn(lam, n, RngStream(seed))
    assert sample == urn_loop(lam, n, RngStream(seed))
    innovate = RngStream(seed).generator().random(n) < 1.0 - 1.0 / lam
    assert sample.total() == n
    assert sample.n == 1 + np.count_nonzero(innovate[1:])


def test_latent_posterior_mean_monte_carlo():
    # the mixture's p among the draws that gave k = 7 follows the latent
    # conditional p | k, lam ~ Beta(lam+1, k)
    k, lam = 7, 0.6
    p, _, counts = mixture_latents(lam, 1_000_000, RngStream(17))
    draws = p[counts == k]
    posterior = stats.beta(lam + 1.0, k)
    assert draws.size > 10_000
    sem = posterior.std() / math.sqrt(draws.size)
    assert draws.mean() == pytest.approx(posterior.mean(), abs=5.0 * sem)
    assert stats.kstest(draws, posterior.cdf).pvalue > 0.001


def test_count_sample_validation():
    with pytest.raises(ValueError):
        CountSample([])
    with pytest.raises(ValueError):
        CountSample([1, 0, 2])
    with pytest.raises(ValueError):
        CountSample([1.5, 2.0])
    sample = CountSample([3.0, 1.0])  # integral floats accepted
    assert sample.counts.dtype == np.int64
    assert sample.n == 2


def test_count_file_roundtrip(tmp_path):
    path = tmp_path / "counts.txt"
    sample = CountSample([3, 1, 1, 7])
    write_count_file(path, sample)
    assert path.read_bytes() == b"3\n1\n1\n7\n"
    assert read_count_file(path) == sample


@pytest.mark.parametrize("n", [2 * 4096, 2 * 4096 + 1])
def test_count_file_blocks_write_one_line_per_count(tmp_path, n):
    # n ends on, and one past, a boundary of write_count_file's 4096-line
    # blocks; the counts run from 1 to the int64 limit
    draws = np.random.default_rng(n).integers(1, 2**63 - 1, size=n, endpoint=True)
    counts = np.maximum(draws >> (np.arange(n) % 63), 1)
    counts[:2] = 1, 2**63 - 1
    sample = CountSample(counts)
    path = tmp_path / "counts.txt"
    write_count_file(path, sample)
    assert path.read_text(encoding="utf-8") == "".join(f"{k}\n" for k in counts)
    assert read_count_file(path) == sample


def test_count_file_errors_name_the_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2\n5\n0\n1\n")
    with pytest.raises(CountFileError, match="line 3"):
        read_count_file(path)
    path.write_text("2\nfoo\n")
    with pytest.raises(CountFileError, match="line 2"):
        read_count_file(path)
    path.write_text("")
    with pytest.raises(CountFileError):
        read_count_file(path)
    # only ASCII digits: no digit separators, signs or non-ASCII digits
    for bad in ("1_0", "+3", "-3", "\u0663", "1 2"):
        path.write_text(f"2\n\n{bad}\n4\n", encoding="utf-8")
        with pytest.raises(CountFileError, match="line 3"):
            read_count_file(path)
    for big in (str(2**63), "9" * 5000):
        path.write_text(f"1\n{big}\n")
        with pytest.raises(CountFileError, match="line 2"):
            read_count_file(path)
    # a byte that is not UTF-8 is named by its line, not by a decode error
    path.write_bytes(b"2\n\n\xff\n4\n")
    with pytest.raises(CountFileError, match="line 3"):
        read_count_file(path)
    path.write_text(f" 7 \n\n{2**63 - 1}\n{'0' * 5000}3\n")
    assert read_count_file(path).counts.tolist() == [7, 2**63 - 1, 3]
