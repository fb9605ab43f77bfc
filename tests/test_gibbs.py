import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from yulesimon import (
    CountSample,
    FitConfig,
    GibbsConfig,
    RngStream,
    autocorrelation,
    em_fit,
    gibbs_run,
    sample_mixture,
    standard_error,
)
from yulesimon.special import FieldError

from _oracles import (
    conditional_lambda_draw,
    random_dataset,
    sweeps_reciprocal,
    sweeps_two_reductions,
)


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
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="prior_a"):
            GibbsConfig(prior_a=bad)
        with pytest.raises(ValueError, match="prior_b"):
            GibbsConfig(prior_b=bad)


# (counts, prior_a, prior_b, n_samples, refused): with b = 0 the posterior
# density falls as lam**(a - 1 + N - sum k) for large lam, so it is
# improper when the counts exceed 1 by no more than a in all; at b = 1e-300
# it is proper but so wide that 8000 draws' squares overflow
IMPROPER_CASES = [
    ([1], 0.05, 0.0, 2000, True),
    ([1, 2], 1.0, 0.0, 2000, True),
    ([1, 2], 0.99, 0.0, 2000, False),
    ([1], 0.05, 1e-300, 8000, True),
]


@pytest.mark.parametrize("counts, prior_a, prior_b, n_samples, refused", IMPROPER_CASES)
def test_an_improper_or_overflowing_posterior_is_refused_naming_prior_b(
        counts, prior_a, prior_b, n_samples, refused):
    config = GibbsConfig(prior_a=prior_a, prior_b=prior_b, n_samples=n_samples)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if refused:
            with pytest.raises(FieldError, match="prior_b"):
                gibbs_run(CountSample(counts), config)
        else:
            assert math.isfinite(gibbs_run(CountSample(counts), config).posterior_sd)


def _sum_w_draws(data, split, lam, reps, g):
    """reps draws of sum_w at a fixed lam from the production sweep loop.
    Under prior rate 0 a sweep sets lam = G / sum_w, with G from the one
    draw of a scalar shape that fills no `out`; each G is made a float
    whose division records sum_w and gives lam back, so every sweep
    starts from lam, and the stream is drawn as the sampler draws it."""
    from yulesimon.gibbs import _sweeps

    draws = []

    class KeepLam(float):
        def __truediv__(self, sum_w):
            draws.append(sum_w)
            return lam

    class Generator:
        def standard_gamma(self, shape, size=None, out=None):
            drawn = g.standard_gamma(shape, size=size, out=out)
            if np.ndim(shape) or out is not None:
                return drawn
            return np.array([KeepLam(x) for x in drawn.tolist()], dtype=object)

    _sweeps(data, split, Generator(), lam, reps, 1.0, 0.0)
    return np.array(draws)


def test_sum_w_routes_share_analytic_moments():
    # the production sweep draws sum_w from the same distribution at any
    # split level: per observation (T = 0), per count level (T = max k,
    # the level the rule picks here) and split in between; each must
    # match the analytic mean S1 and variance S2 of
    # sum_i -log Beta(lam+1, k_i)
    from yulesimon.gibbs import split_level
    from yulesimon.special import pooled_harmonic_sum, pooled_harmonic_sum_sq

    data = CountSample(np.tile([1, 2, 3, 7, 20], 40))
    lam, reps = 1.3, 20_000
    assert split_level(*data.histogram()) == 20
    s1 = pooled_harmonic_sum(lam, data)
    s2 = pooled_harmonic_sum_sq(lam, data)
    for split, seed in ((0, 501), (20, 502), (3, 503)):
        sw = _sum_w_draws(data, split, lam, reps, RngStream(seed).generator())
        assert sw.size == reps
        assert sw.mean() == pytest.approx(s1, abs=5.0 * np.sqrt(s2 / reps))
        assert sw.var(ddof=1) == pytest.approx(s2, rel=0.1)


def test_chain_with_a_partial_last_block_has_its_length_and_reproduces():
    from yulesimon.gibbs import _BLOCK

    data = random_dataset(0.6, 300, 204)
    n = 2 * _BLOCK + 88
    cfg = GibbsConfig(n_samples=n, burn_in=100, seed=RngStream(7))
    a = gibbs_run(data, cfg)
    assert a.raw_chain.size == n and a.chain.size == n - 100
    assert a.raw_chain.tobytes() == gibbs_run(data, cfg).raw_chain.tobytes()
    # the whole blocks come before the partial one, so a longer chain
    # from the same seed starts with the same two blocks
    longer = gibbs_run(data, GibbsConfig(n_samples=n + _BLOCK, burn_in=100, seed=RngStream(7)))
    assert longer.raw_chain[: 2 * _BLOCK].tobytes() == a.raw_chain[: 2 * _BLOCK].tobytes()
    assert not np.array_equal(longer.raw_chain[2 * _BLOCK : n], a.raw_chain[2 * _BLOCK :])


class _RecordingGenerator:
    """A numpy Generator that records the size of every standard_gamma
    draw, whether it returns a new array or fills `out`."""

    def __init__(self, seed):
        self._g = np.random.default_rng(seed)
        self.sizes = []

    def standard_gamma(self, shape, size=None, out=None):
        drawn = self._g.standard_gamma(shape, size=size, out=out)
        self.sizes.append(np.size(drawn))
        return drawn


def test_large_sample_blocks_hold_at_most_2_18_variates():
    from yulesimon.gibbs import _BLOCK, _BLOCK_VARIATES, _sweeps, split_level

    data = random_dataset(0.6, 100_000, 205)
    split = split_level(*data.histogram())
    n_tail = int((data.counts > split).sum())
    g = _RecordingGenerator(206)
    n = 300
    chain = _sweeps(data, split, g, 0.6, n, data.n + 0.05, 0.0)
    assert chain.size == n and np.all(chain > 0.0)
    # each block draws its level gammas, remainder numerators and lam
    # gammas, then one gamma per count above the split in each sweep
    block = g.sizes[2]
    assert _BLOCK_VARIATES == 2**18 and block < _BLOCK
    assert block * (split + n_tail) <= _BLOCK_VARIATES < (block + 1) * (split + n_tail)
    want = []
    for start in range(0, n, block):
        size = min(block, n - start)
        want += [size * split, size * n_tail, size] + [n_tail] * size
    assert g.sizes == want


def test_split_level_minimises_variates_per_sweep():
    from yulesimon.gibbs import split_level

    def level(counts):
        return split_level(*CountSample(counts).histogram())

    # cost T + 2 #{k > T}: 20 at T = 0 beats 100 at T = max k
    assert level([100] * 10) == 0
    # 20, then 1 + 2 = 3 at T = 1, then 2 at T = max k
    assert level([1] * 9 + [2]) == 2
    # 20, then 1 + 2 = 3 at T = 1, then 1000 at T = max k
    assert level([1] * 9 + [1000]) == 1
    # ties go to the smaller level: 4 at T = 0 and at T = max k
    assert level([4, 4]) == 0


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


# short chains pinned as float.hex (posterior mean, posterior sd, last
# raw draw), one at each kind of split level the sweep can choose
GIBBS_BITS = {
    "T = 0": (lambda: CountSample(np.arange(100, 140)), 0,
              ["0x1.b4269a4880a50p-3", "0x1.3d8cbc9e00c74p-5", "0x1.0821b53427b52p-2"]),
    "interior T": (lambda: sample_mixture(1.25, 300, RngStream(5)), 13,
                   ["0x1.69720df2e6fc6p+0", "0x1.d54920aca55d1p-4", "0x1.8f923d07b5546p+0"]),
    "T = max k": (lambda: sample_mixture(5.0, 200, RngStream(1)), 5,
                  ["0x1.b4aac5e4d5a10p+2", "0x1.9690e44d10e7dp-1", "0x1.dcb749d0236f5p+2"]),
    # every draw lies in [1/4, 1/2), so lam + 1 and lam + 2 sit in different
    # binades and the G_a shape lam + split + 1.0, rounded twice, differs
    # from lam + (split + 1.0) on some sweeps
    "T = 1 across a binade": (
        lambda: CountSample(np.r_[np.ones(20, dtype=np.int64), np.arange(3, 123, 2)]), 1,
        ["0x1.4881eca3b8c39p-2", "0x1.03cd3e63be73dp-5", "0x1.887b27dc3a642p-2"]),
}


@pytest.mark.parametrize("case", GIBBS_BITS)
def test_gibbs_chain_reproduces_pinned_bits(case):
    from yulesimon.gibbs import split_level

    sample, split, want = GIBBS_BITS[case]
    data = sample()
    assert split_level(*data.histogram()) == split
    res = gibbs_run(data, GibbsConfig(n_samples=40, burn_in=10, seed=RngStream(11),
                                      prior_a=2.0, prior_b=0.5))
    assert [res.posterior_mean.hex(), res.posterior_sd.hex(), res.raw_chain[-1].hex()] == want


@pytest.mark.parametrize("case", GIBBS_BITS)
def test_sweep_matches_the_two_reduction_sweep(case):
    # one dot product for sum_w draws what the dot plus a sum over the
    # remainders drew, and differs only in the rounding of the sum; with
    # no remainder (T = max k) the dot is the same one
    from yulesimon.gibbs import _sweeps, split_level

    sample, split, _ = GIBBS_BITS[case]
    data = sample()
    assert split_level(*data.histogram()) == split
    chains, states = [], []
    for sweeps in (_sweeps, sweeps_two_reductions):
        g = RngStream(12).generator()
        chains.append(sweeps(data, split, g, 1.0, 2000, 2.0 + data.n, 0.5))
        states.append(g.bit_generator.state)
    assert states[0] == states[1]
    if split == data.counts.max():
        assert chains[0].tobytes() == chains[1].tobytes()
    else:
        np.testing.assert_allclose(chains[0], chains[1], rtol=1e-12, atol=0.0)


@st.composite
def split_samples(draw, kind):
    """(counts, split level) with the split level of `kind`: 0, interior
    or the largest count."""
    if kind == "T = 0":
        # every count is at least 2N, so one beta per count, 2N variates,
        # costs no more than any level
        n = draw(st.integers(1, 30))
        counts = draw(st.lists(st.integers(2 * n, 2 * n + 500), min_size=n, max_size=n))
        return counts, 0
    # every level up to top holds a count, so no lower level costs less
    top = draw(st.integers(1, 40))
    counts = list(range(1, top + 1)) + draw(st.lists(st.integers(1, top), max_size=30))
    if kind == "T = max k":
        return counts, top
    # the j-th count above top exceeds it by more than 2j, so no higher
    # level costs less either
    gaps = draw(st.lists(st.integers(3, 50), min_size=1, max_size=30))
    return counts + (top + np.cumsum(gaps)).tolist(), top


@pytest.mark.parametrize("kind", ["T = 0", "interior T", "T = max k"])
@settings(derandomize=True, database=None, deadline=None, max_examples=15)
@given(data=st.data())
def test_sweep_draws_the_reciprocal_sweeps_bits(kind, data):
    # one division over (1 | G_b) / (lam + t | G_a) gives the chain that
    # np.reciprocal over the levels and a separate divide over the
    # remainders gave, bit for bit, from the same draws; 1, 255, 256, 257
    # and 600 sweeps are within, at and past the first block of 256
    from yulesimon.gibbs import _sweeps, split_level

    counts, split = data.draw(split_samples(kind))
    sample = CountSample(counts)
    assert split_level(*sample.histogram()) == split
    lam = data.draw(st.floats(0.05, 20.0))
    rate = data.draw(st.floats(0.05, 2.0))
    seed = data.draw(st.integers(0, 2**32 - 1))
    for n_sweeps in (1, 255, 256, 257, 600):
        chains, states = [], []
        for sweeps in (_sweeps, sweeps_reciprocal):
            g = np.random.default_rng(seed)
            chains.append(sweeps(sample, split, g, lam, n_sweeps, 2.0 + sample.n, rate))
            states.append(g.bit_generator.state)
        assert chains[0].tobytes() == chains[1].tobytes()
        assert states[0] == states[1]
