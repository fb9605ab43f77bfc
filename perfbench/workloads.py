"""Benchmark workloads: seeded inputs, the argv of one job, and the
output checks.

Inputs are drawn here with numpy alone, never through the package's
generators, so a change to a generator cannot change another
workload's inputs. Each input function asserts, from the data alone, the
property that selects the code path the workload is meant to exercise.
Checks compare the program's output with independent routes
(scipy special functions, planted counts, recorded summaries).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
DESIGN = json.loads((HERE / "design.json").read_text(encoding="utf-8"))

NAMES = ("fit_large", "gibbs_heavy", "gibbs_light", "replicate", "text", "urn")

# the package switches pooled sums to the polygamma form at this many terms
POLYGAMMA_TERMS = 1_000_000
# The light Gibbs file holds exactly two counts at this largest value, so
# every seed runs the same number of gamma levels per sweep, and every
# level has a multiplicity of at least two: numpy draws shape-1 gammas by
# a cheaper exponential path, so a seed-dependent number of levels with a
# single count moved the per-sweep cost by up to 30%.
LIGHT_MAX_COUNT = 756
# Gibbs sweeps per job: a 2000-sweep chain rather than the default 8000
GIBBS_SWEEPS = 2000
# latent success probabilities are floored here, which keeps every count
# (and the sum of a whole file) far from the int64 limit
MIN_P = 1e-12

# Full size and the reduced size the smoke check uses. Full-size jobs
# take 0.1-0.25 s, so a 15 s run holds 60-150 of them: the upper
# quartile of job time is steady over many jobs, not over a few.
SIZES = {
    "full": {"fit_n": 250_000, "gibbs_heavy_n": 1000, "gibbs_light_n": 5000,
             "text_tokens": 100_000, "text_words": 5600, "urn_n": 200_000},
    "small": {"fit_n": 50_000, "gibbs_heavy_n": 300, "gibbs_light_n": 1000,
              "text_tokens": 20_000, "text_words": 1120, "urn_n": 50_000},
}


class CheckFailed(Exception):
    """The program's output disagrees with the independent route."""


@dataclass
class Workload:
    """One job's argv, the files it writes, the work units it does, and
    what the output check needs."""

    name: str
    argv: list[str]
    outputs: list[str]
    work: int
    unit: str
    digest: str
    expect: dict = field(default_factory=dict)
    properties: dict = field(default_factory=dict)


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def mixture_counts(rng: np.random.Generator, lam: float, n: int) -> np.ndarray:
    """Yule-Simon draws: p = U**(1/lam) (a Beta(lam, 1) variate), then
    k ~ Geometric(p) on {1, 2, ...}."""
    p = np.maximum((1.0 - rng.random(n)) ** (1.0 / lam), MIN_P)
    return rng.geometric(p).astype(np.int64)


def _write_counts(path: Path, counts: np.ndarray) -> None:
    path.write_text("\n".join(map(str, counts.tolist())) + "\n", encoding="utf-8")


def _digest(paths, argv) -> str:
    h = hashlib.sha256(json.dumps(argv).encode())
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()[:16]


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise RuntimeError(f"input property violated: {message}")


def _build_fit_large(seed, workdir, size):
    counts = mixture_counts(_rng(seed, 1), 0.6, size["fit_n"])
    total = sum(int(x) for x in counts)
    _require(total >= POLYGAMMA_TERMS, f"sum of counts {total} < {POLYGAMMA_TERMS}")
    _require(total < 2**62, "sum of counts near the int64 limit")
    path = workdir / "fit_large.counts"
    _write_counts(path, counts)
    argv = ["fit", path.name]
    u, c = np.unique(counts, return_counts=True)
    return Workload(
        "fit_large", argv, [], counts.size, "counts", _digest([path], argv),
        expect={"u": u, "c": c},
        properties={"n": int(counts.size), "sum_k": total, "distinct": int(u.size)},
    )


def _build_gibbs(name, lam, seed, workdir, size):
    n = size[f"{name}_n"]
    rng = _rng(seed, 2 if name == "gibbs_heavy" else 3)
    counts = mixture_counts(rng, lam, n)
    if name == "gibbs_heavy":
        while counts.max() < n:  # P ~ 1e-6 at n = 1000, 1e-4 at n = 300
            counts = mixture_counts(rng, lam, n)
        _require(int(counts.max()) >= n, "heavy file needs max k >= N (beta branch)")
    else:
        high = counts >= LIGHT_MAX_COUNT
        while high.any():
            counts[high] = mixture_counts(rng, lam, int(high.sum()))
            high = counts >= LIGHT_MAX_COUNT
        counts[:2] = LIGHT_MAX_COUNT
        _require(int(counts.max()) < n, "light file needs max k < N (gamma branch)")
    path = workdir / f"{name}.counts"
    _write_counts(path, counts)
    argv = ["gibbs", path.name, "--samples", str(GIBBS_SWEEPS), "--seed", str(seed)]
    u, c = np.unique(counts, return_counts=True)
    return Workload(
        name, argv, [], GIBBS_SWEEPS, "sweeps", _digest([path], argv),
        expect={"u": u, "c": c},
        properties={"n": n, "max_k": int(counts.max())},
    )


def _build_replicate(seed, workdir, size):
    # The experiment seed is pinned: per-rep cost depends on the heavy
    # tail of each rep's draws (sum form, bincount length), so a varying
    # experiment seed would move the cost by +-12% between runs. The
    # summary is then checked against the values recorded in design.json.
    # With seed 9, rep 4 of the 12 has a sum of counts >= 10^6 and takes
    # the polygamma form, the rest the finite form; 12 reps (about 0.2 s)
    # rather than 200 give each run enough jobs.
    golden = DESIGN["replicate_summary"]
    argv = ["experiment", "--lambda", "0.6", "--n", "500", "--reps", str(golden["n_rep"]),
            "--estimators", "em", "--seed", str(golden["seed"])]
    return Workload("replicate", argv, [], golden["n_rep"], "reps", _digest([], argv),
                    expect={"summary": golden["em"]},
                    properties={"experiment_seed": golden["seed"]})


_LETTERS = np.array(list("abcdefghijklmnopqrstuvwxyz"))


def _vocabulary(rng: np.random.Generator, size: int) -> list[str]:
    words: set[str] = set()
    while len(words) < size:
        lengths = rng.integers(3, 10, size)
        letters = _LETTERS[rng.integers(0, 26, int(lengths.sum()))]
        ends = np.cumsum(lengths)
        joined = "".join(letters.tolist())
        start = 0
        for end in ends.tolist():
            words.add(joined[start:end])
            start = end
    return sorted(words)[:size]


def _build_text(seed, workdir, size):
    rng = _rng(seed, 4)
    target, n_words = size["text_tokens"], size["text_words"]
    # every word once, the other tokens spread by capped Yule-Simon weights:
    # token count and vocabulary size are the same for every seed
    weights = np.minimum(mixture_counts(rng, 0.9, n_words), target // 20).astype(np.float64)
    freqs = 1 + rng.multinomial(target - n_words, weights / weights.sum())
    words = _vocabulary(rng, freqs.size)
    planted = dict(zip(words, freqs.tolist()))
    tokens = np.repeat(np.arange(freqs.size), freqs)
    rng.shuffle(tokens)
    vocab = np.array(words, dtype=object)
    seq = vocab[tokens]
    capital = rng.random(target) < 0.1
    seq[capital] = [w.capitalize() for w in seq[capital]]
    seps = np.array([" "] * 12 + [", ", ". ", "; ", "! ", "? ", "\n", " -- "], dtype=object)
    gaps = seps[rng.integers(0, seps.size, target)]
    body = "".join((seq + gaps).tolist())
    text = (
        "The Project Gutenberg eBook of Planted Counts\n\n"
        "Header words here must not be counted: licence release encoding.\n\n"
        "*** START OF THE PROJECT GUTENBERG EBOOK PLANTED COUNTS ***\n\n"
        f"{body}\n\n"
        "*** END OF THE PROJECT GUTENBERG EBOOK PLANTED COUNTS ***\n\n"
        "Trailing licence words must not be counted either.\n"
    )
    path = workdir / "novel.txt"
    path.write_text(text, encoding="utf-8")
    argv = ["text", path.name, "--counts", "novel.counts", "--tsv", "novel.tsv"]
    return Workload(
        "text", argv, ["novel.counts", "novel.tsv"], target, "tokens", _digest([path], argv),
        expect={"planted": planted},
        properties={"tokens": target, "distinct_words": len(planted)},
    )


def _build_urn(seed, workdir, size):
    n = size["urn_n"]
    argv = ["simulate", "--generator", "urn", "--lambda", "1.25", "--n", str(n),
            "--seed", str(seed), "--out", "urn.counts"]
    return Workload("urn", argv, ["urn.counts"], n, "items", _digest([], argv),
                    expect={"lam": 1.25, "n": n}, properties={"items": n})


def build(name: str, seed: int, workdir: Path, scale: str = "full") -> Workload:
    """Write the workload's input files into workdir and return its job."""
    size = SIZES[scale]
    if name == "fit_large":
        return _build_fit_large(seed, workdir, size)
    if name == "gibbs_heavy":
        return _build_gibbs(name, 0.6, seed, workdir, size)
    if name == "gibbs_light":
        return _build_gibbs(name, 1.25, seed, workdir, size)
    if name == "replicate":
        return _build_replicate(seed, workdir, size)
    if name == "text":
        return _build_text(seed, workdir, size)
    if name == "urn":
        return _build_urn(seed, workdir, size)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------- checks


def _score_info(lam: float, u: np.ndarray, c: np.ndarray) -> tuple[float, float]:
    """Observed score and Oakes information from the count histogram,
    through scipy's digamma and trigamma."""
    from scipy.special import polygamma, psi

    n = float(c.sum())
    uf = u.astype(np.float64)
    score = n / lam + n * psi(lam + 1.0) - float(np.sum(c * psi(lam + 1.0 + uf)))
    missing = n * polygamma(1, lam + 1.0) - float(np.sum(c * polygamma(1, lam + 1.0 + uf)))
    return float(score), float(n / lam**2 - missing)


def _mle(u: np.ndarray, c: np.ndarray) -> float:
    from scipy.optimize import brentq

    return brentq(lambda lam: _score_info(lam, u, c)[0], 1e-3, 1e3, xtol=1e-12)


def _rate(lam: float, u: np.ndarray, c: np.ndarray) -> float:
    """Fraction of missing information lam^2 * sum sum (lam+j)^-2 / N."""
    _, info = _score_info(lam, u, c)
    n = float(c.sum())
    return (n / lam**2 - info) * lam**2 / n


def _json(stdout: str) -> dict:
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"stdout is not JSON: {exc}") from None


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(got: float, want: float, rel: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= rel * abs(want)


def check_fit_large(w: Workload, stdout: str, stderr: str, workdir: Path) -> None:
    report = _json(stdout)
    _expect(report.get("status") == "converged", f"status {report.get('status')!r}")
    u, c = w.expect["u"], w.expect["c"]
    lam = float(report["lambda_hat"])
    score, info = _score_info(lam, u, c)
    # EM stops once a step is below tol = 2e-4; the Newton step from a
    # correct estimate is of that size or less
    newton = score / info
    _expect(abs(newton) < 2e-4, f"lambda_hat {lam!r} is {newton:.3g} from the score root")
    se = 1.0 / math.sqrt(info)
    _expect(_close(float(report["std_err"]), se, 1e-8),
            f"std_err {report['std_err']!r} != Oakes {se!r}")
    rate = _rate(lam, u, c)
    r_reported = float(report["convergence"]["r_theoretical"])
    _expect(_close(r_reported, rate, 1e-8), f"r_theoretical {r_reported!r} != {rate!r}")
    _expect(len(report["trace"]) == report["iterations"] + 1, "trace length != iterations + 1")


def check_gibbs(w: Workload, stdout: str, stderr: str, workdir: Path) -> None:
    report = _json(stdout)
    u, c = w.expect["u"], w.expect["c"]
    lam = _mle(u, c)
    mean, sd = float(report["posterior_mean"]), float(report["posterior_sd"])
    _expect(sd > 0.0 and abs(mean - lam) < 4.0 * sd,
            f"posterior mean {mean:.6g} (sd {sd:.3g}) far from the MLE {lam:.6g}")
    # lag-1 autocorrelation of a two-block data-augmentation chain tracks
    # the fraction of missing information (Liu, Wong & Kong 1994)
    rate = _rate(lam, u, c)
    acf = float(report["acf_max"])
    # 0.12 is about five standard errors of a lag-1 autocorrelation from
    # the 1500 draws kept out of GIBBS_SWEEPS
    _expect(abs(acf - rate) < 0.12, f"acf_max {acf:.4f} outside rate {rate:.4f} +- 0.12")


def check_replicate(w: Workload, stdout: str, stderr: str, workdir: Path) -> None:
    report = _json(stdout)
    em = report["estimators"]["em"]
    want = w.expect["summary"]
    _expect(em["n_failed"] == 0, f"{em['n_failed']} replications failed")
    for key, value in want.items():
        if isinstance(value, str) or key in ("n_used", "n_failed"):
            _expect(em[key] == value, f"{key}: {em[key]!r} != {value!r}")
        else:
            _expect(_close(float(em[key]), value, 1e-9), f"{key}: {em[key]!r} != {value!r}")


def _read_counts(path: Path) -> np.ndarray:
    return np.array(path.read_text(encoding="utf-8").split(), dtype=np.int64)


def check_text(w: Workload, stdout: str, stderr: str, workdir: Path) -> None:
    planted = w.expect["planted"]
    tokens = sum(planted.values())
    _expect(stdout == f"n_unique={len(planted)} n_tokens={tokens}\n", f"stdout {stdout!r}")
    table = {}
    for line in (workdir / "novel.tsv").read_text(encoding="utf-8").splitlines():
        word, count = line.split("\t")
        table[word] = int(count)
    _expect(table == planted, "word table differs from the planted counts")
    counts = _read_counts(workdir / "novel.counts")
    _expect(sorted(counts.tolist()) == sorted(planted.values()),
            "count multiset differs from the planted one")


def check_urn(w: Workload, stdout: str, stderr: str, workdir: Path) -> None:
    counts = _read_counts(workdir / "urn.counts")
    n, lam = w.expect["n"], w.expect["lam"]
    _expect(int(counts.sum()) == n, f"urn counts sum to {int(counts.sum())}, not {n}")
    _expect(int(counts.min()) >= 1, "urn wrote a count below 1")
    # categories = 1 + Binomial(n-1, 1 - 1/lam) innovations
    alpha = 1.0 - 1.0 / lam
    mu, sd = 1 + (n - 1) * alpha, math.sqrt((n - 1) * alpha * (1 - alpha))
    _expect(abs(counts.size - mu) < 6 * sd, f"{counts.size} categories, expected {mu:.0f}")
    summary = f"n={counts.size} mean={counts.mean():.6g} max={int(counts.max())}\n"
    _expect(stderr == summary, f"stderr {stderr!r} != {summary!r}")


CHECKS = {
    "fit_large": check_fit_large,
    "gibbs_heavy": check_gibbs,
    "gibbs_light": check_gibbs,
    "replicate": check_replicate,
    "text": check_text,
    "urn": check_urn,
}


def check(w: Workload, stdout: str, stderr: str, workdir: Path) -> None:
    """Raise CheckFailed when the job's output is wrong."""
    try:
        CHECKS[w.name](w, stdout, stderr, workdir)
    except (KeyError, TypeError, ValueError, OSError) as exc:
        raise CheckFailed(f"{type(exc).__name__}: {exc}") from None
