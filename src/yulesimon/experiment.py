"""Replication engine for the synthetic studies: generate data, fit
with the selected estimators, summarize like the reference experiments
(mean, median, 95th percentile, standard deviation of the estimate and
of its standard error)."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import distribution
from .distribution import CountSample, FieldError, RngStream, _check_lambda, _check_size
from .em import CONVERGED, FitConfig, em_fit_stacked
from .gibbs import GibbsConfig, gibbs_run
from .information import standard_errors

__all__ = [
    "ExperimentSpec",
    "ReplicationRecord",
    "EstimatorSummary",
    "ExperimentSummary",
    "run_experiment",
    "write_replication_csv",
    "summarize_records",
]

CSV_HEADER = ["rep", "estimator", "lambda_hat", "se", "iters", "status"]

# Replications are fitted in blocks of at most this many counts (at
# least one rep), so memory grows with the block, not with n_rep.
_BLOCK_COUNTS = 1 << 16

GENERATORS = {"mixture": "sample_mixture", "urn": "sample_urn"}  # sampler names in distribution
_ESTIMATORS = ("em", "gibbs")


@dataclass
class ExperimentSpec:
    """One experiment cell: true parameter, sample size, replication
    count, generator and estimator selection, base random stream.

    Replication r derives its generator stream from child(r, 0) and its
    Gibbs stream from child(r, 1) of the base seed, so results do not
    depend on scheduling or on which estimators run."""

    true_lambda: float
    n: int
    n_rep: int = 200
    generator: str = "mixture"
    estimators: tuple[str, ...] = ("em",)
    seed: RngStream = field(default_factory=lambda: RngStream(0))
    fit_config: FitConfig = field(default_factory=FitConfig)
    gibbs_config: GibbsConfig = field(default_factory=GibbsConfig)

    def __post_init__(self):
        _check_lambda(self.true_lambda, "true_lambda")
        if self.generator not in GENERATORS:
            raise FieldError("{generator} must be one of {}", tuple(GENERATORS))
        if self.generator == "urn" and self.true_lambda <= 1.0:
            raise FieldError("the urn generator requires {true_lambda} > 1")
        _check_size(self.n, "n")
        _check_size(self.n_rep, "n_rep")
        bad = [e for e in self.estimators if e not in _ESTIMATORS]
        if bad or not self.estimators:
            raise FieldError("{estimators} must be a nonempty subset of {}", _ESTIMATORS)


def generate(generator: str, lam: float, n: int, rng) -> CountSample:
    """n draws of the named generator at rate lam. The sampler is looked up in
    distribution at each call, so a wrapper installed there (perfbench/tracing.py) sees it."""
    return getattr(distribution, GENERATORS[generator])(lam, n, rng)


@dataclass
class ReplicationRecord:
    rep: int
    estimator: str
    lambda_hat: float
    se: float
    iters: int
    status: str


@dataclass
class EstimatorSummary:
    """Moments over successful replications; failures counted, never
    silently dropped."""

    estimator: str
    n_used: int
    n_failed: int
    lambda_mean: float
    lambda_median: float
    lambda_p95: float
    lambda_sd: float
    se_mean: float
    se_median: float
    se_p95: float
    se_sd: float
    mean_iterations: float


@dataclass
class ExperimentSummary:
    records: list[ReplicationRecord]
    estimators: dict[str, EstimatorSummary]


def run_experiment(spec: ExperimentSpec) -> ExperimentSummary:
    """Run every replication of the cell and summarize.

    Replications are generated and EM-fitted in blocks of up to
    _BLOCK_COUNTS counts, each block through one stacked fit
    (em_fit_stacked, standard_errors); a rep's record does not depend on
    the block size. Gibbs chains run one rep after another. Records are
    in rep order, em before gibbs within a rep."""
    records: list[ReplicationRecord] = []
    block = max(1, _BLOCK_COUNTS // spec.n)
    for first in range(0, spec.n_rep, block):
        reps = range(first, min(first + block, spec.n_rep))
        samples = [generate(spec.generator, spec.true_lambda, spec.n,
                            spec.seed.child(rep, 0).generator()) for rep in reps]
        rows = []
        if "em" in spec.estimators:
            rows.append(_em_records(reps, samples, spec.fit_config))
        if "gibbs" in spec.estimators:
            rows.append([_gibbs_record(spec, rep, data) for rep, data in zip(reps, samples)])
        records.extend(record for per_rep in zip(*rows) for record in per_rep)
    return ExperimentSummary(records=records, estimators=summarize_records(records))


def _em_records(reps, samples, config: FitConfig) -> list[ReplicationRecord]:
    """EM rows of one block; the standard error only for converged fits."""
    fits = em_fit_stacked(samples, config)
    done = [i for i, fit in enumerate(fits) if fit.converged]
    errors = standard_errors([samples[i] for i in done], [fits[i].lambda_hat for i in done])
    se = dict(zip(done, errors))
    return [
        ReplicationRecord(rep, "em", fit.lambda_hat, se.get(i, math.nan), fit.iterations,
                          fit.status)
        for i, (rep, fit) in enumerate(zip(reps, fits))
    ]


def _gibbs_record(spec: ExperimentSpec, rep: int, data: CountSample) -> ReplicationRecord:
    result = gibbs_run(data, replace(spec.gibbs_config, seed=spec.seed.child(rep, 1)))
    return ReplicationRecord(
        rep, "gibbs", result.posterior_mean, result.posterior_sd, result.chain.size, CONVERGED
    )


def _moments(x: np.ndarray) -> list[float]:
    """Mean, median, 95th percentile and standard deviation (ddof 1, or
    0 for a single value) of the successful replications."""
    sd = float(x.std(ddof=1)) if x.size > 1 else 0.0
    return [float(x.mean()), float(np.median(x)), float(np.percentile(x, 95)), sd]


def summarize_records(records: list[ReplicationRecord]) -> dict[str, EstimatorSummary]:
    out: dict[str, EstimatorSummary] = {}
    for name in _ESTIMATORS:
        rows = [r for r in records if r.estimator == name]
        if not rows:
            continue
        ok = [r for r in rows if r.status == CONVERGED]
        if not ok:
            out[name] = EstimatorSummary(name, 0, len(rows), *([math.nan] * 9))
            continue
        lam = np.array([r.lambda_hat for r in ok])
        se = np.array([r.se for r in ok])
        iters = np.array([r.iters for r in ok], dtype=float)
        out[name] = EstimatorSummary(name, len(ok), len(rows) - len(ok), *_moments(lam),
                                     *_moments(se), float(iters.mean()))
    return out


def write_replication_csv(records: list[ReplicationRecord], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for r in records:
            writer.writerow([r.rep, r.estimator, repr(r.lambda_hat), repr(r.se), r.iters, r.status])
