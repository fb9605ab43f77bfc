"""Replication engine for the synthetic studies: generate data, fit
with the selected estimators, summarize like the reference experiments
(mean, median, 95th percentile, standard deviation of the estimate and
of its standard error)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

# gibbs, lazy in the package, runs on the first chain of an experiment
from . import gibbs
from .distribution import (GENERATORS, CountSample, FieldError, RngStream, _check_lambda,
                           _check_size, _mixture_block, generate)
from .em import CONVERGED, DIVERGING, FitConfig, em_fit_stacked
from .information import _fit_standard_error

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

_ESTIMATORS = ("em", "gibbs")


@dataclass
class ExperimentSpec:
    """One experiment cell: true parameter, sample size, replication
    count, generator and estimator selection, base random stream.

    Replication r derives its generator stream from child(r, 0) and its
    Gibbs stream from child(r, 1) of the base seed, so results do not
    depend on scheduling or on which estimators run. gibbs_config None
    runs the chains under GibbsConfig's defaults."""

    true_lambda: float
    n: int
    n_rep: int = 200
    generator: str = "mixture"
    estimators: tuple[str, ...] = ("em",)
    seed: RngStream = field(default_factory=RngStream)
    fit_config: FitConfig = field(default_factory=FitConfig)
    gibbs_config: gibbs.GibbsConfig | None = None

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
    _BLOCK_COUNTS counts: the mixture draws a block in one array pass
    (_mixture_block, each rep from its own stream), the urn one rep
    after another, and each block is fitted through one stacked fit
    (em_fit_stacked, whose fits carry the sums of their standard
    errors); a rep's record does not depend on the block size. Gibbs
    chains run one rep after another. Records are in rep order, em
    before gibbs within a rep."""
    records: list[ReplicationRecord] = []
    block = max(1, _BLOCK_COUNTS // spec.n)
    for first in range(0, spec.n_rep, block):
        reps = range(first, min(first + block, spec.n_rep))
        rngs = [spec.seed.child(rep, 0) for rep in reps]
        if spec.generator == "mixture":
            samples = _mixture_block(spec.true_lambda, spec.n, rngs)
        else:
            samples = [generate(spec.generator, spec.true_lambda, spec.n, rng) for rng in rngs]
        rows = []
        if "em" in spec.estimators:
            rows.append(_em_records(reps, samples, spec.fit_config))
        if "gibbs" in spec.estimators:
            rows.append([_gibbs_record(spec, rep, data) for rep, data in zip(reps, samples)])
        records.extend(record for per_rep in zip(*rows) for record in per_rep)
    return ExperimentSummary(records=records, estimators=summarize_records(records))


def _em_records(reps, samples, config: FitConfig) -> list[ReplicationRecord]:
    """EM rows of one block; the standard error only for converged fits."""
    return [
        ReplicationRecord(rep, "em", fit.lambda_hat,
                          _fit_standard_error(fit) if fit.converged else math.nan,
                          fit.iterations, fit.status)
        for rep, fit in zip(reps, em_fit_stacked(samples, config))
    ]


def _gibbs_record(spec: ExperimentSpec, rep: int, data: CountSample) -> ReplicationRecord:
    """The rep's Gibbs row; a chain refused for its prior rate (an
    improper posterior, or summaries that overflow) is a failed rep."""
    base = gibbs.GibbsConfig() if spec.gibbs_config is None else spec.gibbs_config
    config = replace(base, seed=spec.seed.child(rep, 1))
    try:
        result = gibbs.gibbs_run(data, config)
    except FieldError:
        return ReplicationRecord(rep, "gibbs", math.nan, math.nan, 0, DIVERGING)
    return ReplicationRecord(
        rep, "gibbs", result.posterior_mean, result.posterior_sd, result.chain.size, CONVERGED
    )


def _moments(x: np.ndarray) -> list[float]:
    """Mean, median, 95th percentile and standard deviation (ddof 1, or
    0 for a single value: 0.0 for a finite one, NaN for a NaN) of the
    successful replications."""
    sd = float(x.std(ddof=min(1, x.size - 1)))
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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(CSV_HEADER) + "\n")
        fh.writelines(f"{r.rep},{r.estimator},{r.lambda_hat!r},{r.se!r},{r.iters},{r.status}\n"
                      for r in records)
