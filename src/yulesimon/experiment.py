"""Replication engine for the synthetic studies: generate data, fit
with the selected estimators, summarize like the reference experiments
(mean, median, 95th percentile, standard deviation of the estimate and
of its standard error)."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .distribution import CountSample, RngStream, sample_mixture, sample_urn
from .em import CONVERGED, FitConfig, em_fit
from .gibbs import GibbsConfig, gibbs_run
from .information import standard_error

__all__ = [
    "ExperimentSpec",
    "ReplicationRecord",
    "EstimatorSummary",
    "ExperimentSummary",
    "run_experiment",
    "write_replication_csv",
    "read_replication_csv",
    "summarize_records",
]

CSV_HEADER = ["rep", "estimator", "lambda_hat", "se", "iters", "status"]

_GENERATORS = ("mixture", "urn")
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
        if not (self.true_lambda > 0.0 and math.isfinite(self.true_lambda)):
            raise ValueError("true_lambda must be positive and finite")
        if self.generator not in _GENERATORS:
            raise ValueError(f"generator must be one of {_GENERATORS}")
        if self.generator == "urn" and self.true_lambda <= 1.0:
            raise ValueError("the urn generator requires true_lambda > 1")
        if self.n < 1 or self.n_rep < 1:
            raise ValueError("n and n_rep must be >= 1")
        bad = [e for e in self.estimators if e not in _ESTIMATORS]
        if bad or not self.estimators:
            raise ValueError(f"estimators must be a nonempty subset of {_ESTIMATORS}")


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


def _generate(spec: ExperimentSpec, rep: int) -> CountSample:
    rng = spec.seed.child(rep, 0).generator()
    if spec.generator == "mixture":
        return sample_mixture(spec.true_lambda, spec.n, rng)[0]
    return sample_urn(spec.true_lambda, spec.n, rng)


def run_experiment(spec: ExperimentSpec) -> ExperimentSummary:
    records: list[ReplicationRecord] = []
    for rep in range(spec.n_rep):
        data = _generate(spec, rep)
        if "em" in spec.estimators:
            fit = em_fit(data, spec.fit_config)
            if fit.status == CONVERGED:
                se = standard_error(data, fit.lambda_hat)
            else:
                se = math.nan
            records.append(
                ReplicationRecord(rep, "em", fit.lambda_hat, se, fit.iterations, fit.status)
            )
        if "gibbs" in spec.estimators:
            cfg = replace(spec.gibbs_config, seed=spec.seed.child(rep, 1))
            result = gibbs_run(data, cfg)
            records.append(
                ReplicationRecord(
                    rep,
                    "gibbs",
                    result.posterior_mean,
                    result.posterior_sd,
                    result.chain.size,
                    CONVERGED,
                )
            )
    return ExperimentSummary(records=records, estimators=summarize_records(records))


def summarize_records(records: list[ReplicationRecord]) -> dict[str, EstimatorSummary]:
    out: dict[str, EstimatorSummary] = {}
    for name in _ESTIMATORS:
        rows = [r for r in records if r.estimator == name]
        if not rows:
            continue
        ok = [r for r in rows if r.status == CONVERGED]
        lam = np.array([r.lambda_hat for r in ok])
        se = np.array([r.se for r in ok])
        iters = np.array([r.iters for r in ok], dtype=float)
        if len(ok) == 0:
            out[name] = EstimatorSummary(name, 0, len(rows), *([math.nan] * 9))
            continue
        out[name] = EstimatorSummary(
            estimator=name,
            n_used=len(ok),
            n_failed=len(rows) - len(ok),
            lambda_mean=float(lam.mean()),
            lambda_median=float(np.median(lam)),
            lambda_p95=float(np.percentile(lam, 95)),
            lambda_sd=float(lam.std(ddof=1)) if len(ok) > 1 else 0.0,
            se_mean=float(se.mean()),
            se_median=float(np.median(se)),
            se_p95=float(np.percentile(se, 95)),
            se_sd=float(se.std(ddof=1)) if len(ok) > 1 else 0.0,
            mean_iterations=float(iters.mean()),
        )
    return out


def write_replication_csv(records: list[ReplicationRecord], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for r in records:
            writer.writerow([r.rep, r.estimator, repr(r.lambda_hat), repr(r.se), r.iters, r.status])


def read_replication_csv(path) -> list[ReplicationRecord]:
    records = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            records.append(
                ReplicationRecord(
                    rep=int(row["rep"]),
                    estimator=row["estimator"],
                    lambda_hat=float(row["lambda_hat"]),
                    se=float(row["se"]),
                    iters=int(row["iters"]),
                    status=row["status"],
                )
            )
    return records
