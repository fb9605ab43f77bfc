import csv
import dataclasses
import math

import numpy as np
import pytest

from yulesimon import (
    ExperimentSpec,
    FitConfig,
    GibbsConfig,
    ReplicationRecord,
    RngStream,
    run_experiment,
    write_replication_csv,
)
from yulesimon import experiment
from yulesimon.experiment import CSV_HEADER, summarize_records


def read_replication_csv(path) -> list[ReplicationRecord]:
    """Records back from write_replication_csv's file."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return [
            ReplicationRecord(
                rep=int(row["rep"]),
                estimator=row["estimator"],
                lambda_hat=float(row["lambda_hat"]),
                se=float(row["se"]),
                iters=int(row["iters"]),
                status=row["status"],
            )
            for row in csv.DictReader(fh)
        ]


def small_spec(**overrides):
    base = dict(
        true_lambda=0.8,
        n=200,
        n_rep=12,
        estimators=("em",),
        seed=RngStream(2024),
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def test_spec_validation():
    with pytest.raises(ValueError):
        small_spec(generator="urn", true_lambda=0.8)
    with pytest.raises(ValueError):
        small_spec(estimators=("nope",))
    with pytest.raises(ValueError):
        small_spec(n_rep=0)
    small_spec(generator="urn", true_lambda=2.0)  # valid


def test_run_experiment_deterministic():
    a = run_experiment(small_spec())
    b = run_experiment(small_spec())
    assert a.records == b.records
    assert a.estimators == b.estimators


def test_replications_use_distinct_streams():
    summary = run_experiment(small_spec())
    lams = [r.lambda_hat for r in summary.records]
    assert len(set(lams)) == len(lams)


def test_summary_moments_match_records():
    summary = run_experiment(small_spec())
    ok = [r for r in summary.records if r.status == "converged"]
    stats = summary.estimators["em"]
    assert stats.n_used == len(ok)
    assert stats.lambda_mean == pytest.approx(np.mean([r.lambda_hat for r in ok]))
    assert stats.lambda_p95 == pytest.approx(np.percentile([r.lambda_hat for r in ok], 95))
    assert stats.se_median == pytest.approx(np.median([r.se for r in ok]))
    assert stats.mean_iterations == pytest.approx(np.mean([r.iters for r in ok]))


def test_csv_roundtrip_reproduces_summary(tmp_path):
    summary = run_experiment(small_spec(n_rep=8))
    path = tmp_path / "reps.csv"
    write_replication_csv(summary.records, path)
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header == ",".join(CSV_HEADER)
    recovered = read_replication_csv(path)
    assert recovered == summary.records
    assert summarize_records(recovered) == summary.estimators


def test_divergent_replications_reported_not_hidden():
    # lambda so large that most small samples are all ones -> no MLE
    summary = run_experiment(small_spec(true_lambda=2000.0, n=8, n_rep=6))
    stats = summary.estimators["em"]
    assert stats.n_failed > 0
    assert stats.n_used + stats.n_failed == 6
    failed = [r for r in summary.records if r.status != "converged"]
    assert failed and all(math.isnan(r.se) for r in failed)
    if stats.n_used:
        assert math.isfinite(stats.lambda_mean)


def test_a_fit_at_a_lambda_whose_square_overflows_has_a_nan_standard_error():
    # started at 1e300 under Gamma(1e300, 1), a fit stops near 1e300,
    # where lambda^2 overflows and the information is not positive
    spec = ExperimentSpec(0.8, 150, n_rep=2,
                          fit_config=FitConfig(prior_a=1e300, prior_b=1.0, init=1e300))
    with pytest.warns(RuntimeWarning, match="Oakes information is not positive"):
        summary = run_experiment(spec)
    assert len(summary.records) == 2
    assert all(math.isnan(r.se) for r in summary.records)


def test_a_single_nan_value_has_a_nan_sd():
    # one rep converges at 1e300 with a NaN standard error, one diverges
    spec = ExperimentSpec(0.8, 150, n_rep=2,
                          fit_config=FitConfig(prior_a=1e300, prior_b=1.0, init=1e300))
    with pytest.warns(RuntimeWarning, match="Oakes information is not positive"):
        stats = run_experiment(spec).estimators["em"]
    assert stats.n_used == 1
    assert math.isnan(stats.se_mean) and math.isnan(stats.se_sd)
    assert stats.lambda_sd == 0.0 and math.copysign(1.0, stats.lambda_sd) == 1.0


def test_improper_gibbs_replications_are_counted_as_failed():
    # under a prior of rate 0 an all-ones sample has an improper posterior;
    # its Gibbs row fails and the other reps still run
    spec = small_spec(true_lambda=5.0, n=2, n_rep=8, estimators=("gibbs",),
                      gibbs_config=GibbsConfig(prior_b=0.0, n_samples=200, burn_in=50))
    summary = run_experiment(spec)
    ones = [experiment.generate("mixture", 5.0, 2, spec.seed.child(rep, 0))
            .counts.max() == 1 for rep in range(8)]
    stats = summary.estimators["gibbs"]
    assert 0 < stats.n_failed == sum(ones) < 8
    assert stats.n_used == 8 - sum(ones)
    assert [r.status != "converged" for r in summary.records] == ones
    assert all(math.isnan(r.lambda_hat) for r, one in zip(summary.records, ones) if one)


def test_gibbs_estimator_rows():
    spec = small_spec(
        n_rep=3,
        estimators=("em", "gibbs"),
        gibbs_config=GibbsConfig(n_samples=400, burn_in=100, seed=RngStream(0)),
    )
    summary = run_experiment(spec)
    by_est = {name: [r for r in summary.records if r.estimator == name] for name in ("em", "gibbs")}
    assert len(by_est["em"]) == len(by_est["gibbs"]) == 3
    for em_row, gibbs_row in zip(by_est["em"], by_est["gibbs"]):
        assert em_row.rep == gibbs_row.rep
        assert abs(em_row.lambda_hat - gibbs_row.lambda_hat) < 0.2
    assert "gibbs" in summary.estimators


def test_urn_generator_runs():
    summary = run_experiment(
        small_spec(generator="urn", true_lambda=2.0, n=3000, n_rep=4,
                   fit_config=FitConfig(tol=1e-6))
    )
    stats = summary.estimators["em"]
    assert stats.n_failed == 0
    assert stats.lambda_median == pytest.approx(2.0, abs=0.4)


def test_spec_is_value_like():
    spec = small_spec()
    clone = dataclasses.replace(spec, n_rep=5)
    assert clone.n_rep == 5 and spec.n_rep == 12


def test_em_right_tail_heavier_than_gibbs_at_high_lambda_small_n():
    # small samples at lambda=5: occasional near-degenerate draws push
    # the EM estimate far right while the prior reins the posterior in
    spec = small_spec(
        true_lambda=5.0,
        n=50,
        n_rep=80,
        estimators=("em", "gibbs"),
        fit_config=FitConfig(tol=1e-6),
        gibbs_config=GibbsConfig(n_samples=2000, burn_in=400, seed=RngStream(0)),
        seed=RngStream(424242),
    )
    summary = run_experiment(spec)
    em, gibbs = summary.estimators["em"], summary.estimators["gibbs"]
    assert em.lambda_p95 > gibbs.lambda_p95


@pytest.mark.parametrize(
    "overrides",
    [
        dict(n_rep=7, estimators=("em", "gibbs"),
             gibbs_config=GibbsConfig(n_samples=200, burn_in=50, seed=RngStream(0))),
        # mostly all-ones samples: diverging reps with a NaN standard error
        dict(true_lambda=2000.0, n=8, n_rep=9),
    ],
)
def test_records_do_not_depend_on_the_block_size(monkeypatch, overrides):
    spec = small_spec(**overrides)
    whole = [repr(r) for r in run_experiment(spec).records]
    order = [(rep, est) for rep in range(spec.n_rep) for est in spec.estimators]
    fit_stacked, blocks = experiment.em_fit_stacked, []

    def spy(samples, config):
        blocks.append(len(samples))
        return fit_stacked(samples, config)

    monkeypatch.setattr(experiment, "em_fit_stacked", spy)
    for reps_per_block in (1, 3):
        blocks.clear()
        monkeypatch.setattr(experiment, "_BLOCK_COUNTS", reps_per_block * spec.n)
        records = run_experiment(spec).records
        assert [repr(r) for r in records] == whole
        assert [(r.rep, r.estimator) for r in records] == order
        full, rest = divmod(spec.n_rep, reps_per_block)
        assert blocks == [reps_per_block] * full + [rest] * (rest > 0)
