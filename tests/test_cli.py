import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yulesimon import (ExperimentSpec, FitConfig, GibbsConfig, RngStream, read_count_file,
                       sample_mixture, write_count_file)
from yulesimon.cli import _build_parser, _emit, main
from yulesimon.special import HistogramStack

FIXTURE = Path(__file__).parent / "fixtures" / "gutenberg_excerpt.txt"


@pytest.fixture()
def counts_file(tmp_path):
    sample = sample_mixture(0.8, 1500, RngStream(3141))
    path = tmp_path / "counts.txt"
    write_count_file(path, sample)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fit_json_report(counts_file, capsys):
    code, out, _ = run_cli(capsys, "fit", counts_file)
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {
        "lambda_hat", "std_err", "iterations", "status", "trace", "convergence",
    }
    assert payload["status"] == "converged"
    assert payload["lambda_hat"] == pytest.approx(0.8, abs=0.1)
    assert payload["std_err"] > 0
    assert len(payload["trace"]) == payload["iterations"] + 1
    conv = payload["convergence"]
    assert 0 < conv["r_theoretical"] < 1
    assert conv["regime"] == "linear"


def test_fit_deterministic_output(counts_file, capsys):
    _, out1, _ = run_cli(capsys, "fit", counts_file)
    _, out2, _ = run_cli(capsys, "fit", counts_file)
    assert out1 == out2
    # the CLI alone spells the moments init as method-of-moments
    _, moments, _ = run_cli(capsys, "fit", counts_file, "--init", "moments")
    _, alias, _ = run_cli(capsys, "fit", counts_file, "--init", "method-of-moments")
    assert alias == moments != out1


def test_fit_all_ones_exits_2(tmp_path, capsys):
    path = tmp_path / "ones.txt"
    path.write_text("1\n" * 30)
    code, out, _ = run_cli(capsys, "fit", str(path))
    assert code == 2
    assert json.loads(out)["status"] == "diverging"


@pytest.mark.parametrize("counts, code, status",
                         [("2\n3\n1\n", 0, "converged"), ("1\n1\n1\n", 2, "diverging")])
def test_fit_from_a_start_above_the_ceiling(tmp_path, capsys, counts, code, status):
    # from 1e8 the iterate on 2 3 1 falls to its fixed point; on all ones it rises
    path = tmp_path / "c.txt"
    path.write_text(counts)
    got, out, _ = run_cli(capsys, "fit", str(path), "--init", "1e8")
    payload = json.loads(out)
    assert (got, payload["status"]) == (code, status)
    if status == "converged":
        assert payload["lambda_hat"] == pytest.approx(1.51, abs=0.01)


def strict_json(text: str):
    """text parsed as RFC 8259 JSON, which has no NaN or Infinity."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_non_finite_values_print_as_null(tmp_path, capsys):
    # a fit that did not converge has no standard error
    path = tmp_path / "ones.txt"
    path.write_text("1\n" * 30)
    code, out, _ = run_cli(capsys, "fit", str(path))
    assert code == 2
    assert strict_json(out)["std_err"] is None
    # an experiment with no converged rep has no moments
    code, out, _ = run_cli(capsys, "experiment", "--lambda", "0.8", "--n", "50", "--reps", "2",
                           "--max-iter", "1", "--seed", "1")
    assert code == 0
    em = strict_json(out)["estimators"]["em"]
    assert (em["n_used"], em["n_failed"]) == (0, 2)
    assert [key for key, value in em.items() if value is None] == [
        "lambda_mean", "lambda_median", "lambda_p95", "lambda_sd",
        "se_mean", "se_median", "se_p95", "se_sd", "mean_iterations",
    ]
    # at any depth, and finite values as before
    _emit({"a": [math.inf, (-math.inf, 0.5)], "b": {"c": math.nan, "d": 1e300}})
    assert strict_json(capsys.readouterr().out) == {"a": [None, [None, 0.5]],
                                                   "b": {"c": None, "d": 1e300}}


@pytest.mark.parametrize("command", ["fit", "diagnose"])
@pytest.mark.parametrize("prior", [["--prior-a", "1e300"], ["--prior-b", "1e155"],
                                   ["--prior-b", "1e300"],
                                   ["--prior-a", "1e300", "--prior-b", "1", "--init", "1e300"]])
def test_huge_prior_gives_a_json_report(tmp_path, capsys, command, prior):
    # lambda near 1e300, whose square overflows and whose pooled sums
    # underflow to 0 (also from a start of 1e300, where the fit converges),
    # or near 1e-155 and 1e-300, whose square underflows
    path = tmp_path / "c.txt"
    path.write_text("2\n3\n1\n")
    code, out, err = run_cli(capsys, command, str(path), *prior)
    assert code in (0, 2) and not err
    report = strict_json(out)
    rates = report.get("convergence", report)
    assert rates["regime"] in ("linear", "sublinear", None)
    assert (rates["regime"] is None) == (rates["r_theoretical"] is None)


@pytest.mark.parametrize("command", ["fit", "diagnose"])
def test_a_jacobian_whose_sums_underflow_is_a_positive_zero(tmp_path, capsys, command):
    # at 1e300 the pooled trigamma sum underflows to 0, and S2 is +0.0
    path = tmp_path / "c.txt"
    path.write_text("2\n3\n1\n")
    code, out, err = run_cli(capsys, command, str(path), "--prior-a", "1e300", "--prior-b", "1",
                             "--init", "1e300")
    assert code in (0, 2) and not err
    assert '"jacobian_at_hat": 0.0' in out
    report = strict_json(out)
    jacobian = report.get("convergence", report)["jacobian_at_hat"]
    assert jacobian == 0.0 and math.copysign(1.0, jacobian) == 1.0


@pytest.mark.parametrize("command", ["fit", "diagnose"])
def test_an_update_that_overflows_to_inf_exits_2_with_a_report(tmp_path, capsys, command):
    # (N + a - 1) / S1 = 1.7e308 / 0.5 on the file 1: the fit stops as
    # diverging at lambda = inf, whose rates are NaN
    path = tmp_path / "one.txt"
    path.write_text("1\n")
    code, out, err = run_cli(capsys, command, str(path), "--prior-a", "1.7e308")
    assert code == 2 and not err
    report = strict_json(out)
    assert report["status"] == "diverging" and report["lambda_hat"] is None
    rates = report.get("convergence", report)
    assert rates["r_theoretical"] is None and rates["jacobian_at_hat"] is None
    assert rates["regime"] is None


@pytest.mark.parametrize("command", ["fit", "diagnose"])
@pytest.mark.parametrize("value", ["1e16", "1e300"])
def test_start_where_the_pooled_sum_loses_every_digit_exits_1_naming_it(tmp_path, capsys,
                                                                       command, value):
    """A start where the digamma-difference form of S1 rounds to 0 gets
    a report: the kernel's S1 sums positive terms at every lambda."""
    path = tmp_path / "c.txt"
    path.write_text("2\n3\n1\n")
    code, out, err = run_cli(capsys, command, str(path), "--init", value)
    assert code in (0, 2) and not err
    report = strict_json(out)
    assert report["status"] in ("converged", "max_iter_reached")
    assert 0.0 < report["lambda_hat"] < float(value)


def test_fit_bad_line_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    for bad in ("0", "1_0", str(2**63)):
        path.write_text(f"2\n3\n{bad}\n5\n")
        code, _, err = run_cli(capsys, "fit", str(path))
        assert code == 1
        assert err.startswith("ys: error: line 3")


@pytest.mark.parametrize("command", ["fit", "diagnose", "gibbs"])
@pytest.mark.parametrize("flag, value", [
    ("--prior-a", "nan"), ("--prior-a", "inf"), ("--prior-a", "-1"),
    ("--prior-b", "nan"), ("--prior-b", "inf"), ("--prior-b", "-0.5"),
])
def test_bad_prior_exits_1_naming_it(counts_file, capsys, command, flag, value):
    code, out, err = run_cli(capsys, command, counts_file, flag, value)
    assert code == 1 and out == ""
    assert err.startswith(f"ys: error: {flag} ")


@pytest.mark.parametrize("command", ["fit", "diagnose"])
@pytest.mark.parametrize("value, message", [
    ("foo", "unknown --init policy 'foo'"),
    ("nan", "fixed --init must be a finite value >= 0"),
])
def test_bad_init_exits_1_naming_it(counts_file, capsys, command, value, message):
    # a name that is no policy is a refused value like a non-finite
    # start, not a usage error: exit 2 means a fit that did not converge
    code, out, err = run_cli(capsys, command, counts_file, "--init", value)
    assert code == 1 and out == ""
    assert err.splitlines() == [f"ys: error: {message}"]


@pytest.mark.parametrize("command", ["fit", "diagnose"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_nonfinite_tol_exits_1_naming_it(counts_file, capsys, command, value):
    # a tol of inf would stop after one step, off the fixed point, as "converged"
    code, out, err = run_cli(capsys, command, counts_file, "--tol", value)
    assert code == 1 and out == ""
    assert err.splitlines() == ["ys: error: --tol must be positive and finite"]


def test_improper_posterior_exits_1_naming_prior_b(tmp_path, capsys):
    # a single count 1 under a prior of rate 0: the chain would drift
    # upward without bound, and no overflow warning comes first
    path = tmp_path / "one.txt"
    path.write_text("1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "gibbs", str(path), "--prior-b", "0")
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("ys: error: --prior-b = 0 ")


HUGE = "1000000000000"


# each size would ask numpy for terabytes (or, at 0 or below, for no
# replication at all); it is refused before any array is built, with no
# output file and one error line that names the flag typed, the token
# before the size; the second column is the library argument that the
# flag feeds
@pytest.mark.parametrize("argv, argument", [
    (["gibbs", "COUNTS", "--samples", HUGE], "n_samples"),
    (["simulate", "--lambda", "0.6", "--n", HUGE, "--out", "OUT"], "n"),
    (["simulate", "--generator", "urn", "--lambda", "1.5", "--n", HUGE, "--out", "OUT"],
     "total_items"),
    (["experiment", "--lambda", "0.6", "--n", HUGE, "--reps", "1"], "n"),
    (["experiment", "--lambda", "0.6", "--n", "50", "--estimators", "gibbs",
      "--gibbs-samples", HUGE], "n_samples"),
    (["experiment", "--lambda", "0.6", "--n", "50", "--reps", "0"], "n"),
    (["experiment", "--lambda", "0.6", "--n", "50", "--reps", "-3"], "n"),
    (["experiment", "--lambda", "0.6", "--n", "50", "--reps", HUGE], "n"),
])
def test_huge_size_exits_1_naming_it(counts_file, tmp_path, capsys, argv, argument):
    out_path = tmp_path / "out.txt"
    size = next(a for a in argv if a in (HUGE, "0", "-3"))
    flag = argv[argv.index(size) - 1]
    argv = [counts_file if a == "COUNTS" else str(out_path) if a == "OUT" else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == "" and not out_path.exists()
    assert err.splitlines() == [f"ys: error: {flag} must be between 1 and 100000000, got {size}"]
    assert not err.startswith(f"ys: error: {argument} ")


# a burn-in as long as the chain is refused, naming the flags typed
@pytest.mark.parametrize("argv, flags", [
    (["gibbs", "COUNTS", "--samples", "60"], ("--samples", "--burn-in")),
    (["experiment", "--lambda", "0.6", "--n", "50", "--reps", "2", "--estimators", "em,gibbs",
      "--gibbs-samples", "60"], ("--gibbs-samples", "--gibbs-burn-in")),
])
def test_burn_in_error_names_the_flags(counts_file, capsys, argv, flags):
    argv = [counts_file if a == "COUNTS" else a for a in argv]
    code, out, err = run_cli(capsys, *argv, "--seed", "1")
    assert code == 1 and out == ""
    assert err.splitlines() == [f"ys: error: need {flags[0]} > {flags[1]} >= 0, got 60 and 500"]


def test_experiment_without_gibbs_ignores_the_gibbs_flags(capsys):
    # the default burn-in of 500 exceeds 60 draws, but no chain runs
    code, out, err = run_cli(capsys, "experiment", "--lambda", "0.6", "--n", "50", "--reps", "2",
                             "--gibbs-samples", "60", "--seed", "1")
    assert code == 0 and err == ""
    _, default, _ = run_cli(capsys, "experiment", "--lambda", "0.6", "--n", "50", "--reps", "2",
                            "--seed", "1")
    assert out == default
    assert set(json.loads(out)["estimators"]) == {"em"}


def test_fit_missing_file_exits_1(capsys):
    code, _, err = run_cli(capsys, "fit", "/nonexistent/file.txt")
    assert code == 1
    assert "error" in err


def test_diagnose_plot_ready_rates(counts_file, capsys):
    code, out, _ = run_cli(capsys, "diagnose", counts_file, "--tol", "1e-8")
    assert code == 0
    payload = json.loads(out)
    rates = payload["empirical_rates"]
    assert rates and {"iteration", "rate"} == set(rates[0])
    assert rates[0]["iteration"] == 2
    assert abs(rates[-1]["rate"] - payload["r_theoretical"]) < 0.1


def test_fit_and_diagnose_report_the_prior_they_ran_under(counts_file, capsys):
    prior = ("--prior-a", "30", "--prior-b", "5")
    reports = [json.loads(run_cli(capsys, "fit", counts_file, *prior)[1])["convergence"],
               json.loads(run_cli(capsys, "diagnose", counts_file, *prior)[1])]
    no_prior = json.loads(run_cli(capsys, "diagnose", counts_file)[1])
    for key in ("jacobian_at_hat", "r_theoretical"):
        assert reports[0][key] == reports[1][key]
    assert reports[0]["jacobian_at_hat"] != no_prior["jacobian_at_hat"]


@pytest.mark.parametrize("command", ["fit", "diagnose"])
def test_fit_makes_one_pooled_pass_per_iteration_and_one_after_the_loop(
        command, counts_file, capsys, monkeypatch):
    """The standard error, the rate and the Jacobian read the sums the
    fit carries: one S1 pass per EM iteration, then one joint pass."""
    passes = []
    for name in ("s1", "sums"):
        def counted(self, lams, name=name, method=getattr(HistogramStack, name)):
            passes.append(name)
            return method(self, lams)

        monkeypatch.setattr(HistogramStack, name, counted)
    code, out, _ = run_cli(capsys, command, counts_file)
    assert code == 0
    iterations = json.loads(out)["iterations"]
    assert passes == ["s1"] * iterations + ["sums"]


def test_gibbs_report_and_chain_file(counts_file, tmp_path, capsys):
    chain_path = str(tmp_path / "chain.csv")
    code, out, _ = run_cli(
        capsys, "gibbs", counts_file, "--samples", "500", "--burn-in", "100",
        "--seed", "7", "--chain-file", chain_path,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["posterior_mean"] == pytest.approx(0.8, abs=0.1)
    assert payload["posterior_sd"] > 0
    assert 0 <= payload["acf_max"] <= 1
    assert payload["chain_file"] == chain_path
    lines = Path(chain_path).read_text().splitlines()
    assert lines[0] == "iter,lambda"
    assert len(lines) == 401
    assert float(lines[1].split(",")[1]) > 0


def test_gibbs_seeded_byte_identical(counts_file, capsys):
    _, out1, _ = run_cli(capsys, "gibbs", counts_file, "--samples", "300",
                         "--burn-in", "50", "--seed", "11")
    _, out2, _ = run_cli(capsys, "gibbs", counts_file, "--samples", "300",
                         "--burn-in", "50", "--seed", "11")
    assert out1 == out2


def test_simulate_reproducible(tmp_path, capsys):
    out1 = tmp_path / "a.txt"
    out2 = tmp_path / "b.txt"
    code, _, err = run_cli(capsys, "simulate", "--lambda", "0.6", "--n", "500",
                           "--seed", "7", "--out", str(out1))
    assert code == 0
    assert err.startswith("n=500 mean=")
    run_cli(capsys, "simulate", "--lambda", "0.6", "--n", "500",
            "--seed", "7", "--out", str(out2))
    assert out1.read_bytes() == out2.read_bytes()
    sample = read_count_file(out1)
    assert sample.n == 500


def test_simulate_urn_constraints(tmp_path, capsys):
    ok = tmp_path / "urn.txt"
    code, _, _ = run_cli(capsys, "simulate", "--lambda", "1.25", "--n", "300",
                         "--generator", "urn", "--seed", "1", "--out", str(ok))
    assert code == 0
    code, _, err = run_cli(capsys, "simulate", "--lambda", "0.8", "--n", "300",
                           "--generator", "urn", "--seed", "1", "--out", str(tmp_path / "no.txt"))
    assert code == 1
    assert err.startswith("ys: error:")


def test_simulate_seed_env_default(tmp_path, capsys, monkeypatch):
    # the environment plays no part: without --seed the run is --seed 0's
    monkeypatch.setenv("YS_SEED", "123")
    env_file = tmp_path / "env.txt"
    code, _, _ = run_cli(capsys, "simulate", "--lambda", "0.6", "--n", "100",
                         "--out", str(env_file))
    assert code == 0
    explicit = tmp_path / "explicit.txt"
    run_cli(capsys, "simulate", "--lambda", "0.6", "--n", "100",
            "--seed", "0", "--out", str(explicit))
    assert env_file.read_bytes() == explicit.read_bytes()


def test_simulate_bad_seed_env_exits_1(tmp_path, capsys, monkeypatch):
    # a bad YS_SEED is ignored; a bad seed can come only from --seed, and exits 1
    monkeypatch.setenv("YS_SEED", "abc")
    env_file = tmp_path / "env.txt"
    code, _, err = run_cli(capsys, "simulate", "--lambda", "0.6", "--n", "100",
                           "--out", str(env_file))
    assert code == 0 and "error" not in err
    explicit = tmp_path / "explicit.txt"
    run_cli(capsys, "simulate", "--lambda", "0.6", "--n", "100",
            "--seed", "0", "--out", str(explicit))
    assert env_file.read_bytes() == explicit.read_bytes()
    code, _, err = run_cli(capsys, "simulate", "--lambda", "0.6", "--n", "100",
                           "--seed", "-1", "--out", str(tmp_path / "x.txt"))
    assert code == 1
    assert err.startswith("ys: error:") and "--seed" in err and "YS_SEED" not in err


def test_text_pipeline(tmp_path, capsys):
    counts_out = tmp_path / "c.txt"
    tsv_out = tmp_path / "w.tsv"
    code, out, _ = run_cli(capsys, "text", str(FIXTURE),
                           "--counts", str(counts_out), "--tsv", str(tsv_out))
    assert code == 0
    assert out.startswith("n_unique=")
    stripped_tokens = int(out.strip().split("n_tokens=")[1])
    sample = read_count_file(counts_out)
    assert sample.total() == stripped_tokens
    first_word, first_count = tsv_out.read_text(encoding="utf-8").splitlines()[0].split("\t")
    assert first_word == "the"
    assert int(first_count) == sample.counts[0]

    code, out_full, _ = run_cli(capsys, "text", str(FIXTURE), "--no-strip",
                                "--counts", str(tmp_path / "c2.txt"))
    assert code == 0
    full_tokens = int(out_full.strip().split("n_tokens=")[1])
    assert full_tokens > stripped_tokens


# stdout and the sha256 digests of the count file and the TSV of `ys text`
# on the fixture and on a copy with curly apostrophes, "é" and em dashes,
# with each set of flags: the tokenizer keeps every output byte
TEXT_PINS = {
    ("fixture", ()): (
        "n_unique=32 n_tokens=47",
        "76e86b352c0724112fc1f89765bd9a0760e293af8f5363ee274ed8e027cfe82a",
        "4c7a99e9051004cd0de6b1129c7eafb5ece9a5c30489736788732304bc939bad"),
    ("fixture", ("--no-strip",)): (
        "n_unique=63 n_tokens=105",
        "fa3ceaf0a5029d5243245dcaedd0b4cca3e34e58b9c8a398db8bd606c6bd58ac",
        "db752ba9c54abd8e523df74b7087ce8eaf260a045fcdbab10ab47d78f2814f61"),
    ("fixture", ("--keep-apostrophes", "--keep-digits")): (
        "n_unique=32 n_tokens=46",
        "76c6c496ec4e1d27b27d29b5a07d8f690fd253c2722c0e190dcbb1c09517a8b0",
        "3ec4f084d39a7c0f0fd964cc922a0327954486846422a22ad442c90f7bd921b0"),
    ("curly-accented", ()): (
        "n_unique=33 n_tokens=47",
        "53e717747fabc847a29f26ad44fc8620e5ff55528231b50f48b0869f3c12d232",
        "f1651785497142d12c806a0d65505567088f3d478f471066900119f3f9c86e21"),
    ("curly-accented", ("--no-strip",)): (
        "n_unique=65 n_tokens=105",
        "5c4657c27d03b8c2743596516d8f446e23d832e1cec9f93d11eb703e9f88ce2b",
        "191510d3bbc86be42183a078306a6909f4af71a659ed47edae504f753eadd1cd"),
    ("curly-accented", ("--keep-apostrophes", "--keep-digits")): (
        "n_unique=34 n_tokens=48",
        "7f4b28da5897860c5cc323c664ab4bc2e45ed0d11885e0e1d7fa95e36b9e13df",
        "6ad2ebb67024c763dc134a6fcb89b62777e8e5d893831281bbb420c2d0dce35f"),
}


@pytest.mark.parametrize("text, flags", TEXT_PINS)
def test_text_outputs_reproduce_pinned_digests(text, flags, tmp_path, capsys):
    plain = FIXTURE.read_text(encoding="utf-8")
    if text == "curly-accented":
        plain = plain.replace("'", "\u2019").replace("e ", "\u00e9 ").replace(": ", " \u2014 ")
    source = tmp_path / "in.txt"
    source.write_text(plain, encoding="utf-8")
    code, out, _ = run_cli(capsys, "text", str(source), *flags,
                           "--counts", str(tmp_path / "c.txt"), "--tsv", str(tmp_path / "w.tsv"))
    assert code == 0
    digests = [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("c.txt", "w.tsv")]
    assert (out.strip(), *digests) == TEXT_PINS[text, flags]


# sha256 digests of stdout and of each file written, by argv, for runs in a
# directory that holds the counts_file sample as counts.txt: the JSON
# reports, the count files, the chain and the replication CSV keep every
# byte, and so does the order of every report's keys
CLI_PINS = {
    ("simulate", "--lambda", "0.6", "--n", "500", "--seed", "7", "--out", "out.txt"): {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out.txt": "51532f374caf597e5e80a3e33f8f8949217639dcf4dd179871a8dcc6b2be6ec1"},
    ("simulate", "--generator", "urn", "--lambda", "1.25", "--n", "500", "--seed", "7",
     "--out", "out.txt"): {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out.txt": "ac9c26cfe76f7d28232c4e81299b413674e382e71468eebfed38563485466455"},
    ("fit", "counts.txt"): {
        "stdout": "f10b8b771f847733127f9b5ad25aec1355e973296069e974b1afb04e9e3ba553"},
    ("fit", "counts.txt", "--init", "moments", "--tol", "1e-9"): {
        "stdout": "c22ad3678b0ee7108b6058eb1c19234feedcbfce9ffd8b1c8648f7905cdef883"},
    ("diagnose", "counts.txt"): {
        "stdout": "5b03a14b1b0f39cd175e32324f4bb634c2d521c2c2cd4ff02ce9ecbfd537e7eb"},
    ("diagnose", "counts.txt", "--init", "moments", "--tol", "1e-9"): {
        "stdout": "18d33c3ec2b24e5f6c170d38fe55b42f053c527b2cb07ea2382041147231c1f3"},
    ("gibbs", "counts.txt", "--seed", "7", "--samples", "600", "--burn-in", "50",
     "--chain-file", "chain.csv"): {
        "stdout": "0b88185fc9543903064583b2e9eeec596c0ec1e8270086edfe1a8b935d1252b7",
        "chain.csv": "a186ccd473b6b1f1cd69a2b10a5494717f16e47d2e8dcd00dd3810ed10faf4de"},
    ("experiment", "--lambda", "0.8", "--n", "150", "--reps", "6", "--seed", "5",
     "--csv", "reps.csv"): {
        "stdout": "cb8eec617263836ebe5c59737cff2fdc654ad46b900a855b58457cd19098036d",
        "reps.csv": "eaa502d309153f95e51322afdc1168ee9c9afe4b7abdee38d366542442af88e8"},
    ("experiment", "--lambda", "0.6", "--n", "300", "--reps", "3", "--estimators", "em,gibbs",
     "--gibbs-samples", "600", "--seed", "7"): {
        "stdout": "d8c918aa9091de5e165fbb867f533a6ab63c54dde23f6a889d0ac17e4086cd39"},
}


@pytest.mark.parametrize("argv", CLI_PINS, ids=" ".join)
def test_cli_outputs_reproduce_pinned_digests(argv, counts_file, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.iterdir() if path.name != "counts.txt"}
    assert {"stdout": hashlib.sha256(out.encode()).hexdigest(), **digests} == CLI_PINS[argv]


# every field a flag can fill; its default lives in the library alone
LIBRARY_FIELDS = {field.name for cls in (FitConfig, GibbsConfig, ExperimentSpec, RngStream)
                  for field in dataclasses.fields(cls)}


def test_no_option_copies_a_library_default(tmp_path, capsys):
    """Each option that fills a library field has parser default None, so
    an untyped flag leaves the library's default; ys simulate builds no
    ExperimentSpec, so its --generator keeps a default of its own."""
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name, command in sub.choices.items():
        for action in command._actions:
            if action.dest in LIBRARY_FIELDS and (name, action.dest) != ("simulate", "generator"):
                assert command.get_default(action.dest) is None, (name, action.option_strings)
    csv_path = tmp_path / "d.csv"
    code, _, _ = run_cli(capsys, "experiment", "--lambda", "0.6", "--n", "20", "--seed", "3",
                         "--csv", str(csv_path))
    assert code == 0
    assert len(csv_path.read_text().splitlines()) == ExperimentSpec.n_rep + 1


# an option that takes a free value shows its flag's name as its metavar;
# one with choices shows them
@pytest.mark.parametrize("command, shown", [
    ("gibbs", ["--samples SAMPLES", "--stream STREAM", "--lambda-init LAMBDA_INIT"]),
    ("simulate", ["--lambda LAMBDA", "--generator {mixture,urn}"]),
    ("experiment", ["--lambda LAMBDA", "--reps REPS", "--gibbs-samples GIBBS_SAMPLES",
                    "--generator {mixture,urn}"]),
])
def test_help_shows_each_flag_name_as_its_metavar(capsys, command, shown):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    out = capsys.readouterr().out
    assert [text for text in shown if text not in out] == []


def test_experiment_summary_and_csv(tmp_path, capsys):
    csv_path = tmp_path / "reps.csv"
    code, out, _ = run_cli(
        capsys, "experiment", "--lambda", "0.8", "--n", "150", "--reps", "6",
        "--seed", "5", "--csv", str(csv_path),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n_rep"] == 6
    assert payload["estimators"]["em"]["n_used"] + payload["estimators"]["em"]["n_failed"] == 6
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "rep,estimator,lambda_hat,se,iters,status"
    assert len(lines) == 7


# what a user may type for a flag, as (valid, invalid) values: small
# valid values, and 0, negative, non-finite, above MAX_DRAWS (refused
# before any array is built) and malformed ones; no valid size allocates
# more than a few MB
SIZES = (["2", "7", "60"], ["0", "-3", "nan", "inf", "100000001", HUGE, "1.5", "x"])
REPS = (["1", "3"], SIZES[1])
ITERATIONS = (["1", "3", "60"], ["0", "-3", "x"])
BURN_IN = (["0", "1", "30"], ["-1", "x"])
THIN = (["1", "3"], ["0", "-2"])
REALS = (["0.6", "1.25", "5", "0.05", "1e-300"], ["0", "-1", "nan", "inf", "x"])
# a prior whose square overflows in the rate diagnostics, or whose shape
# pushes lambda so high that the pooled sums underflow
PRIORS = ([*REALS[0], "1e155", "1e300"], REALS[1])
INITS = (["mode_one", "moments", "0", "2.5", "1e16", "1e300"], ["-1", "nan", "x"])
STREAMS = (["0", "7"], ["-1"])
# count files, valid ones first: a mixture sample, all ones (no interior
# maximum), a count near the int64 limit and three counts at it; then
# malformed ones, and a name that does not exist
COUNT_FILES = {
    "valid": "3\n1\n1\n7\n2\n1\n12\n1\n",
    "ones": "1\n" * 20,
    "near_limit": f"1\n2\n{2**62}\n",
    "at_limit": f"{2**63 - 3}\n{2**63 - 2}\n{2**63 - 1}\n",
    "zero": "2\n0\n",
    "too_big": f"{2**63}\n",
    "signed": "+3\n-2\n",
    "underscore": "1_0\n",
    "words": "three\n",
    "empty": "",
    "binary": "\udcff\udcfe\n",
}
COUNT_NAMES = (list(COUNT_FILES)[:4], [*list(COUNT_FILES)[4:], "missing"])
# flags whose value is a path: a bad one is an I/O error, which names the path
PATH_FLAGS = {"chain_file", "csv", "tsv"}


@st.composite
def cli_argvs(draw, files: Path):
    """(argv, fixes) for one subcommand. Each value is valid three times
    in four, so that whole runs succeed too; optional flags are left out
    or drawn. fixes maps each flag but a path flag that was given an
    invalid value to a valid value for it."""
    fixes = {}

    def pick(choices, flag=None):
        valid, invalid = choices
        if draw(st.integers(0, 3)):
            return draw(st.sampled_from(valid))
        if flag:
            fixes[flag] = valid[0]
        return draw(st.sampled_from(invalid))

    def option(flag, choices):
        return [flag, pick(choices, flag)]

    def flags(**choices):
        return [arg for name, values in choices.items() if draw(st.booleans())
                for flag in [f"--{name.replace('_', '-')}"]
                for arg in (flag, pick(values, None if name in PATH_FLAGS else flag))]

    counts = str(files / pick(COUNT_NAMES))
    out = str(files / "out" / pick((["a.txt"], ["missing/a.txt"])))
    command = draw(st.sampled_from(["fit", "diagnose", "gibbs", "simulate", "text", "experiment"]))
    if command in ("fit", "diagnose"):
        argv = [command, counts, *flags(tol=REALS, max_iter=ITERATIONS, prior_a=PRIORS,
                                        prior_b=PRIORS, init=INITS)]
    elif command == "gibbs":
        argv = ["gibbs", counts, *option("--samples", SIZES), *option("--burn-in", BURN_IN),
                *flags(thin=THIN, prior_a=REALS, prior_b=REALS, seed=STREAMS, stream=STREAMS,
                       lambda_init=REALS, chain_file=([out], [str(files)]))]
    elif command == "simulate":
        argv = ["simulate", *option("--lambda", REALS), *option("--n", SIZES), "--out", out,
                *flags(generator=(["mixture", "urn"], ["bogus"]), seed=STREAMS, stream=STREAMS)]
    elif command == "text":
        argv = ["text", pick(([str(FIXTURE)], [counts])), "--counts", out,
                *draw(st.lists(st.sampled_from(["--no-strip", "--keep-apostrophes",
                                                "--keep-digits"]), unique=True)),
                *flags(tsv=([out + ".tsv"], [str(files)]))]
    else:
        argv = ["experiment", *option("--lambda", REALS), *option("--n", SIZES),
                *option("--reps", REPS), *option("--gibbs-samples", SIZES),
                *option("--gibbs-burn-in", BURN_IN),
                *flags(generator=(["mixture", "urn"], ["bogus"]),
                       estimators=(["em", "gibbs", "em,gibbs"], ["", "bogus"]),
                       seed=STREAMS, stream=STREAMS, tol=REALS, max_iter=ITERATIONS,
                       csv=([out], [str(files)]))]
    return argv, fixes


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    files = tmp_path_factory.mktemp("cli_files")
    for name, text in COUNT_FILES.items():
        (files / name).write_bytes(text.encode("utf-8", "surrogateescape"))
    (files / "out").mkdir()
    return files


def run_quietly(argv) -> tuple[int, str]:
    """main's exit code and stderr; an exception main lets through
    propagates, as it would print a traceback. Warnings are dropped."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, err.getvalue()


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(data=st.data())
def test_no_argv_ends_in_a_traceback(cli_files, data):
    """Every drawn run exits 0, 1 or 2 (an exception main lets through
    fails the test), and an exit 1 prints one error line. When the run
    with each invalid flag value set valid ends otherwise, the exit 1
    came from a drawn invalid value, and the error line names its flag.
    Warnings about the drawn data are expected."""
    argv, fixes = data.draw(cli_argvs(cli_files), label="argv")
    code, err = run_quietly(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 1:
        assert sum(line.startswith("ys: error: ") for line in err.splitlines()) == 1
        fixed = [fixes.get(argv[i - 1], arg) if i else arg for i, arg in enumerate(argv)]
        if fixes and run_quietly(fixed) != (code, err):
            assert any(re.search(rf"(?<![\w-]){flag}(?![\w-])", err) for flag in fixes), err
