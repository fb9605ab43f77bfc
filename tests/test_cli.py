import json
from pathlib import Path

import numpy as np
import pytest

from yulesimon import RngStream, read_count_file, sample_mixture, write_count_file
from yulesimon.cli import main

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
    assert err.startswith("ys: error: " + flag[2:].replace("-", "_"))


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
    monkeypatch.setenv("YS_SEED", "123")
    env_file = tmp_path / "env.txt"
    run_cli(capsys, "simulate", "--lambda", "0.6", "--n", "100", "--out", str(env_file))
    explicit = tmp_path / "explicit.txt"
    run_cli(capsys, "simulate", "--lambda", "0.6", "--n", "100",
            "--seed", "123", "--out", str(explicit))
    assert env_file.read_bytes() == explicit.read_bytes()


def test_simulate_bad_seed_env_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("YS_SEED", "abc")
    code, _, err = run_cli(capsys, "simulate", "--lambda", "0.6", "--n", "100",
                           "--out", str(tmp_path / "x.txt"))
    assert code == 1
    assert err.startswith("ys: error:") and "YS_SEED" in err


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
