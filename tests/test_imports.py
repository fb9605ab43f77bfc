"""What a fresh interpreter runs of the package: importing the CLI runs
only what every subcommand needs, a subcommand runs only its own
modules, and the benchmark's tracer still wraps every traced name."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from yulesimon import RngStream, sample_mixture, write_count_file

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = Path(__file__).parent / "fixtures" / "gutenberg_excerpt.txt"
SUBMODULES = {"cli", "convergence", "corpus", "distribution", "em", "experiment", "gibbs",
              "information", "special"}
# what every subcommand runs: the CLI, the count files and the field errors
BASE = {"cli", "distribution", "special"}

# prints the submodules in sys.modules, then those whose body ran; a
# module not yet run is still of LazyLoader's class, and vars() would run it
EXECUTED = """
import contextlib, io, sys, types
import yulesimon.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = yulesimon.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
assert code == 0, code
names = [name.removeprefix("yulesimon.") for name in sys.modules if name.startswith("yulesimon.")]
print(" ".join(sorted(names)))
print(" ".join(sorted(name for name in names
                      if type(sys.modules["yulesimon." + name]) is types.ModuleType)))
"""

TRACER = """
import contextlib, importlib.util, io, sys, types
import yulesimon
from yulesimon.cli import main

def fit():
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["fit", sys.argv[1]]) == 0

fit()
em, corpus = sys.modules["yulesimon.em"], sys.modules["yulesimon.corpus"]
assert type(corpus) is not types.ModuleType, "ys fit ran corpus"
spec = importlib.util.spec_from_file_location("_tracing", sys.argv[2])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
em_fit = em.em_fit
tracer = tracing.Tracer()
tracer.install()
tokenize_count = corpus.tokenize_count.__wrapped__
assert tokenize_count.__module__ == "yulesimon.corpus"
assert em.em_fit is not em_fit and em.em_fit.__wrapped__ is em_fit
assert yulesimon.em_fit is em.em_fit
fit()
assert tracer.layers()["em.em_fit"]["calls"] == 1
tracer.restore()
assert em.em_fit is em_fit and yulesimon.em_fit is em_fit
assert corpus.tokenize_count is tokenize_count
"""


def _python(code: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


@pytest.fixture()
def counts_file(tmp_path):
    path = tmp_path / "counts.txt"
    write_count_file(path, sample_mixture(0.8, 300, RngStream(5)))
    return str(path)


@pytest.mark.parametrize("argv, runs", [
    ([], set()),
    (["fit", "COUNTS"], {"em", "convergence", "information"}),
    (["gibbs", "COUNTS", "--samples", "60", "--burn-in", "10"], {"gibbs"}),
    (["text", str(FIXTURE), "--counts", "OUT"], {"corpus"}),
    (["simulate", "--lambda", "1.25", "--n", "100", "--out", "OUT"], set()),
    (["simulate", "--generator", "urn", "--lambda", "1.25", "--n", "100", "--out", "OUT"], set()),
    (["experiment", "--lambda", "0.8", "--n", "50", "--reps", "2", "--seed", "1"],
     {"experiment", "em", "information"}),
    (["experiment", "--lambda", "0.8", "--n", "50", "--reps", "2", "--seed", "1",
      "--estimators", "em,gibbs", "--gibbs-samples", "60", "--gibbs-burn-in", "10"],
     {"experiment", "em", "gibbs", "information"}),
], ids=["import", "fit", "gibbs", "text", "simulate", "simulate-urn", "experiment",
        "experiment-gibbs"])
def test_a_subcommand_runs_only_its_modules(argv, runs, counts_file, tmp_path):
    out = str(tmp_path / "out.txt")
    argv = [counts_file if a == "COUNTS" else out if a == "OUT" else a for a in argv]
    present, executed = _python(EXECUTED, *argv).splitlines()
    assert set(present.split()) == SUBMODULES
    assert set(executed.split()) == BASE | runs


def test_tracer_wraps_modules_not_yet_run(counts_file):
    # ys fit leaves corpus unrun; install runs it and wraps it like the rest
    _python(TRACER, counts_file, str(ROOT / "perfbench" / "tracing.py"))
