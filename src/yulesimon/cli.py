"""Command-line interface: ys fit|gibbs|simulate|text|diagnose|experiment.

All commands read and write the one-integer-per-line count format and
emit machine-readable reports (JSON on stdout, CSV where per-row data
is produced). YS_SEED provides the default seed. Exit codes: 0 success
(fit/diagnose additionally require a converged estimate), 2 when the
fit did not converge, 1 on I/O or format errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .convergence import diagnose
from .corpus import TokenizerOptions, strip_gutenberg, to_count_sample, tokenize_count, write_tsv
from .distribution import (
    CountFileError,
    RngStream,
    read_count_file,
    sample_mixture,
    sample_urn,
    write_count_file,
)
from .em import CONVERGED, FitConfig, em_fit
from .experiment import ExperimentSpec, run_experiment, write_replication_csv
from .gibbs import GibbsConfig, gibbs_run
from .information import standard_error

__all__ = ["main"]


def _default_seed() -> int:
    value = os.environ.get("YS_SEED", "0")
    if not (value.isascii() and value.isdigit()):
        raise ValueError(f"YS_SEED must be a non-negative integer, got {value!r}")
    return int(value)


def _parse_init(value: str):
    name = value.replace("-", "_")
    if name in ("mode_one", "moments", "method_of_moments"):
        return name if name != "method_of_moments" else "moments"
    try:
        return float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"init must be 'mode_one', 'moments' or a number, got {value!r}"
        ) from None


def _add_fit_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol", type=float, default=FitConfig.tol,
                        help="stop when |change in lambda| < TOL")
    parser.add_argument("--max-iter", type=int, default=FitConfig.max_iter)
    parser.add_argument("--prior-a", type=float, default=FitConfig.prior_a,
                        help="gamma prior shape (1 with rate 0 = plain likelihood)")
    parser.add_argument("--prior-b", type=float, default=FitConfig.prior_b,
                        help="gamma prior rate")
    parser.add_argument("--init", type=_parse_init, default=FitConfig.init,
                        help="mode_one, moments, or a fixed starting value")


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _fit_and_diagnose(args):
    """Read the count file, fit it and diagnose the fit: the shared part
    of ys fit and ys diagnose."""
    data = read_count_file(args.input)
    fit = em_fit(data, FitConfig(prior_a=args.prior_a, prior_b=args.prior_b, tol=args.tol,
                                 max_iter=args.max_iter, init=args.init))
    return data, fit, diagnose(data, fit, args.prior_a, args.prior_b)


def _cmd_fit(args) -> int:
    data, fit, report = _fit_and_diagnose(args)
    std_err = standard_error(data, fit.lambda_hat) if fit.status == CONVERGED else math.nan
    _emit(
        {
            "lambda_hat": fit.lambda_hat,
            "std_err": std_err,
            "iterations": fit.iterations,
            "status": fit.status,
            "trace": fit.trace,
            "convergence": {
                "r_theoretical": report.r_theoretical,
                "jacobian_at_hat": report.jacobian_at_hat,
                "regime": report.regime,
                "empirical_rates": report.empirical_rates,
                "truncated": report.truncated,
            },
        }
    )
    return 0 if fit.status == CONVERGED else 2


def _cmd_diagnose(args) -> int:
    _, fit, report = _fit_and_diagnose(args)
    _emit(
        {
            "lambda_hat": fit.lambda_hat,
            "status": fit.status,
            "iterations": fit.iterations,
            "r_theoretical": report.r_theoretical,
            "jacobian_at_hat": report.jacobian_at_hat,
            "regime": report.regime,
            "empirical_rates": [
                {"iteration": i + 2, "rate": r}
                for i, r in enumerate(report.empirical_rates)
            ],
            "truncated": report.truncated,
        }
    )
    return 0 if fit.status == CONVERGED else 2


def _cmd_gibbs(args) -> int:
    data = read_count_file(args.input)
    config = GibbsConfig(
        prior_a=args.prior_a,
        prior_b=args.prior_b,
        n_samples=args.samples,
        burn_in=args.burn_in,
        thin=args.thin,
        seed=RngStream(args.seed, args.stream),
        lambda_init=args.lambda_init,
    )
    result = gibbs_run(data, config)
    payload = {
        "posterior_mean": result.posterior_mean,
        "posterior_sd": result.posterior_sd,
        "acf_max": float(np.max(np.abs(result.autocorrelations))),
    }
    if args.chain_file:
        with open(args.chain_file, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("iter,lambda\n")
            fh.writelines(f"{i},{float(x)!r}\n" for i, x in enumerate(result.chain))
        payload["chain_file"] = args.chain_file
    _emit(payload)
    return 0


def _cmd_simulate(args) -> int:
    rng = RngStream(args.seed, args.stream)
    if args.generator == "urn":
        if args.lam <= 1.0:
            _build_parser().error("--generator urn requires --lambda > 1")
        sample = sample_urn(args.lam, args.n, rng)
    else:
        sample = sample_mixture(args.lam, args.n, rng)
    write_count_file(args.out, sample)
    print(
        f"n={sample.n} mean={sample.sample_mean():.6g} max={int(sample.counts.max())}",
        file=sys.stderr,
    )
    return 0


def _cmd_text(args) -> int:
    with open(args.input, "r", encoding="utf-8", errors="replace") as fh:
        text = fh.read()
    stripped = not args.no_strip
    if stripped:
        text = strip_gutenberg(text)
    counts = tokenize_count(
        text,
        TokenizerOptions(keep_apostrophes=args.keep_apostrophes, keep_digits=args.keep_digits),
    )
    counts.preprocessing["gutenberg_stripped"] = stripped
    sample = to_count_sample(counts)
    write_count_file(args.counts, sample)
    if args.tsv:
        write_tsv(counts, args.tsv)
    print(f"n_unique={counts.n_unique} n_tokens={counts.n_tokens}")
    return 0


def _cmd_experiment(args) -> int:
    spec = ExperimentSpec(
        true_lambda=args.lam,
        n=args.n,
        n_rep=args.reps,
        generator=args.generator,
        estimators=tuple(args.estimators.split(",")),
        seed=RngStream(args.seed, args.stream),
        fit_config=FitConfig(tol=args.tol, max_iter=args.max_iter),
        gibbs_config=GibbsConfig(n_samples=args.gibbs_samples, burn_in=args.gibbs_burn_in),
    )
    summary = run_experiment(spec)
    if args.csv:
        write_replication_csv(summary.records, args.csv)
    payload = {
        "true_lambda": spec.true_lambda,
        "n": spec.n,
        "n_rep": spec.n_rep,
        "generator": spec.generator,
        "estimators": {
            name: vars(stats) for name, stats in summary.estimators.items()
        },
    }
    if args.csv:
        payload["csv"] = args.csv
    _emit(payload)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on the first call and shared by every
    later call in the process; each subcommand names its handler as
    the default of args.handler."""
    parser = argparse.ArgumentParser(
        prog="ys",
        description="Yule-Simon rate estimation: EM and Gibbs, with diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="EM fit of a count file, JSON report on stdout")
    p_fit.add_argument("input", help="count file, one integer >= 1 per line")
    _add_fit_flags(p_fit)
    p_fit.set_defaults(handler=_cmd_fit)

    p_diag = sub.add_parser("diagnose", help="fit plus convergence-rate diagnostics")
    p_diag.add_argument("input")
    _add_fit_flags(p_diag)
    p_diag.set_defaults(handler=_cmd_diagnose)

    p_gibbs = sub.add_parser("gibbs", help="posterior sampling of a count file")
    p_gibbs.add_argument("input")
    p_gibbs.add_argument("--samples", type=int, default=GibbsConfig.n_samples)
    p_gibbs.add_argument("--burn-in", type=int, default=GibbsConfig.burn_in)
    p_gibbs.add_argument("--thin", type=int, default=GibbsConfig.thin)
    p_gibbs.add_argument("--prior-a", type=float, default=GibbsConfig.prior_a)
    p_gibbs.add_argument("--prior-b", type=float, default=GibbsConfig.prior_b)
    p_gibbs.add_argument("--seed", type=int, default=None)
    p_gibbs.add_argument("--stream", type=int, default=0)
    p_gibbs.add_argument("--lambda-init", type=float, default=GibbsConfig.lambda_init)
    p_gibbs.add_argument("--chain-file", help="write retained draws as iter,lambda CSV")
    p_gibbs.set_defaults(handler=_cmd_gibbs)

    p_sim = sub.add_parser("simulate", help="generate a synthetic count file")
    p_sim.add_argument("--lambda", dest="lam", type=float, required=True)
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--generator", choices=("mixture", "urn"), default="mixture")
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--stream", type=int, default=0)
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(handler=_cmd_simulate)

    p_text = sub.add_parser("text", help="word-frequency counts from a text file")
    p_text.add_argument("input")
    p_text.add_argument("--no-strip", action="store_true",
                        help="keep Gutenberg header/footer")
    p_text.add_argument("--keep-apostrophes", action="store_true")
    p_text.add_argument("--keep-digits", action="store_true")
    p_text.add_argument("--counts", required=True, help="output count file")
    p_text.add_argument("--tsv", help="optional word<TAB>count table")
    p_text.set_defaults(handler=_cmd_text)

    p_exp = sub.add_parser("experiment", help="replicated synthetic study")
    p_exp.add_argument("--lambda", dest="lam", type=float, required=True)
    p_exp.add_argument("--n", type=int, required=True)
    p_exp.add_argument("--reps", type=int, default=200)
    p_exp.add_argument("--generator", choices=("mixture", "urn"), default="mixture")
    p_exp.add_argument("--estimators", default="em", help="comma list from {em,gibbs}")
    p_exp.add_argument("--seed", type=int, default=None)
    p_exp.add_argument("--stream", type=int, default=0)
    p_exp.add_argument("--tol", type=float, default=FitConfig.tol)
    p_exp.add_argument("--max-iter", type=int, default=FitConfig.max_iter)
    p_exp.add_argument("--gibbs-samples", type=int, default=GibbsConfig.n_samples)
    p_exp.add_argument("--gibbs-burn-in", type=int, default=GibbsConfig.burn_in)
    p_exp.add_argument("--csv", help="write per-replication records here")
    p_exp.set_defaults(handler=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if hasattr(args, "seed") and args.seed is None:
            args.seed = _default_seed()
        return args.handler(args)
    except (CountFileError, OSError, ValueError) as exc:
        print(f"ys: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
