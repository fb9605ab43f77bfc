"""Command-line interface: ys fit|gibbs|simulate|text|diagnose|experiment.

All commands read and write the one-integer-per-line count format and
emit machine-readable reports (JSON on stdout, with a non-finite value
as null; CSV where per-row data is produced). A flag fills the library
field its dest names, and only when typed, so every default lives in the
library's dataclasses, and a run's randomness comes from its command
line alone (--seed and --stream, else RngStream's defaults); --help
shows each option's flag name as its metavar. Exit codes: 0 success
(fit/diagnose additionally require a converged estimate), 2 when the
fit did not converge, 1 on I/O or format errors and on a refused value,
with one error line that names the flag typed for it.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

# a subcommand's own modules run on its first call into them (see __init__)
from . import convergence, corpus, em, experiment, gibbs, information
from .distribution import GENERATORS, RngStream, generate, read_count_file, write_count_file
from .special import FieldError

__all__ = ["main"]


def _parse_init(value: str):
    """A policy name (dashes read as underscores, method-of-moments as
    moments), else a float when the value parses, else the value itself,
    which FitConfig refuses as an unknown policy."""
    name = value.replace("-", "_")
    if name in ("mode_one", "moments", "method_of_moments"):
        return name if name != "method_of_moments" else "moments"
    try:
        return float(value)
    except ValueError:
        return value


def _add_fit_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol", type=float, help="stop when |change in lambda| < TOL")
    parser.add_argument("--max-iter", type=int)
    parser.add_argument("--prior-a", type=float,
                        help="gamma prior shape (1 with rate 0 = plain likelihood)")
    parser.add_argument("--prior-b", type=float, help="gamma prior rate")
    parser.add_argument("--init", type=_parse_init,
                        help="mode_one, moments, or a fixed starting value")


def _fields(cls, args, **given):
    """A cls whose fields take given, else the flag typed for them, else their default."""
    typed = {field.name: getattr(args, field.name) for field in dataclasses.fields(cls)
             if getattr(args, field.name, None) is not None}
    return cls(**{**typed, **given})


def _strict(value):
    """value with each non-finite float in it replaced by None, which
    JSON writes as null."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _strict(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(item) for item in value]
    return value


def _emit(payload: dict) -> None:
    print(json.dumps(_strict(payload), indent=2, allow_nan=False))


def _fit_and_diagnose(args):
    """Read the count file, fit it and diagnose the fit: the shared part
    of ys fit and ys diagnose. The flags are checked before the read."""
    config = _fields(em.FitConfig, args)
    fit = em.em_fit(read_count_file(args.input), config)
    return fit, convergence.diagnose(fit)


def _cmd_fit(args) -> int:
    fit, report = _fit_and_diagnose(args)
    std_err = information._fit_standard_error(fit) if fit.converged else math.nan
    _emit({
        "lambda_hat": fit.lambda_hat,
        "std_err": std_err,
        "iterations": fit.iterations,
        "status": fit.status,
        "trace": fit.trace,
        "convergence": dataclasses.asdict(report),
    })
    return 0 if fit.converged else 2


def _cmd_diagnose(args) -> int:
    fit, report = _fit_and_diagnose(args)
    _emit({
        "lambda_hat": fit.lambda_hat,
        "status": fit.status,
        "iterations": fit.iterations,
        **dataclasses.asdict(report),
        "empirical_rates": [{"iteration": i + 2, "rate": r}
                            for i, r in enumerate(report.empirical_rates)],
    })
    return 0 if fit.converged else 2


def _cmd_gibbs(args) -> int:
    config = _fields(gibbs.GibbsConfig, args)
    result = gibbs.gibbs_run(read_count_file(args.input), config)
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
    sample = generate(args.generator, args.lam, args.n, args.seed)
    write_count_file(args.out, sample)
    print(
        f"n={sample.n} mean={sample.sample_mean():.6g} max={int(sample.counts.max())}",
        file=sys.stderr,
    )
    return 0


def _cmd_text(args) -> int:
    with open(args.input, "r", encoding="utf-8", errors="replace") as fh:
        text = fh.read()
    if not args.no_strip:
        text = corpus.strip_gutenberg(text)
    counts = corpus.tokenize_count(
        text,
        corpus.TokenizerOptions(keep_apostrophes=args.keep_apostrophes,
                                keep_digits=args.keep_digits),
    )
    write_count_file(args.counts, corpus.to_count_sample(counts))
    if args.tsv:
        corpus.write_tsv(counts, args.tsv)
    print(f"n_unique={counts.n_unique} n_tokens={counts.n_tokens}")
    return 0


def _cmd_experiment(args) -> int:
    # the Gibbs flags are checked and used, and gibbs run, only when a chain runs
    chains = "gibbs" in (args.estimators or experiment.ExperimentSpec.estimators)
    fit_config = _fields(em.FitConfig, args)
    gibbs_config = _fields(gibbs.GibbsConfig, args) if chains else None
    spec = _fields(experiment.ExperimentSpec, args, fit_config=fit_config,
                   gibbs_config=gibbs_config)
    summary = experiment.run_experiment(spec)
    payload = {
        "true_lambda": spec.true_lambda,
        "n": spec.n,
        "n_rep": spec.n_rep,
        "generator": spec.generator,
        "estimators": {name: vars(stats) for name, stats in summary.estimators.items()},
    }
    if args.csv:
        experiment.write_replication_csv(summary.records, args.csv)
        payload["csv"] = args.csv
    _emit(payload)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on the first call and shared by every
    later call in the process; each subcommand names its handler as
    the default of args.handler, and as args.flags the flag of each
    option by its dest, the library field it sets."""
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
    p_gibbs.add_argument("--samples", dest="n_samples", type=int)
    p_gibbs.add_argument("--burn-in", type=int)
    p_gibbs.add_argument("--thin", type=int)
    p_gibbs.add_argument("--prior-a", type=float)
    p_gibbs.add_argument("--prior-b", type=float)
    p_gibbs.add_argument("--seed", type=int)
    p_gibbs.add_argument("--stream", dest="stream_id", type=int)
    p_gibbs.add_argument("--lambda-init", type=float)
    p_gibbs.add_argument("--chain-file", help="write retained draws as iter,lambda CSV")
    p_gibbs.set_defaults(handler=_cmd_gibbs)

    p_sim = sub.add_parser("simulate", help="generate a synthetic count file")
    p_sim.add_argument("--lambda", dest="lam", type=float, required=True)
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--generator", choices=GENERATORS, default="mixture")
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--stream", dest="stream_id", type=int)
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
    p_exp.add_argument("--lambda", dest="true_lambda", type=float, required=True)
    p_exp.add_argument("--n", type=int, required=True)
    p_exp.add_argument("--reps", dest="n_rep", type=int)
    p_exp.add_argument("--generator", choices=GENERATORS)
    p_exp.add_argument("--estimators", type=lambda value: tuple(value.split(",")),
                       help="comma list from {em,gibbs}")
    p_exp.add_argument("--seed", type=int)
    p_exp.add_argument("--stream", dest="stream_id", type=int)
    p_exp.add_argument("--tol", type=float)
    p_exp.add_argument("--max-iter", type=int)
    p_exp.add_argument("--gibbs-samples", dest="n_samples", type=int)
    p_exp.add_argument("--gibbs-burn-in", dest="burn_in", type=int)
    p_exp.add_argument("--csv", help="write per-replication records here")
    p_exp.set_defaults(handler=_cmd_experiment)

    for command in sub.choices.values():
        options = [action for action in command._actions if action.option_strings]
        for action in options:  # an option that takes a free value shows its flag's name
            if action.choices is None and action.nargs != 0:
                action.metavar = action.option_strings[-1][2:].upper().replace("-", "_")
        command.set_defaults(flags={action.dest: action.option_strings[-1] for action in options})

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if hasattr(args, "seed"):  # the stream that fills each seed field
            args.seed = _fields(RngStream, args)
        return args.handler(args)
    except (OSError, ValueError) as exc:
        message = exc.rename(args.flags) if isinstance(exc, FieldError) else exc
        print(f"ys: error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
