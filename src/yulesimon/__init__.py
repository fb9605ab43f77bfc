"""Yule-Simon rate estimation: EM/MAP fitting with Louis/Oakes standard
errors, convergence-rate diagnostics, a Gibbs posterior sampler for
cross-checking, data generators, and word-frequency extraction.

Importing the package runs none of its submodules. Each one is in
sys.modules from the start and runs on the first access to one of its
attributes, so a ys subcommand runs only the modules it uses. The
exported names resolve on first access as well."""

import importlib.util
import sys

__version__ = "0.1.0"

# the exported names, by the submodule that defines them
_EXPORTS = {
    "convergence": ["ConvergenceReport", "diagnose", "em_map_jacobian", "empirical_rates",
                    "rate_theoretical"],
    "corpus": ["CorpusCounts", "TokenizerOptions", "strip_gutenberg", "to_count_sample",
               "tokenize_count", "write_tsv"],
    "distribution": ["CountFileError", "CountSample", "RngStream", "log_pmf", "pmf",
                     "read_count_file", "sample_mixture", "sample_urn", "write_count_file"],
    "em": ["FitConfig", "FitResult", "em_fit", "em_step", "init_lambda", "observed_loglik"],
    "experiment": ["ExperimentSpec", "ExperimentSummary", "ReplicationRecord",
                   "run_experiment", "write_replication_csv"],
    "gibbs": ["GibbsConfig", "GibbsResult", "autocorrelation", "gibbs_run"],
    "information": ["louis_information", "numeric_information", "oakes_information",
                    "standard_error"],
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def _lazy(name: str):
    """The submodule name, in sys.modules and in this namespace, with its
    body deferred to its first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    loader = spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    loader.exec_module(module)
    globals()[name] = module


for _name in [*_EXPORTS, "special"]:
    _lazy(_name)
del _name


def __getattr__(name: str):
    # not cached here: a wrapper installed in the home module is seen
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
