"""Yule-Simon rate estimation: EM/MAP fitting with Louis/Oakes standard
errors, convergence-rate diagnostics, a Gibbs posterior sampler for
cross-checking, data generators, and word-frequency extraction."""

from .convergence import (
    ConvergenceReport,
    diagnose,
    em_map_jacobian,
    empirical_rates,
    rate_theoretical,
)
from .corpus import (
    CorpusCounts,
    TokenizerOptions,
    strip_gutenberg,
    to_count_sample,
    tokenize_count,
    write_tsv,
)
from .distribution import (
    CountFileError,
    CountSample,
    RngStream,
    log_pmf,
    pmf,
    read_count_file,
    sample_mixture,
    sample_urn,
    write_count_file,
)
from .em import (
    CONVEXITY_BOUND,
    FitConfig,
    FitResult,
    convexity_check,
    em_fit,
    em_step,
    init_lambda,
    observed_loglik,
    q_function,
)
from .experiment import (
    ExperimentSpec,
    ExperimentSummary,
    ReplicationRecord,
    run_experiment,
    write_replication_csv,
)
from .gibbs import (
    GibbsConfig,
    GibbsResult,
    autocorrelation,
    conditional_lambda_draw,
    gibbs_run,
)
from .information import (
    louis_information,
    numeric_information,
    oakes_information,
    standard_error,
)

__version__ = "0.1.0"

__all__ = [
    "CONVEXITY_BOUND",
    "ConvergenceReport",
    "CorpusCounts",
    "CountFileError",
    "CountSample",
    "ExperimentSpec",
    "ExperimentSummary",
    "FitConfig",
    "FitResult",
    "GibbsConfig",
    "GibbsResult",
    "ReplicationRecord",
    "RngStream",
    "TokenizerOptions",
    "autocorrelation",
    "conditional_lambda_draw",
    "convexity_check",
    "diagnose",
    "em_fit",
    "em_map_jacobian",
    "em_step",
    "empirical_rates",
    "gibbs_run",
    "init_lambda",
    "log_pmf",
    "louis_information",
    "numeric_information",
    "oakes_information",
    "observed_loglik",
    "pmf",
    "q_function",
    "rate_theoretical",
    "read_count_file",
    "run_experiment",
    "sample_mixture",
    "sample_urn",
    "standard_error",
    "strip_gutenberg",
    "to_count_sample",
    "tokenize_count",
    "write_count_file",
    "write_replication_csv",
    "write_tsv",
]
