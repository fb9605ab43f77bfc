"""Spans around yulesimon's public functions, installed from outside the
package.

Each traced function is replaced by a wrapper in every loaded yulesimon
module that holds a reference to it (its home module, the modules that
import it, and the package namespace), so calls through any import site
are seen. restore() puts the originals back.

A span records name, start, end, parent span and job id. Spans stay in
memory until the run ends; self time is a span's duration minus the
time its direct children cover.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# module -> public functions wrapped in the traced run
TRACED = {
    "cli": ["main"],
    "distribution": ["read_count_file", "sample_mixture", "sample_urn", "write_count_file"],
    "special": ["pooled_harmonic_sum", "pooled_harmonic_sum_sq", "log_gamma", "digamma",
                "beta_log_moments"],
    "em": ["em_fit", "em_step", "observed_loglik"],
    "information": ["standard_error", "oakes_information", "louis_information",
                    "numeric_information"],
    "convergence": ["diagnose", "rate_theoretical", "em_map_jacobian"],
    "gibbs": ["gibbs_run", "autocorrelation"],
    "experiment": ["run_experiment"],
    "corpus": ["strip_gutenberg", "tokenize_count", "to_count_sample", "write_tsv"],
}

SPAN_NAMES = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


def _count_fit(result, counts: Counter) -> None:
    counts["em.fits"] += 1
    counts["em.iterations"] += result.iterations
    counts["em.converged"] += result.status == "converged"


def _count_gibbs(result, counts: Counter) -> None:
    counts["gibbs.sweeps"] += result.raw_chain.size
    counts["gibbs.retained"] += result.chain.size


def _count_experiment(result, counts: Counter) -> None:
    counts["experiment.reps"] += len(result.records)
    counts["experiment.converged"] += sum(r.status == "converged" for r in result.records)


# counters read off a traced function's result
RESULT_COUNTERS = {
    "em.em_fit": _count_fit,
    "gibbs.gibbs_run": _count_gibbs,
    "experiment.run_experiment": _count_experiment,
}


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self, package: str = "yulesimon"):
        self.package = package
        self.spans: list[list] = []  # [name, start, end, parent index, job]
        self.counts: Counter = Counter()
        self.job = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        on_result = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result, self.counts)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == self.package or n.startswith(self.package + ".")]
        for mod, fns in TRACED.items():
            home = sys.modules[f"{self.package}.{mod}"]
            for fn in fns:
                original = getattr(home, fn)
                wrapper = self._wrap(f"{mod}.{fn}", original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, key, original))
                            setattr(module, key, wrapper)

    def restore(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("id,parent,job,name,start,end\n")
            fh.writelines(f"{i},{p},{j},{name},{s:.9f},{e:.9f}\n"
                          for i, (name, s, e, p, j) in enumerate(self.spans))
