"""Every RuntimeWarning of the package names the line that called into
the package, whether that call warns itself or reaches the warning
through other package functions."""

import warnings

import numpy as np
import pytest

from yulesimon import (CountSample, FitConfig, RngStream, autocorrelation, em_fit, init_lambda,
                       louis_information, oakes_information, sample_mixture, standard_error,
                       strip_gutenberg)
from yulesimon.distribution import generate
from yulesimon.em import em_fit_stacked

ONES = CountSample([1, 1, 1])
# lam far above the maximizer makes the information negative
FLAT = CountSample([1, 1, 1, 1, 2])

# one call per line: each warning must name the line of its lambda
SITES = {
    "init_lambda": lambda: init_lambda(ONES, "moments"),
    "em_fit": lambda: em_fit(ONES, FitConfig(init="moments")),
    "em_fit_stacked": lambda: em_fit_stacked([ONES, ONES], FitConfig(init="moments")),
    "oakes_information": lambda: oakes_information(FLAT, 50.0),
    "louis_information": lambda: louis_information(FLAT, 50.0),
    "standard_error": lambda: standard_error(FLAT, 50.0),
    "sample_mixture": lambda: sample_mixture(0.05, 3000, RngStream(2)),
    "generate": lambda: generate("mixture", 0.05, 3000, RngStream(2)),
    "strip_gutenberg, no markers": lambda: strip_gutenberg("plain text\n"),
    "strip_gutenberg, malformed": lambda: strip_gutenberg("*** END OF IT ***\n*** START OF IT\n"),
    "autocorrelation": lambda: autocorrelation(np.ones(50), 5),
}


@pytest.mark.parametrize("site", SITES)
def test_each_warning_names_the_callers_line(site):
    call = SITES[site]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call()
    assert caught and all(w.category is RuntimeWarning for w in caught)
    assert {(w.filename, w.lineno) for w in caught} == {(__file__, call.__code__.co_firstlineno)}
