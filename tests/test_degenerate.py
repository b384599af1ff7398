"""Every collection the library cannot run a stage on raises
``DegenerateSampleError``, its message the reason; the CLI's one skip path
catches it and reports that reason."""

from __future__ import annotations

import numpy as np
import pytest

from survent import (
    ContingencyTable,
    Dataset,
    DegenerateRangeError,
    DegenerateSampleError,
    categorize_features,
    ce_expansion,
    censor_cross_table,
    equal_width_bins,
    fit,
    partial_loglik,
    reliability_null,
    run_censor_test,
)

rng = np.random.default_rng(5)
Y, X = rng.uniform(1, 10, 20), rng.uniform(size=(20, 1))
CENSORED = Dataset(Y, np.zeros(20), X, ["V1"])
EVENTS = Dataset(Y, np.ones(20), X, ["V1"])
SCHEME = equal_width_bins(Y, 4)

CASES = {
    "cox fit": (lambda: fit(CENSORED), "no events"),
    "partial loglik": (lambda: partial_loglik([0.0], CENSORED), "no events"),
    "cross table, no events": (lambda: censor_cross_table(CENSORED, SCHEME),
                               "no events"),
    "cross table, no censored": (lambda: censor_cross_table(EVENTS, SCHEME),
                                 "no censored records"),
    "censor test": (lambda: run_censor_test(table=ContingencyTable(
        (1, 2), (1,), np.array([[2.0], [3.0]]))), "degenerate marginal"),
    "reliability null": (lambda: reliability_null(CENSORED.subset([0]), SCHEME),
                         "fewer than 2 records"),
    "ce expansion": (lambda: ce_expansion(
        CENSORED, SCHEME, categorize_features(CENSORED), "V1"),
        "response has zero entropy"),
}


@pytest.mark.parametrize("case", CASES)
def test_degenerate_sample_raises_its_reason(case):
    call, reason = CASES[case]
    with pytest.raises(DegenerateSampleError, match=f"^{reason}$"):
        call()


def test_degenerate_range_is_a_degenerate_sample():
    with pytest.raises(DegenerateSampleError):
        equal_width_bins([3.0, 3.0], 4)
    assert issubclass(DegenerateRangeError, DegenerateSampleError)
