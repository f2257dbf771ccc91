"""A NaN Gram entry fails the report.

Finite coefficients as large as 1e200 are accepted, but their block
product overflows to inf - inf = NaN.  The report's maxima must carry that
NaN, so that ``passed`` is False by the certificate's rule (pass only when
value < tolerance, never on NaN), instead of dropping it and passing.
"""

import math

import numpy as np
import pytest

from equibasis import gram_check


@pytest.mark.parametrize(
    "a",
    [np.array([1e200 + 1e200j] * 2), np.array([1e200 + 1e200j, 0.5, 0.0])],
    ids=["all-overflow", "one-overflow"],
)
def test_an_overflowing_block_fails_the_report(a):
    with pytest.warns(RuntimeWarning):  # numpy reports the overflow in the product
        report = gram_check(a)
    assert math.isnan(report.max_diag_dev)
    assert not report.passed
