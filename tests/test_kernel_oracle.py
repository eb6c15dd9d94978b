"""The log-normal kernels against mpmath at 50 digits, into the tails.

`win_prob`, `expected_cost` and the censored fit's lost-row hazard
sqrt(2/pi) / erfcx(z / sqrt(2)) are compared with Phi(z), exp(mu + sigma^2/2)
Phi(z - sigma) and phi(z) / Phi(-z), each evaluated at the exact double
inputs. Where the truth is a normal double the error must stay within
`REL` eps times the condition of the computation. That condition counts the
rounding of z = (ln bp - mu) / sigma, amplified by the slope of ln Phi
(about |z| in the lower tail), and for the cost the rounding of the exponent
mu + sigma^2 / 2. Where the truth is below the normal range the error must
stay within `TINY`, the smallest normal double: scipy's `ndtr` flushes to 0
from z of about -37.68, where Phi is 6e-311, and `erfcx` overflows from z of
about -37.66, where the hazard is 4.4e-309.
"""

import math

import mpmath
import numpy as np
from hypothesis import example, given, settings, strategies as st

from dualbid.landscape import LandscapePrior, _mean_ll_derivatives, expected_cost, win_prob
from dualbid.utility import DEFAULT_BID_CAP

#: Working precision of the truths, in decimal digits.
DIGITS = 50
EPS = 2.0**-52
TINY = 2.2250738585072014e-308
#: Allowed error in units of eps times the condition; the largest seen over
#: 80,000 random draws is 4, for the hazard near z = 0.
REL = 16


def assert_close(got, truth, kappa):
    """`got` within REL eps kappa of `truth` relatively, or within TINY below the normal range."""
    error = abs(mpmath.mpf(got) - truth)
    if truth >= TINY:
        assert error <= REL * EPS * kappa * truth, (got, mpmath.nstr(truth, 17))
    else:
        assert error <= TINY, (got, mpmath.nstr(truth, 17))


sigmas = st.floats(1e-3, 40.0)
mus = st.floats(-10.0, 10.0)
bids = st.one_of(st.floats(-300.0, math.log10(DEFAULT_BID_CAP)).map(lambda e: 10.0**e),
                 st.just(DEFAULT_BID_CAP))


def truths(mu, sigma, bp):
    """Phi(z) and the partial first moment, and z and z - sigma as floats; at `DIGITS`."""
    z = (mpmath.log(bp) - mu) / sigma
    cost = mpmath.exp(mu + mpmath.mpf(sigma) ** 2 / 2) * mpmath.ncdf(z - sigma)
    return mpmath.ncdf(z), cost, float(z), float(z - sigma)


def z_rounding(mu, sigma, bp, z):
    """Bound, in eps, on the absolute rounding error of the kernel's z."""
    return (abs(math.log(bp)) + abs(mu)) / sigma + abs(z)


@settings(max_examples=150, deadline=None)
@given(mu=mus, sigma=sigmas, bp=bids)
def test_win_prob(mu, sigma, bp):
    with mpmath.workdps(DIGITS):
        prob, _, z, _ = truths(mu, sigma, bp)
        kappa = 1.0 + (1.0 + max(-z, 0.0)) * z_rounding(mu, sigma, bp, z)
        assert_close(win_prob(LandscapePrior(mu, sigma), bp), prob, kappa)


@settings(max_examples=150, deadline=None)
@given(mu=mus, sigma=sigmas, bp=bids)
# A finite mean above 1 where Phi(z - sigma) underflows: each read 0 before
# the log-space form applied below the normal range of `ndtr`.
@example(mu=0.0, sigma=37.5, bp=1e-3)
@example(mu=0.0, sigma=36.0, bp=1e-30)
@example(mu=0.0, sigma=30.0, bp=1e-110)
def test_expected_cost(mu, sigma, bp):
    with mpmath.workdps(DIGITS):
        _, cost, z, w = truths(mu, sigma, bp)
        w_rounding = z_rounding(mu, sigma, bp, z) + abs(w)
        kappa = 1.0 + abs(mu) + sigma * sigma + (1.0 + max(-w, 0.0)) * w_rounding
        assert_close(expected_cost(LandscapePrior(mu, sigma), bp), cost, kappa)


def hazard(z: float) -> float:
    """The lost-row hazard of `_mean_ll_derivatives` at `z`.

    One lost row at y = z, with delta 0 and gamma 1, and no won row leave the
    gradient's first entry 0.0 + hazard.
    """
    _, grad, _ = _mean_ll_derivatives((0, 0.0, 0.0), np.array([z]), 0.0, 1.0, 1)
    return float(grad[0])


@settings(max_examples=150, deadline=None)
@given(z=st.floats(-40.0, 9.0))
@example(z=-37.5)
@example(z=-40.0)
def test_lost_row_hazard(z):
    with mpmath.workdps(DIGITS):
        zm = mpmath.mpf(z)
        truth = mpmath.npdf(zm) / mpmath.ncdf(-zm)
        assert_close(hazard(z), truth, 1.0 + (1.0 + max(-z, 0.0)) * abs(z))
