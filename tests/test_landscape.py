import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import log_ndtr

from dualbid.landscape import (
    BidObservation,
    EmptyObservationsError,
    LandscapePrior,
    NoWinObservationsError,
    Outcome,
    censored_log_likelihood,
    expected_cost,
    fit_censored,
    fit_to_json,
    mean,
    partial_moment,
    pdf,
    read_observations_csv,
    win_prob,
    write_observations_csv,
    _mean_ll_derivatives,
)

STANDARD = LandscapePrior(0.0, 1.0)


def quad_cdf(prior, bp):
    value, _ = quad(lambda x: pdf(prior, x), 0.0, bp, epsabs=1e-13, epsrel=1e-11, limit=200)
    return value


def quad_partial_moment(prior, bp):
    value, _ = quad(lambda x: x * pdf(prior, x), 0.0, bp, epsabs=1e-13, epsrel=1e-11, limit=200)
    return value


class TestClosedForms:
    def test_pdf_boundary_and_median(self):
        assert pdf(STANDARD, 0.0) == 0.0
        assert pdf(STANDARD, 1.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-12)

    def test_pdf_matches_cdf_derivative(self):
        prior = LandscapePrior(0.5, 0.25)
        x = math.exp(0.5)
        h = 1e-6
        fd = (win_prob(prior, x + h) - win_prob(prior, x - h)) / (2.0 * h)
        assert pdf(prior, x) == pytest.approx(fd, rel=1e-7)

    def test_win_prob_boundary_and_median(self):
        assert win_prob(STANDARD, 0.0) == 0.0
        assert win_prob(STANDARD, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_win_prob_matches_quadrature(self):
        prior = LandscapePrior(1.0, 0.5)
        assert win_prob(prior, 3.0) == pytest.approx(quad_cdf(prior, 3.0), abs=1e-10)

    def test_expected_cost_boundary_and_total(self):
        assert expected_cost(STANDARD, 0.0) == 0.0
        # Far past the mass, the partial moment reaches the full mean.
        assert expected_cost(STANDARD, 1e9) == pytest.approx(math.exp(0.5), rel=1e-12)
        total, _ = quad(lambda x: x * pdf(STANDARD, x), 0.0, np.inf, epsabs=1e-12, epsrel=1e-11)
        assert expected_cost(STANDARD, 1e9) == pytest.approx(total, rel=1e-9)

    def test_expected_cost_matches_quadrature(self):
        assert expected_cost(STANDARD, 1.0) == pytest.approx(
            quad_partial_moment(STANDARD, 1.0), rel=1e-9
        )

    def test_mean(self):
        assert mean(STANDARD) == pytest.approx(math.exp(0.5), rel=1e-12)
        assert mean(LandscapePrior(0.0, 1e-9)) == pytest.approx(1.0, abs=1e-9)
        assert mean(LandscapePrior(math.log(2.0), 1e-9)) == pytest.approx(2.0, abs=1e-8)

    def test_extreme_sigma_keeps_cost_finite_and_bounded(self):
        # exp(mu + sigma^2/2) overflows a double from sigma of about 37.7.
        prior = LandscapePrior(-1.0, 40.0)
        assert mean(prior) == math.inf
        bps = np.geomspace(1e-8, 1e4, 61)
        cost = expected_cost(prior, bps)
        prob = win_prob(prior, bps)
        assert np.all(np.isfinite(cost))
        assert np.all(cost >= 0.0)
        assert np.all(cost <= bps * prob)
        assert 0.0 <= expected_cost(prior, 1.0) <= win_prob(prior, 1.0)

    def test_partial_moment_log_form_agrees_below_overflow(self):
        # Both forms at a sigma whose mean is still finite.
        mu, sigma = -1.0, 30.0
        z = np.linspace(-5.0, 5.0, 11)
        log_form = np.exp(mu + 0.5 * sigma * sigma + log_ndtr(z - sigma))
        np.testing.assert_allclose(partial_moment(mu, sigma, z), log_form, rtol=1e-9)

    def test_vectorized_matches_scalar(self):
        bps = np.array([0.0, 0.3, 1.0, 4.5])
        np.testing.assert_allclose(
            win_prob(STANDARD, bps), [win_prob(STANDARD, b) for b in bps], rtol=1e-14
        )
        np.testing.assert_allclose(
            expected_cost(STANDARD, bps), [expected_cost(STANDARD, b) for b in bps], rtol=1e-14
        )

    def test_prior_validation(self):
        with pytest.raises(ValueError):
            LandscapePrior(0.0, 0.0)
        with pytest.raises(ValueError):
            LandscapePrior(math.nan, 1.0)


@given(
    mu=st.floats(-3.0, 3.0),
    sigma=st.floats(0.05, 2.0),
    bp1=st.floats(0.0, 20.0),
    bp2=st.floats(0.0, 20.0),
)
@settings(max_examples=200, deadline=None)
def test_monotonicity(mu, sigma, bp1, bp2):
    prior = LandscapePrior(mu, sigma)
    lo, hi = min(bp1, bp2), max(bp1, bp2)
    assert win_prob(prior, lo) <= win_prob(prior, hi) + 1e-15
    assert expected_cost(prior, lo) <= expected_cost(prior, hi) + 1e-15


@given(mu=st.floats(-2.0, 2.0), sigma=st.floats(0.1, 1.5), q=st.floats(0.05, 0.95))
@settings(max_examples=60, deadline=None)
def test_closed_forms_match_quadrature(mu, sigma, q):
    prior = LandscapePrior(mu, sigma)
    bp = math.exp(mu + sigma * float(np.clip(np.sqrt(2) * 2 * (q - 0.5), -2, 2)))
    assert abs(win_prob(prior, bp) - quad_cdf(prior, bp)) <= 1e-8
    pm = quad_partial_moment(prior, bp)
    assert abs(expected_cost(prior, bp) - pm) <= 1e-6 * max(pm, 1e-12)


def _sample_observations(rng, n, mu, sigma, bid):
    """Second-price log against a constant own bid; censoring rate follows the bid."""
    x = np.exp(mu + sigma * rng.standard_normal(n))
    out = []
    for xi in x:
        if bid > xi:
            out.append(BidObservation(Outcome.WON, bid, float(xi)))
        else:
            out.append(BidObservation(Outcome.LOST, bid))
    return out


class TestCensoredFit:
    def test_uncensored_matches_analytic_mle(self, rng):
        costs = np.exp(0.3 + 0.8 * rng.standard_normal(10000))
        observations = [BidObservation(Outcome.WON, 1e12, float(c)) for c in costs]
        fit = fit_censored(observations)
        mu_hat = float(np.mean(np.log(costs)))
        sigma_hat = float(np.std(np.log(costs)))
        assert fit.converged
        assert fit.prior.mu == pytest.approx(mu_hat, abs=1e-6)
        assert fit.prior.sigma == pytest.approx(sigma_hat, abs=1e-6)
        assert abs(fit.prior.mu - 0.3) < 0.05
        assert abs(fit.prior.sigma - 0.8) < 0.05

    def test_uncensored_from_bad_init_converges(self, rng):
        costs = np.exp(0.3 + 0.8 * rng.standard_normal(5000))
        observations = [BidObservation(Outcome.WON, 1e12, float(c)) for c in costs]
        fit = fit_censored(observations, init=LandscapePrior(-2.0, 3.0))
        mu_hat = float(np.mean(np.log(costs)))
        sigma_hat = float(np.std(np.log(costs)))
        assert fit.converged
        assert fit.prior.mu == pytest.approx(mu_hat, abs=1e-6)
        assert fit.prior.sigma == pytest.approx(sigma_hat, abs=1e-6)

    def test_half_censored_recovery(self, rng):
        observations = _sample_observations(rng, 20000, mu=0.3, sigma=0.8, bid=math.exp(0.3))
        censored = sum(o.outcome is Outcome.LOST for o in observations) / len(observations)
        assert 0.4 < censored < 0.6
        fit = fit_censored(observations)
        assert fit.converged
        assert abs(fit.prior.mu - 0.3) < 0.1
        assert abs(fit.prior.sigma - 0.8) < 0.1

    @pytest.mark.parametrize("quantile", [0.05, 0.95])
    def test_bid_at_tail_percentile_recovery(self, rng, quantile):
        # At the 5th percentile 95% of the pool is censored; at the 95th, 5%.
        # 60k rows put the 0.1 tolerance at about four standard errors of the
        # heavily censored fit's mu.
        bid = math.exp(0.3 + 0.8 * NormalDist().inv_cdf(quantile))
        observations = _sample_observations(rng, 60000, mu=0.3, sigma=0.8, bid=bid)
        fit = fit_censored(observations)
        assert fit.converged
        assert fit.iterations <= 50
        assert abs(fit.prior.mu - 0.3) < 0.1
        assert abs(fit.prior.sigma - 0.8) < 0.1

    def test_cli_fit_pool_converges_below_tolerance(self, rng):
        # The pool of tests/test_cli.py::TestFit. An earlier gradient-ascent
        # optimizer ran out its 10,000 iterations on it at gradient norm 1.16e-8.
        observations = _sample_observations(rng, 4000, mu=0.2, sigma=0.6, bid=1.3)
        fit = fit_censored(observations)
        assert fit.converged
        assert fit.iterations <= 20
        won = np.log([o.paid_cost for o in observations if o.outcome is Outcome.WON])
        lost = np.log([o.bid_price for o in observations if o.outcome is Outcome.LOST])
        _, grad, _ = _mean_ll_derivatives(
            won, lost, fit.prior.mu, math.log(fit.prior.sigma), len(observations)
        )
        assert float(np.linalg.norm(grad)) <= 1e-8
        # That optimizer's last iterate, an independent estimate of the optimum.
        assert fit.prior.mu == pytest.approx(0.196691818340874, abs=1e-6)
        assert fit.prior.sigma == pytest.approx(0.5974625271578426, abs=1e-6)

    def test_unreachable_tolerance_stalls_early(self, rng):
        observations = _sample_observations(rng, 4000, mu=0.2, sigma=0.6, bid=1.3)
        fit = fit_censored(observations, grad_tol=1e-30, max_iter=10000)
        assert fit.converged is False
        assert fit.iterations <= 50
        # The stall leaves the iterate at the optimum the default tolerance finds.
        reference = fit_censored(observations)
        assert fit.prior.mu == pytest.approx(reference.prior.mu, abs=1e-9)
        assert fit.prior.sigma == pytest.approx(reference.prior.sigma, abs=1e-9)

    def test_single_won_cost_reports_unbounded_likelihood(self):
        # With one won cost and nothing else the likelihood grows without
        # bound as sigma -> 0; the fit must say so rather than raise or spin.
        fit = fit_censored([BidObservation(Outcome.WON, 2.0, 1.0)])
        assert fit.converged is False
        assert fit.iterations < 10000
        assert fit.prior.sigma < 1e-6

    def test_likelihood_dominates_truth(self, rng):
        observations = _sample_observations(rng, 5000, mu=0.3, sigma=0.8, bid=math.exp(0.5))
        fit = fit_censored(observations)
        won = np.asarray([o.paid_cost for o in observations if o.outcome is Outcome.WON])
        lost = np.asarray([o.bid_price for o in observations if o.outcome is Outcome.LOST])
        ll_truth = censored_log_likelihood(won, lost, 0.3, 0.8)
        assert fit.log_likelihood >= ll_truth - 1e-6

    def test_empty_and_no_wins(self):
        with pytest.raises(EmptyObservationsError):
            fit_censored([])
        with pytest.raises(NoWinObservationsError):
            fit_censored([BidObservation(Outcome.LOST, 1.0)])

    def test_zero_cost_win_rejected(self):
        with pytest.raises(ValueError):
            fit_censored([BidObservation(Outcome.WON, 1.0, 0.0)])

    def test_fit_to_json_keys(self, rng):
        observations = _sample_observations(rng, 500, mu=0.0, sigma=0.5, bid=2.0)
        payload = fit_to_json(fit_censored(observations))
        assert set(payload) == {"mu", "sigma", "converged", "log_likelihood"}


class TestObservations:
    def test_invariants(self):
        with pytest.raises(ValueError):
            BidObservation(Outcome.WON, 1.0, 2.0)  # paid above bid
        with pytest.raises(ValueError):
            BidObservation(Outcome.WON, 1.0)  # missing cost
        with pytest.raises(ValueError):
            BidObservation(Outcome.LOST, 1.0, 0.5)  # loser with cost
        with pytest.raises(ValueError):
            BidObservation(Outcome.LOST, -1.0)

    def test_csv_round_trip(self, tmp_path, rng):
        observations = _sample_observations(rng, 50, mu=0.0, sigma=0.5, bid=1.0)
        path = tmp_path / "observations.csv"
        write_observations_csv(path, observations)
        assert read_observations_csv(path) == observations

    def test_csv_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("outcome,bid_price\nWON,1.0\n")
        with pytest.raises(ValueError, match="paid_cost"):
            read_observations_csv(path)
