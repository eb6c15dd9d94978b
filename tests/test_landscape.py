import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import log_ndtr

from dualbid.landscape import (
    BidObservation,
    EmptyObservationsError,
    LandscapePrior,
    NDTR_TAIL,
    NoWinObservationsError,
    Outcome,
    censored_log_likelihood,
    expected_cost,
    fit_censored,
    fit_to_json,
    mean,
    pdf,
    prior_arrays,
    read_observations_csv,
    win_prob,
    win_prob_cost,
    write_observations_csv,
    _mean_ll_derivatives,
)

STANDARD = LandscapePrior(0.0, 1.0)


def records(log):
    """The rows of an `ObservationLog` as `BidObservation`s."""
    columns = (log.won.tolist(), log.bid_price.tolist(), log.paid_cost.tolist())
    return [
        BidObservation(Outcome.WON, bid, cost) if won else BidObservation(Outcome.LOST, bid)
        for won, bid, cost in zip(*columns)
    ]


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
        # Both branches of the kernel on priors whose mean is still finite: the
        # plain product, and the log-space form with a tail bound of +inf on every row.
        mu, sigma, means, tail = prior_arrays(np.array([-1.0, 0.5, 2.0]), np.array([30.0, 5.0, 0.7]))
        assert tail[:, 0].tolist() == [NDTR_TAIL] * 3
        bp = np.exp(mu + sigma * np.linspace(-5.0, 5.0, 11))
        plain = win_prob_cost(bp, mu, sigma, means, None, np.empty((2, *bp.shape)))
        everywhere = np.full(mu.shape, np.inf)
        log_form = win_prob_cost(bp, mu, sigma, means, everywhere, np.empty((2, *bp.shape)))
        assert np.all(plain[1] > 0.0)
        np.testing.assert_array_equal(log_form[0], plain[0])
        np.testing.assert_allclose(log_form[1], plain[1], rtol=1e-9)

    def test_prior_arrays_store_an_overflowed_mean_as_zero_and_mark_it(self):
        priors = [STANDARD, LandscapePrior(-1.0, 40.0), LandscapePrior(0.3, 0.2)]
        mu, sigma = np.array([0.0, -1.0, 0.3]), np.array([1.0, 40.0, 0.2])
        *stacked, tail = prior_arrays(mu, sigma)
        assert [a.shape for a in stacked] == [(3, 1)] * 3 and tail.shape == (3, 1)
        assert np.shares_memory(stacked[0], mu) and np.shares_memory(stacked[1], sigma)
        assert tail[:, 0].tolist() == [NDTR_TAIL, math.inf, NDTR_TAIL]
        assert stacked[2][:, 0].tolist() == [mean(STANDARD), 0.0, mean(priors[2])]
        assert stacked[0][:, 0].tolist() == [0.0, -1.0, 0.3]
        assert stacked[1][:, 0].tolist() == [1.0, 40.0, 0.2]
        *empty, tail = prior_arrays(np.zeros(0), np.zeros(0))
        assert [a.shape for a in empty] == [(0, 1)] * 3 and tail is None

    def test_tail_bounds_only_where_some_mean_is_above_one(self):
        # Means at most 1 need no tail bound; an overflowed mean takes the log
        # form in every cell, a mean above 1 below `NDTR_TAIL`, and one at most 1 never.
        mu, sigma = np.array([-2.0, -0.5]), np.array([0.9, 1.0])
        assert prior_arrays(mu, sigma)[3] is None
        mu, sigma = np.array([-2.0, 0.0, -1.0]), np.array([0.9, 37.0, 40.0])
        assert prior_arrays(mu, sigma)[3][:, 0].tolist() == [-math.inf, NDTR_TAIL, math.inf]

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


def _mean_gradient_mu_log_sigma(won_log, lost_log, mu, sigma):
    """Gradient of the mean censored log-likelihood in (mu, ln sigma), written out.

    A won row with z = (ln cost - mu) / sigma contributes (z / sigma, z^2 - 1); a
    lost row with z = (ln bid - mu) / sigma and hazard h = phi(z) / (1 - Phi(z))
    contributes (h / sigma, h z).
    """
    zw = (won_log - mu) / sigma
    zl = (lost_log - mu) / sigma
    hazard = np.exp(-0.5 * zl * zl - 0.5 * math.log(2.0 * math.pi) - log_ndtr(-zl))
    g_mu = (np.sum(zw) + np.sum(hazard)) / sigma
    g_t = np.sum(zw * zw) - zw.size + np.sum(hazard * zl)
    return np.array([g_mu, g_t]) / (won_log.size + lost_log.size)


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
        grad = _mean_gradient_mu_log_sigma(won, lost, fit.prior.mu, fit.prior.sigma)
        assert float(np.linalg.norm(grad)) <= 1e-8
        assert fit.grad_norm == pytest.approx(float(np.linalg.norm(grad)), abs=1e-12)
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
        assert set(payload) == {
            "mu", "sigma", "converged", "log_likelihood", "iterations", "grad_norm"
        }


@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(50, 3000),
    censored=st.floats(0.05, 0.95),
    per_row=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_fit_is_a_local_maximum_of_the_censored_likelihood(seed, rows, censored, per_row):
    # Competing bids from a log-normal landscape, censored at bids that lose
    # about `censored` of the auctions, either constant or scattered per row.
    rng = np.random.default_rng(seed)
    mu, sigma = rng.uniform(-0.5, 0.5), rng.uniform(0.4, 0.7)
    competing = np.exp(mu + sigma * rng.standard_normal(rows))
    level = mu + sigma * NormalDist().inv_cdf(1.0 - censored)
    bids = np.exp(level + (0.5 * rng.standard_normal(rows) if per_row else np.zeros(rows)))
    wins = competing < bids
    won, lost = competing[wins], bids[~wins]
    # Below two distinct won costs the likelihood can grow without bound.
    assume(won.size >= 2)
    observations = [BidObservation(Outcome.WON, b, x) for x, b in zip(won, bids[wins])]
    observations += [BidObservation(Outcome.LOST, b) for b in lost]
    fit = fit_censored(observations)
    assert fit.converged
    best = censored_log_likelihood(won, lost, fit.prior.mu, fit.prior.sigma)
    for d_mu in (-1e-4, 0.0, 1e-4):
        for d_t in (-1e-4, 0.0, 1e-4):
            if d_mu or d_t:
                sigma_n = fit.prior.sigma * math.exp(d_t)
                assert best >= censored_log_likelihood(won, lost, fit.prior.mu + d_mu, sigma_n)


@given(
    seed=st.integers(0, 2**32 - 1),
    n_won=st.integers(1, 20),
    n_lost=st.integers(0, 50),
    delta=st.floats(-5.0, 5.0),
    gamma=st.floats(0.05, 20.0),
)
@settings(max_examples=200, deadline=None)
def test_hessian_is_negative_definite_once_a_row_is_won(seed, n_won, n_lost, delta, gamma):
    # Olsen's concavity, which makes every Newton step of the fit an ascent step.
    rng = np.random.default_rng(seed)
    won_y = rng.standard_normal(n_won)
    lost_y = 2.0 * rng.standard_normal(n_lost)
    won = (n_won, float(np.sum(won_y)), float(np.sum(won_y * won_y)))
    _, _, hess = _mean_ll_derivatives(won, lost_y, delta, gamma, n_won + n_lost)
    assert np.linalg.det(hess) > 0.0
    assert np.trace(hess) < 0.0


@pytest.mark.parametrize("z", [1e2, 1e3, 1e4, 1e5])
def test_lost_row_hessian_term_is_accurate_far_in_the_tail(z):
    # A lost row at z contributes -h'(z) = -h (h - z) to the (delta, delta)
    # entry, and h'(z) = 1 - 1/z^2 + 6/z^4 + O(1/z^6) for large z.
    _, _, hess = _mean_ll_derivatives((0, 0.0, 0.0), np.array([z]), 0.0, 1.0, 1)
    assert -hess[0, 0] == pytest.approx(1.0 - 1.0 / z**2 + 6.0 / z**4, rel=1e-6)


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
        assert records(read_observations_csv(path)) == observations

    def test_csv_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("outcome,bid_price\nWON,1.0\n")
        with pytest.raises(ValueError, match="paid_cost"):
            read_observations_csv(path)
