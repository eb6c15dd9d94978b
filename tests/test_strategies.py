import gc
import math
import weakref

import numpy as np
import pytest

from dualbid.landscape import (
    BidObservation,
    EmptyObservationsError,
    NoWinObservationsError,
    Outcome,
    split_observations,
)
from dualbid.sim import LinStrategy, OrtbStrategy, make_strategy
from dualbid.strategies import (
    PARAM_BOUNDS,
    OrtbFit,
    OrtbState,
    lin_bid,
    multiplicative_update,
    ortb_bid,
    ortb_fit_c,
    ortb_log_likelihood,
)


class TestMultiplicativeUpdate:
    def test_examples(self):
        assert multiplicative_update(4.0, 3.5, 7.0).value == pytest.approx(2.0)
        assert multiplicative_update(1.0, 3.5, 3.5).value == pytest.approx(1.0)
        assert multiplicative_update(0.1, 3.5, 0.35).value == pytest.approx(1.0)

    def test_fixed_point(self):
        for param in (0.2, 1.0, 17.0):
            assert multiplicative_update(param, 2.0, 2.0).value == pytest.approx(param)

    def test_degenerate_flag(self):
        result = multiplicative_update(3.0, 2.0, 0.0)
        assert result.value == 3.0 and result.degenerate and not result.clamped

    def test_clamped_flag(self):
        result = multiplicative_update(1e6, 100.0, 1e-4)
        assert result.value == 1e6 and result.clamped

    def test_window_won_at_cost_zero_clamps_to_the_lower_bound(self):
        result = multiplicative_update(3.0, 2.0, math.inf)
        assert result.value == PARAM_BOUNDS[0] and result.clamped and not result.degenerate

    def test_nan_roi_is_degenerate(self):
        result = multiplicative_update(3.0, 2.0, math.nan)
        assert result.value == 3.0 and result.degenerate and not result.clamped

    def test_validation(self):
        with pytest.raises(ValueError):
            multiplicative_update(0.0, 1.0, 1.0)
        for target_roi in (-1.0, 0.0):
            with pytest.raises(ValueError):
                multiplicative_update(1.0, target_roi, 1.0)


class TestLinBid:
    def test_examples(self):
        assert lin_bid(1.0, 7.0, 3.5).value == pytest.approx(2.0)
        assert lin_bid(1.0, 3.5, 3.5).value == pytest.approx(1.0)
        assert lin_bid(2.0, 1.75, 3.5).value == pytest.approx(1.0)

    def test_degenerate_returns_base(self):
        result = lin_bid(1.5, 0.0, 3.5)
        assert result.value == 1.5 and result.degenerate

    def test_cap(self):
        result = lin_bid(1.0, 100.0, 1.0, bid_cap=5.0)
        assert result.value == 5.0 and result.clamped

    def test_degenerate_window_keeps_base_under_the_cap(self):
        result = lin_bid(50.0, 0.0, 1.0, bid_cap=5.0)
        assert result.value == 5.0 and result.degenerate and result.clamped
        result = lin_bid(2.0, math.nan, 1.0, bid_cap=5.0)
        assert result.value == 2.0 and result.degenerate and not result.clamped

    def test_window_won_at_cost_zero_bids_the_cap(self):
        for cap, level in ((5.0, 5.0), (1e7, PARAM_BOUNDS[1])):
            result = lin_bid(2.0, math.inf, 1.0, bid_cap=cap)
            assert result.value == level and result.clamped and not result.degenerate

    def test_state_validation(self):
        with pytest.raises(ValueError, match="bid_base"):
            make_strategy("lin", {"bid_base": 0})


class TestOrtbBid:
    def test_examples(self):
        assert ortb_bid(OrtbState(1.0, 1.0), 3.5, 3.5) == pytest.approx(math.sqrt(3.0) - 1.0)
        assert ortb_bid(OrtbState(1.0, 1.0), 0.0, 3.5) == 0.0
        assert ortb_bid(OrtbState(2.0, 0.5), 7.0, 3.5) == pytest.approx(2.0)

    def test_monotone_in_cpi_and_lambda(self):
        cpi = np.linspace(0.0, 5.0, 50)
        bids = ortb_bid(OrtbState(1.0, 0.7), cpi, 2.0)
        assert np.all(np.diff(bids) >= 0.0)
        for a, b in [(0.2, 0.5), (0.5, 2.0)]:
            low = ortb_bid(OrtbState(1.0, a), 2.0, 2.0)
            high = ortb_bid(OrtbState(1.0, b), 2.0, 2.0)
            assert high <= low  # larger shadow price shades harder

    def test_monotone_increasing_in_lambda_inverse(self):
        # Fixed everything else, the bid grows as 1 + 1/lam grows.
        lams = np.linspace(0.1, 5.0, 30)
        bids = [ortb_bid(OrtbState(1.0, float(l)), 2.0, 2.0) for l in lams]
        assert np.all(np.diff(bids) <= 1e-15)

    def test_concave_in_cpi(self):
        cpi = np.linspace(0.0, 5.0, 200)
        bids = ortb_bid(OrtbState(0.8, 0.9), cpi, 2.0)
        second = np.diff(bids, 2)
        assert np.all(second <= 1e-12)

    def test_db_bid_is_linear_by_contrast(self):
        cpi = np.linspace(0.01, 5.0, 100)
        alpha, roi = 1.7, 2.0
        bids = cpi / roi * (1.0 + 1.0 / alpha)
        ratios = bids / cpi
        assert np.max(np.abs(ratios - ratios[0])) <= 1e-12

    def test_state_validation(self):
        with pytest.raises(ValueError):
            OrtbState(0.0, 1.0)
        with pytest.raises(ValueError):
            OrtbState(1.0, 0.0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: OrtbState(c=math.nan, lam=1.0),
        lambda: OrtbState(c=math.inf, lam=1.0),
        lambda: OrtbState(c=1.0, lam=math.nan),
        lambda: OrtbState(c=1.0, lam=math.inf),
        lambda: OrtbStrategy(c0=math.nan),
        lambda: OrtbStrategy(lambda0=math.inf),
        lambda: LinStrategy(bid_base=math.nan),
        lambda: LinStrategy(bid_base=math.inf),
        lambda: lin_bid(1.0, 2.0, math.nan),
        lambda: lin_bid(math.nan, 2.0, 2.0),
        lambda: lin_bid(math.inf, 2.0, 2.0),
        lambda: ortb_bid(OrtbState(1.0, 1.0), 1.0, math.nan),
        lambda: ortb_bid(OrtbState(1.0, 1.0), 1.0, math.inf),
    ],
    ids=[
        "state-c-nan", "state-c-inf", "state-lambda-nan", "state-lambda-inf", "ortb-c0-nan",
        "ortb-lambda0-inf", "lin-base-nan", "lin-base-inf", "lin-bid-target-nan",
        "lin-bid-base-nan", "lin-bid-base-inf", "ortb-bid-target-nan", "ortb-bid-target-inf",
    ],
)
def test_non_finite_parameters_are_rejected(build):
    # `make_strategy` rejects these for CLI input; the Python API must too.
    with pytest.raises(ValueError, match="must be positive and finite"):
        build()


def sample_win_curve_prices(rng, c, n):
    # Inverse CDF of density c/(c+x)^2: x = c u / (1 - u).
    u = rng.uniform(0.0, 1.0, n)
    return c * u / (1.0 - u)


class TestOrtbFitC:
    def test_uncensored_recovery(self):
        rng = np.random.default_rng(21)
        prices = sample_win_curve_prices(rng, 2.0, 100000)
        observations = [BidObservation(Outcome.WON, float(p) + 1.0, float(p)) for p in prices if p > 0]
        fit = ortb_fit_c(*split_observations(observations))
        assert fit.converged
        assert 1.9 <= fit.c <= 2.1

    def test_small_scale_generator(self):
        rng = np.random.default_rng(22)
        prices = sample_win_curve_prices(rng, 0.01, 20000)
        observations = [BidObservation(Outcome.WON, float(p) + 1.0, float(p)) for p in prices if p > 0]
        fit = ortb_fit_c(*split_observations(observations))
        assert fit.c < 0.1

    def test_censored_recovery(self):
        rng = np.random.default_rng(23)
        prices = sample_win_curve_prices(rng, 1.5, 60000)
        bid = 1.5  # censors roughly half the draws
        observations = [
            BidObservation(Outcome.WON, bid, float(p)) if p < bid else BidObservation(Outcome.LOST, bid)
            for p in prices
            if p > 0
        ]
        fit = ortb_fit_c(*split_observations(observations))
        assert abs(fit.c - 1.5) < 0.1

    def test_errors(self):
        with pytest.raises(EmptyObservationsError):
            split_observations([])
        with pytest.raises(NoWinObservationsError):
            ortb_fit_c(np.array([]), np.array([1.0]))

    def test_root_below_the_lower_bracket(self):
        # A won cost far below the bracket end 1e-12 makes the score negative there.
        fit = ortb_fit_c(np.array([1e-300]), np.array([0.5]))
        assert fit == OrtbFit(1e-12, converged=False)

    def test_won_costs_of_zero_are_kept(self):
        # A won cost of 0, a draw that underflowed, adds -2 to the score at
        # every c: wins at cost 0 alone put the root below the bracket. The
        # cold start's 1/0 raises no RuntimeWarning.
        assert ortb_fit_c(np.array([0.0, 0.0]), np.array([])) == OrtbFit(1e-12, converged=False)
        won, lost = np.array([0.0, 1.0]), np.full(4, 0.5)
        fit = ortb_fit_c(won, lost)
        ll = [ortb_log_likelihood(fit.c * r, won, lost) for r in (0.999, 1.0, 1.001)]
        assert fit.converged and ll[1] > max(ll[0], ll[2])
        with pytest.raises(ValueError, match="nonnegative paid costs"):
            ortb_fit_c(np.array([0.5, -1e-300]), lost)

    def test_root_above_the_upper_bracket(self):
        # Lost bids far above the won cost keep the score positive up to the
        # bracket end, 4 * 1.0 + 1 raised by factors of 10 to at least 1e15.
        fit = ortb_fit_c(np.array([1.0]), np.full(5, 1e300))
        assert fit == OrtbFit(5e15, converged=False)

    def test_won_cost_that_overflows_the_search_range_raises(self):
        # 4 * 1e308 + 1 overflows, so the range searched for c has no finite end.
        with pytest.raises(ValueError, match="won costs must be at most 4.49e307"):
            ortb_fit_c(np.array([1e308, 1.0]), np.array([0.5]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_won_cost_raises(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ortb_fit_c(np.array([0.5, bad]), np.array([1.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_lost_bid_raises(self, bad):
        # A NaN lost bid used to fail `lost > 0` and vanish from the fit.
        with pytest.raises(ValueError, match="finite"):
            ortb_fit_c(np.array([0.5]), np.array([1.0, bad]))

    def test_log_likelihood_drops_vacuous_lost_bids(self):
        won = np.array([0.3, 0.9])
        assert ortb_log_likelihood(1.2, won, np.array([0.0, 2.0, -1.0])) == ortb_log_likelihood(
            1.2, won, np.array([2.0])
        )

    def test_leaves_no_cyclic_garbage(self):
        # The fit's arrays must be freed by reference counting alone: with a
        # closure over them, brentq's self-referencing wrapper keeps them
        # alive until the cyclic collector runs.
        rng = np.random.default_rng(24)
        won = sample_win_curve_prices(rng, 1.0, 1000) + 1e-3
        ref = weakref.ref(won)
        gc.disable()
        try:
            assert ortb_fit_c(won, np.full(100, 2.0)).converged
            del won
            assert ref() is None
        finally:
            gc.enable()
