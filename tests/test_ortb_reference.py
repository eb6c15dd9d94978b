"""ORTB's curve fit and replay refits against reference copies of the allocating code.

The reference score forms `c / (c + x)` as fresh temporaries on every
evaluation, the reference fit evaluates the bracket end again before handing
it to brentq, and the reference refit concatenates per-epoch observation
lists on every window. `ortb_fit_c` works in one scratch buffer and
`OrtbStrategy` refits from views of append-only arrays; both must reproduce
the reference bit for bit.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from dualbid import sim, strategies
from dualbid.sim import MockConfig, OrtbStrategy, gen_mock_instance, run_monte_carlo
from dualbid.strategies import OrtbFit, OrtbState, multiplicative_update, ortb_fit_c


def reference_score(c, won, lost, n):
    # n - 2 sum c/(c+won) - sum c/(c+lost): strictly decreasing in c.
    return (
        n
        - 2.0 * float(np.sum(c / (c + won)))
        - (float(np.sum(c / (c + lost))) if lost.size else 0.0)
    )


def reference_log_likelihood(c, won, lost):
    ll = won.size * math.log(c) - 2.0 * float(np.sum(np.log(c + won)))
    if lost.size:
        ll += lost.size * math.log(c) - float(np.sum(np.log(c + lost)))
    return ll


def reference_fit(won_costs, lost_bids):
    """The allocating fit: returns (c, converged, log-likelihood at c)."""
    won = np.asarray(won_costs, dtype=float)
    lost = np.asarray(lost_bids, dtype=float)
    lost = lost[lost > 0.0]
    args = (won, lost, won.size + lost.size)
    lo = 1e-12
    hi = 4.0 * float(np.max(won)) + 1.0
    while reference_score(hi, *args) > 0.0 and hi < 1e15:
        hi *= 10.0
    if reference_score(hi, *args) > 0.0:
        return hi, False, reference_log_likelihood(hi, won, lost)
    c_hat = float(brentq(reference_score, lo, hi, args=args, xtol=1e-12, rtol=1e-12))
    return c_hat, True, reference_log_likelihood(c_hat, won, lost)


class ReferenceOrtb(OrtbStrategy):
    """ORTB with the concatenating refit over per-epoch observation lists."""

    def _restart(self):
        self.state = OrtbState(c=self._c0, lam=self._lambda0)
        self._won_lists, self._lost_lists = [], []
        self.fits = []

    def _observe(self, feedback):
        active = feedback.bids > 0.0
        self._won_lists.append(feedback.paid[active & feedback.won])
        self._lost_lists.append(feedback.bids[active & ~feedback.won])

    def _update(self, actual_roi):
        won, lost = np.concatenate(self._won_lists), np.concatenate(self._lost_lists)
        c = self.state.c
        if won.size:
            c, converged, _ = reference_fit(won, lost)
            self.fits.append((c, converged))
        lam = multiplicative_update(self.state.lam, self.target_roi, actual_roi).value
        self.state = OrtbState(c=c, lam=lam)


class RecordingOrtb(OrtbStrategy):
    """ORTB that records each refit's result and each regrowth of its buffers."""

    def _restart(self):
        super()._restart()
        self.fits, self.regrowths = [], 0

    def _observe(self, feedback):
        storage = (self._won_costs._data, self._lost_bids._data)
        super()._observe(feedback)
        self.regrowths += storage[0] is not self._won_costs._data
        self.regrowths += storage[1] is not self._lost_bids._data

    def _update(self, actual_roi):
        won = self._won_costs.view
        if won.size:
            fit = ortb_fit_c(won, self._lost_bids.view)
            self.fits.append((fit.c, fit.converged))
        super()._update(actual_roi)


def win_curve_prices(rng, c, n):
    # Inverse CDF of density c/(c+x)^2, kept strictly positive.
    u = rng.uniform(0.0, 1.0, n)
    return c * u / (1.0 - u) + 1e-9


def pools():
    rng = np.random.default_rng(31)
    won = win_curve_prices(rng, 1.5, 400)
    yield "no_lost_bids", won, np.array([])
    yield "lost_bids_at_or_below_zero", won, np.concatenate(
        [np.array([0.0, -1.0, 0.0]), rng.uniform(0.5, 3.0, 200), np.array([-0.25])]
    )
    yield "only_vacuous_lost_bids", won[:50], np.array([0.0, -2.0])
    yield "single_won_row", np.array([0.7]), np.array([])
    yield "single_won_row_with_lost", np.array([0.7]), np.array([0.2, 1.9])
    yield "censored_1e5_rows", win_curve_prices(rng, 0.8, 60_000), rng.uniform(0.1, 4.0, 40_000)
    yield "small_scale", win_curve_prices(rng, 0.01, 3000), rng.uniform(0.001, 0.05, 500)


POOLS = list(pools())


@pytest.mark.parametrize("label, won, lost", POOLS, ids=[p[0] for p in POOLS])
def test_fit_matches_reference(label, won, lost):
    c, converged, ll = reference_fit(won, lost)
    fit = ortb_fit_c(won, lost)
    assert fit == OrtbFit(c, converged)
    assert np.float64(fit.c).tobytes() == np.float64(c).tobytes()
    assert strategies.ortb_log_likelihood(fit.c, won, lost) == ll


@pytest.mark.parametrize("label, won, lost", POOLS, ids=[p[0] for p in POOLS])
def test_fit_evaluates_each_c_once(label, won, lost, monkeypatch):
    score = strategies._ortb_score
    computed = []

    def counting_score(c, *args):
        known = args[-1]
        if c not in known:
            computed.append(c)
        return score(c, *args)

    monkeypatch.setattr(strategies, "_ortb_score", counting_score)
    ortb_fit_c(won, lost)
    assert computed
    assert len(set(computed)) == len(computed)


def test_replay_refits_match_concatenating_reference():
    # 30 impressions per epoch and a refit after every second epoch: the
    # observation buffers start empty and regrow as the replay runs.
    instance = gen_mock_instance(MockConfig(n_impressions=30, seed=3))
    params = {"update_window": 60}
    reference = ReferenceOrtb(**params)
    recording = RecordingOrtb(**params)
    expected = run_monte_carlo(instance, reference, epochs=40, seed=7)
    actual = run_monte_carlo(instance, recording, epochs=40, seed=7)

    assert recording.regrowths >= 6  # at least three times per buffer
    assert len(recording.fits) == len(reference.fits) == 20
    assert [np.float64(c).tobytes() for c, _ in recording.fits] == [
        np.float64(c).tobytes() for c, _ in reference.fits
    ]
    assert [conv for _, conv in recording.fits] == [conv for _, conv in reference.fits]
    assert actual.per_strategy_metrics == expected.per_strategy_metrics
    assert actual.per_constraint == expected.per_constraint


def test_growing_array_keeps_order_across_regrowths():
    buffer = sim._GrowingArray()
    chunks = [np.arange(k, dtype=float) + 10 * k for k in (0, 3, 1, 7, 0, 20, 2)]
    for chunk in chunks:
        buffer.extend(chunk)
    assert buffer.view.tobytes() == np.concatenate(chunks).tobytes()
