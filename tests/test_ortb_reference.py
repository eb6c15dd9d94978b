"""ORTB's curve fit and replay refits against reference copies of the allocating code.

The reference score and slope form `c / (c + x)` as fresh temporaries on
every evaluation; `ortb_fit_c` forms them in one scratch buffer, and must
give the same bits. Each fitted c carries a root certificate: the score
changes sign across c * (1 -+ 1e-12), a tighter bound than the xtol = rtol =
1e-12 of the brentq reference it is also checked against. The reference
refit concatenates per-epoch observation lists on every window;
`OrtbStrategy` refits from views of append-only arrays, and both must reach
the same c bit for bit.
"""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from dualbid import sim, strategies
from dualbid.landscape import split_observations
from dualbid.sim import MockConfig, OrtbStrategy, gen_mock_instance, run_monte_carlo
from dualbid.strategies import OrtbFit, OrtbState, multiplicative_update, ortb_fit_c

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def bits(x):
    return np.float64(x).tobytes()


def reference_score(c, won, lost, n):
    # n - 2 sum c/(c+won) - sum c/(c+lost): strictly decreasing in c.
    return (
        n
        - 2.0 * float(np.sum(c / (c + won)))
        - (float(np.sum(c / (c + lost))) if lost.size else 0.0)
    )


def reference_slope(c, won, lost):
    # -(2 sum a(1-a) + sum b(1-b)) / c, with each sum a(1-a) as sum a - a.a.
    a = c / (c + won)
    curvature = 2.0 * (float(np.sum(a)) - float(np.dot(a, a)))
    if lost.size:
        b = c / (c + lost)
        curvature += float(np.sum(b)) - float(np.dot(b, b))
    return -curvature / c


def reference_log_likelihood(c, won, lost):
    ll = won.size * math.log(c) - 2.0 * float(np.sum(np.log(c + won)))
    if lost.size:
        ll += lost.size * math.log(c) - float(np.sum(np.log(c + lost)))
    return ll


def brentq_fit(won_costs, lost_bids):
    """The brentq fit on the cold bracket: returns (c, converged)."""
    won = np.asarray(won_costs, dtype=float)
    lost = np.asarray(lost_bids, dtype=float)
    lost = lost[lost > 0.0]
    args = (won, lost, won.size + lost.size)
    lo = 1e-12
    hi = 4.0 * float(np.max(won)) + 1.0
    while reference_score(hi, *args) > 0.0 and hi < 1e15:
        hi *= 10.0
    if reference_score(hi, *args) > 0.0:
        return hi, False
    return float(brentq(reference_score, lo, hi, args=args, xtol=1e-12, rtol=1e-12)), True


def assert_root_certificate(c, won_costs, lost_bids):
    won = np.asarray(won_costs, dtype=float)
    lost = np.asarray(lost_bids, dtype=float)
    lost = lost[lost > 0.0]
    n = won.size + lost.size
    assert reference_score(c * (1.0 - 1e-12), won, lost, n) > 0.0
    assert reference_score(c * (1.0 + 1e-12), won, lost, n) < 0.0


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
            fit = ortb_fit_c(won, lost, c if self.fits else None)
            self.fits.append((fit.c, fit.converged, won, lost))
            c = fit.c
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
            start = self.state.c if self._refitted else None
            fit = ortb_fit_c(won, self._lost_bids.view, start)
            self.fits.append((fit.c, fit.converged))
        super()._update(actual_roi)


class CountingScore:
    """Stands in for `strategies._ortb_score` and records each c it is asked for."""

    def __init__(self, monkeypatch):
        self.calls = []
        self._score = strategies._ortb_score
        monkeypatch.setattr(strategies, "_ortb_score", self)

    def __call__(self, c, *args):
        self.calls.append(c)
        return self._score(c, *args)


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
IDS = [p[0] for p in POOLS]


@pytest.mark.parametrize("label, won, lost", POOLS, ids=IDS)
def test_fit_matches_reference(label, won, lost):
    fit = ortb_fit_c(won, lost)
    assert fit.converged
    assert_root_certificate(fit.c, won, lost)
    c, converged = brentq_fit(won, lost)
    assert converged
    assert fit.c == pytest.approx(c, rel=1e-11, abs=0.0)
    positive = lost[lost > 0.0]
    assert strategies.ortb_log_likelihood(fit.c, won, lost) == reference_log_likelihood(
        fit.c, won, positive
    )


@pytest.mark.parametrize("label, won, lost", POOLS, ids=IDS)
def test_score_matches_reference(label, won, lost):
    positive = lost[lost > 0.0]
    n = won.size + positive.size
    scratch = np.empty(max(won.size, positive.size))
    buffers = (scratch[: won.size], scratch[: positive.size])
    for c in (1e-12, 1e-3, 0.7, 2.5, 1e15):
        value, slope = strategies._ortb_score(c, won, positive, n, *buffers)
        assert bits(value) == bits(reference_score(c, won, positive, n))
        assert bits(slope) == bits(reference_slope(c, won, positive))
        # The slope is the score's derivative, -(2 sum a(1-a) + sum b(1-b)) / c.
        a, b = c / (c + won), c / (c + positive)
        exact = -(2.0 * float(np.sum(a * (1.0 - a))) + float(np.sum(b * (1.0 - b)))) / c
        assert slope == pytest.approx(exact, rel=1e-9)


@pytest.mark.parametrize("label, won, lost", POOLS, ids=IDS)
@pytest.mark.parametrize("start", [None, 1e-12, 1e-6, 0.99, 1.01, 40.0, 1e15, 1e17])
def test_any_start_reaches_the_certified_root(label, won, lost, start, monkeypatch):
    # A start is relative to the root (0.99, 1.01) or absolute, and those
    # outside [1e-12, hi] are clamped into it.
    root = ortb_fit_c(won, lost).c
    if start in (0.99, 1.01):
        start *= root
    counter = CountingScore(monkeypatch)
    fit = ortb_fit_c(won, lost, start)
    assert fit.converged
    assert_root_certificate(fit.c, won, lost)
    assert fit.c == pytest.approx(root, rel=1e-12, abs=0.0)
    assert 0 < len(counter.calls) <= 20


@pytest.mark.parametrize("label, won, lost", POOLS, ids=IDS)
def test_fit_evaluates_each_c_once(label, won, lost, monkeypatch):
    root = ortb_fit_c(won, lost).c
    counter = CountingScore(monkeypatch)
    for start in (None, 1.05 * root):
        counter.calls.clear()
        ortb_fit_c(won, lost, start)
        assert counter.calls
        assert len(set(counter.calls)) == len(counter.calls)


@pytest.mark.parametrize(
    "won, lost, start, expected",
    [([1e-300], [0.5], 3.0, OrtbFit(1e-12, False)), ([1.0], [1e300] * 5, 1e-12, OrtbFit(5e15, False))],
    ids=["below", "above"],
)
def test_unconverged_ends_from_a_warm_start(won, lost, start, expected):
    # `test_strategies` checks both ends from the cold start.
    assert ortb_fit_c(np.array(won), np.array(lost), start) == expected


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
    assert [bits(c) for c, _ in recording.fits] == [bits(c) for c, *_ in reference.fits]
    assert [conv for _, conv in recording.fits] == [conv for _, conv, *_ in reference.fits]
    assert actual.per_strategy_metrics == expected.per_strategy_metrics
    assert actual.per_constraint == expected.per_constraint
    for c, converged, won, lost in reference.fits:
        assert converged
        assert_root_certificate(c, won, lost)
        assert c == pytest.approx(brentq_fit(won, lost)[0], rel=1e-11, abs=0.0)


def test_refits_evaluate_the_score_few_times(monkeypatch):
    # Each refit after the first starts from the c before it. N=2000, 60
    # epochs and the default window give one refit per epoch.
    instance = gen_mock_instance(MockConfig(n_impressions=2000, seed=5))
    starts = []

    def recording_fit(won, lost, start):
        starts.append(start)
        return ortb_fit_c(won, lost, start)

    monkeypatch.setattr(sim, "ortb_fit_c", recording_fit)
    counter = CountingScore(monkeypatch)
    run_monte_carlo(instance, OrtbStrategy(), epochs=60, seed=5)
    assert len(starts) == 60
    assert starts[0] is None and None not in starts[1:]
    assert len(counter.calls) <= 5 * len(starts)


def test_cold_fits_of_the_benchmark_pools_evaluate_the_score_few_times(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    counter = CountingScore(monkeypatch)
    for seed in range(5):
        for k, (share, per_row) in enumerate(workloads.FIT_POOLS):
            rng = np.random.default_rng([seed, k])
            _, _, observations = workloads.observation_pool(rng, workloads.FIT_ROWS, share, per_row)
            won, lost = split_observations(observations)
            counter.calls.clear()
            fit = ortb_fit_c(won, lost)
            assert fit.converged
            assert 0 < len(counter.calls) <= 10, (seed, k)


def test_growing_array_keeps_order_across_regrowths():
    buffer = sim._GrowingArray()
    chunks = [np.arange(k, dtype=float) + 10 * k for k in (0, 3, 1, 7, 0, 20, 2)]
    for chunk in chunks:
        buffer.extend(chunk)
    assert buffer.view.tobytes() == np.concatenate(chunks).tobytes()
