"""ORTB's curve fit and replay refits against written-out reference copies.

The reference score and slope are written apart from `_ortb_score`, which
must give the same bits. Each fitted c carries a root certificate: the score
changes sign across c * (1 -+ 1e-12), a tighter bound than the xtol = rtol =
1e-12 of the brentq reference it is also checked against. The reference
refit concatenates per-epoch observation lists on every window and fits
them with `ortb_fit_c`; `OrtbStrategy` refits from power sums of its log
about an anchor (`strategies._OrtbMoments`). Each of its refits carries the
certificate on the whole log, lies within `refit_rtol` of the full-log fit,
and the replay's metrics equal the reference's exactly: no auction flips.
"""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import brentq

from dualbid import cli, sim, strategies
from dualbid.dsp import DspChoiceModel
from dualbid.landscape import split_observations
from dualbid.sim import EpochFeedback, MockConfig, OrtbStrategy, gen_mock_instance, run_monte_carlo
from dualbid.strategies import (
    _ANCHOR_RADIUS,
    _SERIES_ORDER,
    OrtbFit,
    OrtbState,
    _OrtbMoments,
    multiplicative_update,
    ortb_fit_c,
)

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


#: Relative truncation error of the power series within the anchor radius.
SERIES_RTOL = _ANCHOR_RADIUS ** (_SERIES_ORDER + 1) / (1.0 - _ANCHOR_RADIUS)


def refit_rtol(c, won_costs, lost_bids):
    """How far, relative to c, a refit from power sums may lie from the full-log fit.

    The sums' score n - c P(a - c) differs from the exact score by at most
    SERIES_RTOL of c P, which is at most 2n, and each score rounds by about
    log2(n) units of 2^-53 of n. Both fits end at a root of their own score,
    so they differ by that error over the slope: relative to c, by
    kappa (SERIES_RTOL + 2 (1 + log2 n) 2^-53), with kappa = 2n / |c S'(c)|.
    """
    won = np.asarray(won_costs, dtype=float)
    lost = np.asarray(lost_bids, dtype=float)
    lost = lost[lost > 0.0]
    n = won.size + lost.size
    kappa = 2.0 * n / abs(c * reference_slope(c, won, lost))
    return kappa * (SERIES_RTOL + 2.0 * (1.0 + math.log2(n)) * 2.0**-53)


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
    """ORTB that records each refit's start, c and log."""

    def _restart(self):
        super()._restart()
        self.fits = []

    def _update(self, actual_roi):
        start = self.state.c if self._log.anchor is not None else None
        super()._update(actual_roi)
        won, lost = self._log.observations()
        if won.size:
            self.fits.append((start, self.state.c, won, lost))


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
    for c in (1e-12, 1e-3, 0.7, 2.5, 1e15):
        value, slope = strategies._ortb_score(c, won, positive, n)
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
    # 30 impressions per epoch and a refit after every second epoch.
    instance = gen_mock_instance(MockConfig(n_impressions=30, seed=3))
    params = {"update_window": 60}
    reference = ReferenceOrtb(**params)
    recording = RecordingOrtb(**params)
    expected = run_monte_carlo(instance, reference, epochs=40, seed=7)
    actual = run_monte_carlo(instance, recording, epochs=40, seed=7)

    assert len(recording.fits) == len(reference.fits) == 20
    assert actual.per_strategy_metrics == expected.per_strategy_metrics
    assert actual.per_constraint == expected.per_constraint
    assert recording.fits[0][0] is None and None not in [f[0] for f in recording.fits[1:]]
    for start, c, won, lost in recording.fits:
        assert_root_certificate(c, won, lost)
        full_log = ortb_fit_c(won, lost, start)
        assert full_log.converged
        assert c == pytest.approx(full_log.c, rel=refit_rtol(c, won, lost), abs=0.0)
    for c, converged, won, lost in reference.fits:
        assert converged
        assert_root_certificate(c, won, lost)
        assert c == pytest.approx(brentq_fit(won, lost)[0], rel=1e-11, abs=0.0)


def test_refits_evaluate_the_score_few_times(monkeypatch):
    # N=2000, 60 epochs and the default window give one refit per epoch. The
    # first is a cold `ortb_fit_c`; each later one reads the power sums from
    # the c before it, and re-anchors only while c drifts out of the radius.
    instance = gen_mock_instance(MockConfig(n_impressions=2000, seed=5))
    cold_starts, warm_starts, anchors = [], [], []

    def recording_fit(won, lost, start=None):
        cold_starts.append(start)
        return ortb_fit_c(won, lost, start)

    def recording_refit(self, start):
        warm_starts.append(start)
        return refit(self, start)

    def recording_anchor(self, a):
        anchors.append(a)
        anchor_at(self, a)

    def recording_score(self, c):
        moment_scores.append(c)
        return score(self, c)

    moment_scores = []
    refit, anchor_at, score = _OrtbMoments.fit, _OrtbMoments.anchor_at, _OrtbMoments.score
    monkeypatch.setattr(sim, "ortb_fit_c", recording_fit)
    monkeypatch.setattr(_OrtbMoments, "fit", recording_refit)
    monkeypatch.setattr(_OrtbMoments, "anchor_at", recording_anchor)
    monkeypatch.setattr(_OrtbMoments, "score", recording_score)
    counter = CountingScore(monkeypatch)
    run_monte_carlo(instance, OrtbStrategy(), epochs=60, seed=5)
    assert cold_starts == [None]
    assert len(warm_starts) == 59 and None not in warm_starts
    assert len(counter.calls) + len(moment_scores) <= 5 * 60
    # The anchor the cold fit sets, and at most four re-anchors as c drifts.
    assert 1 <= len(anchors) <= 5


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


#: A bound on the relative truncation error of the moments' slope within the
#: anchor radius: with rho = (a - c) / (a + x) and |rho| <= r, each
#: observation's slope term errs by at most 2 r^(K+1) + (K+1)(1+r) r^K of
#: 1/(c+x).
SLOPE_RTOL = 2.0 * _ANCHOR_RADIUS ** (_SERIES_ORDER + 1) + (
    (_SERIES_ORDER + 1) * (1.0 + _ANCHOR_RADIUS) * _ANCHOR_RADIUS**_SERIES_ORDER
)

prices = st.floats(1e-6, 1e3)


def test_series_constants_truncate_below_rounding():
    assert SERIES_RTOL < 2.0**-53


def anchored(won, lost, a):
    moments = _OrtbMoments()
    moments.add(np.array(won, dtype=float), np.array(lost, dtype=float))
    moments.anchor_at(a)
    return moments


def exact_score(c, won, lost):
    n = won.size + lost.size
    return strategies._ortb_score(c, won, lost, n)


@given(
    won=st.lists(prices, min_size=1, max_size=60),
    lost=st.lists(prices, max_size=60),
    a=st.floats(1e-4, 1e2),
    u=st.floats(-0.99, 0.99),
)
@settings(max_examples=300, deadline=None)
def test_moment_score_matches_exact_score_within_the_radius(won, lost, a, u):
    # At r = |u| * _ANCHOR_RADIUS, the score n - c P errs by at most
    # SERIES_RTOL of c P <= 2n and the slope by SLOPE_RTOL of P, plus
    # rounding of about log2(n) units of 2^-53 per sum.
    won, lost = np.array(won), np.array(lost, dtype=float)
    c = a + u * _ANCHOR_RADIUS * (a + min(won.min(), lost.min(initial=math.inf)))
    assume(c > 0.0)
    moments = anchored(won, lost, a)
    value, slope = moments.score(c)
    assert moments.anchor == a
    exact_value, exact_slope = exact_score(c, won, lost)
    n = won.size + lost.size
    rounding = (1.0 + math.log2(n)) * 2.0**-53
    p = 2.0 * float(np.sum(1.0 / (c + won))) + float(np.sum(1.0 / (c + lost)))
    assert abs(value - exact_value) <= 2.0 * n * (SERIES_RTOL + 2.0 * rounding)
    assert abs(slope - exact_slope) <= p * (SLOPE_RTOL + 4.0 * rounding)


@given(
    windows=st.lists(
        st.tuples(st.lists(prices, max_size=40), st.lists(prices, max_size=40)),
        min_size=1, max_size=6,
    ),
    a=st.floats(1e-4, 1e2),
)
@settings(max_examples=100, deadline=None)
def test_windows_added_one_by_one_match_one_anchor_over_the_log(windows, a):
    one_by_one = _OrtbMoments()
    one_by_one.add(*map(np.array, windows[0]))
    one_by_one.anchor_at(a)
    for won, lost in windows[1:]:
        one_by_one.add(np.array(won), np.array(lost))
        one_by_one._sum_new()
    won = np.concatenate([np.array(w, dtype=float) for w, _ in windows])
    lost = np.concatenate([np.array(l, dtype=float) for _, l in windows])
    at_once = anchored(won, lost, a)
    logged = one_by_one.observations()
    assert logged[0].tobytes() == won.tobytes()
    assert logged[1].tobytes() == lost.tobytes()
    # The same positive terms, summed in another order: each sum of n of
    # them rounds by at most (n - 1) units of 2^-53.
    n = won.size + lost.size
    np.testing.assert_allclose(one_by_one._sums, at_once._sums, rtol=2.0 * n * 2.0**-53, atol=0.0)


@pytest.mark.parametrize("ratio", [0.5, 1.2, 1e3, 1e-3])
def test_an_iterate_past_the_radius_reanchors(ratio):
    rng = np.random.default_rng(8)
    won, lost = win_curve_prices(rng, 0.2, 500), rng.uniform(0.05, 1.0, 300)
    moments = anchored(won, lost, 0.2)
    # r = |c - a| / (a + min x) > _ANCHOR_RADIUS at each ratio.
    c = 0.2 * ratio
    value, slope = moments.score(c)
    assert moments.anchor == c
    exact_value, exact_slope = exact_score(c, won, lost)
    assert value == pytest.approx(exact_value, rel=1e-12, abs=1e-12 * won.size)
    assert slope == pytest.approx(exact_slope, rel=1e-12)


def test_refits_certified_when_c_moves_by_orders_of_magnitude():
    # Each window holds ten times the observations of all before it, at a
    # price scale far from theirs, so each refit moves c far from the c it
    # starts at, and its Newton iterates re-anchor the sums.
    instance = gen_mock_instance(MockConfig(n_impressions=10, seed=0))
    ortb = OrtbStrategy(update_window=1)
    ortb.reset(DspChoiceModel(instance))
    rng = np.random.default_rng(4)
    cs, won_log, lost_log = [], [], []
    for size, scale in [(10, 1e-3), (100, 1e3), (1000, 1e-2), (10_000, 1e2), (100_000, 1e-4)]:
        competing = win_curve_prices(rng, scale, size)
        bids = win_curve_prices(rng, scale, size)
        won = bids > competing
        paid = np.where(won, competing, 0.0)
        ortb.end_epoch(EpochFeedback(bids, won, paid, revenue=2.0 * paid.sum(), cost=paid.sum()))
        won_log.append(paid[won])
        lost_log.append(bids[~won])
        cs.append(ortb.state.c)
        assert_root_certificate(ortb.state.c, np.concatenate(won_log), np.concatenate(lost_log))
    moves = np.abs(np.diff(np.log10(cs)))
    assert np.all(moves > 1.0), cs


@pytest.mark.parametrize("seed", range(4))
def test_replay_outputs_equal_the_full_log_reference(seed, tmp_path, monkeypatch):
    """`compare` and `simulate --strategy ortb` write the bytes the full-log refit writes.

    The reference replays refit with `ortb_fit_c` over the whole log
    (`ReferenceOrtb`), so this shows that no auction of these replays flips
    under the refit from power sums.
    """
    gen = tmp_path / "gen"
    assert cli.main(["gen", "--out-dir", str(gen), "--n-impressions", "2000", "--seed", str(seed)]) == 0
    replay = ["--instance", str(gen / "instance.json"), "--seed", str(seed)]
    commands = {
        "compare": ["compare", *replay, "--strategies", "db_single,db_multi,ortb,lin"],
        "simulate": ["simulate", *replay, "--strategy", "ortb"],
    }

    def outputs(out_dir):
        return {p.name: p.read_bytes() for p in out_dir.iterdir() if p.name != "manifest.json"}

    for epochs in ("60", "120"):
        for name, argv in commands.items():
            with monkeypatch.context() as patch:
                patch.setattr(sim, "OrtbStrategy", ReferenceOrtb)
                expected_dir = tmp_path / f"reference_{name}_{epochs}"
                assert cli.main([*argv, "--epochs", epochs, "--out-dir", str(expected_dir)]) == 0
            actual_dir = tmp_path / f"{name}_{epochs}"
            assert cli.main([*argv, "--epochs", epochs, "--out-dir", str(actual_dir)]) == 0
            assert outputs(actual_dir) == outputs(expected_dir), (name, epochs)
