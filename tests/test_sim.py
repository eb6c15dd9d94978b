import dataclasses
import json

import numpy as np
import pytest

from dualbid import sim
from dualbid.dsp import DspChoiceModel
from dualbid.landscape import BidObservation, LandscapePrior, Outcome, split_observations
from dualbid.mmkp import dual_objective, sgd_solve
from dualbid.sim import (
    FixedAlphaStrategy,
    InstanceFormatError,
    InvalidRangeError,
    MockConfig,
    compare_strategies,
    gen_mock_instance,
    instance_from_json,
    instance_target_roi,
    instance_to_json,
    make_strategy,
    run_expectation,
    run_monte_carlo,
)
from dualbid.strategies import ortb_fit_c
from instance_rows import with_rows
from test_ortb_reference import assert_root_certificate, refit_rtol
from dualbid.utility import ConstraintKind, ObjectiveKind, PaymentMode


class TestGenMockInstance:
    def test_default_shape_matches_standard_case(self):
        instance = gen_mock_instance(MockConfig())
        assert len(instance.impressions) == 200
        assert [ad.economics.cpp for ad in instance.ads] == [1.0, 2.0]
        rows = [(c.kind, c.bound, set(c.scope)) for c in instance.constraints]
        assert rows == [
            (ConstraintKind.BUDGET, 20.0, {"ad1"}),
            (ConstraintKind.BUDGET, 10.0, {"ad2"}),
            (ConstraintKind.DSP_ROI, 2.0, {"ad1", "ad2"}),
            (ConstraintKind.ADVERTISER_ROI, 0.5, {"ad1", "ad2"}),
        ]
        assert instance_target_roi(instance) == 2.0

    def test_seed_determinism(self):
        a = instance_to_json(gen_mock_instance(MockConfig(seed=7)), seed=7)
        b = instance_to_json(gen_mock_instance(MockConfig(seed=7)), seed=7)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        c = instance_to_json(gen_mock_instance(MockConfig(seed=8)), seed=8)
        assert json.dumps(a, sort_keys=True) != json.dumps(c, sort_keys=True)

    def test_empty_instance_is_valid(self):
        instance = gen_mock_instance(MockConfig(n_impressions=0))
        model = DspChoiceModel(instance)
        state = sgd_solve(model, epochs=5)
        report = run_expectation(model, state.alpha)
        assert report.primal_value == 0.0 and report.dual_value == 0.0
        assert np.array_equal(state.alpha, np.zeros(model.n_constraints))

    def test_invalid_ranges(self):
        with pytest.raises(InvalidRangeError):
            gen_mock_instance(MockConfig(sigma_range=(0.0, 0.5)))
        with pytest.raises(InvalidRangeError):
            gen_mock_instance(MockConfig(mu_range=(1.0, -1.0)))
        with pytest.raises(InvalidRangeError):
            gen_mock_instance(MockConfig(ppi_range=(-0.1, 0.1)))
        with pytest.raises(InvalidRangeError):
            gen_mock_instance(MockConfig(n_impressions=-1))
        with pytest.raises(InvalidRangeError):
            gen_mock_instance(MockConfig(seed=1.5))
        with pytest.raises(InvalidRangeError):
            gen_mock_instance(MockConfig(seed=True))


class TestInstanceJson:
    def test_round_trip(self):
        instance = gen_mock_instance(MockConfig(n_impressions=5))
        payload = instance_to_json(instance, seed=0)
        restored = instance_from_json(json.loads(json.dumps(payload)))
        assert instance_to_json(restored, seed=0) == payload

    def test_malformed_raises_format_error(self):
        with pytest.raises(InstanceFormatError):
            instance_from_json({"mode": "p4p"})
        with pytest.raises(InstanceFormatError):
            instance_from_json({"mode": "warp-drive"})

    @pytest.mark.parametrize("key", ["cpp", "cr"])
    @pytest.mark.parametrize("value", ["1", True, [1.0], {}])
    def test_non_numeric_economics_raises_format_error(self, key, value):
        payload = instance_to_json(gen_mock_instance(MockConfig(n_impressions=2)))
        payload["ads"][1][key] = value
        with pytest.raises(InstanceFormatError, match=key):
            instance_from_json(payload)

    def test_save_and_load(self, tmp_path):
        instance = gen_mock_instance(MockConfig(n_impressions=3))
        path = tmp_path / "instance.json"
        sim.save_instance(path, instance, seed=0)
        restored = sim.load_instance(path)
        assert instance_to_json(restored) == instance_to_json(instance)


class TestRunExpectation:
    def test_overpriced_resources_suppress_all_bids(self):
        instance = gen_mock_instance(MockConfig(n_impressions=50))
        # Huge budget prices swamp every composite's gain term. (Pricing the
        # two ROI rows instead can subsidize: their phi coefficients are
        # negative, so those rows must stay moderate for this example.)
        report = run_expectation(DspChoiceModel(instance), np.asarray([1e6, 1e6, 1.0, 0.0]))
        assert report.primal_value == 0.0
        assert all(row.consumption == 0.0 for row in report.per_constraint)

    def test_slack_budgets_get_zero_price(self):
        # Budgets far above any attainable spend stay slack with zero price.
        config = MockConfig(n_impressions=120)
        everyone = frozenset(["ad1", "ad2"])
        config.constraints = [
            sim.ConstraintSpec(ConstraintKind.BUDGET, PaymentMode.P4P, 1e4, frozenset(["ad1"])),
            sim.ConstraintSpec(ConstraintKind.BUDGET, PaymentMode.P4P, 1e4, frozenset(["ad2"])),
            sim.ConstraintSpec(ConstraintKind.DSP_ROI, PaymentMode.P4P, 2.0, everyone),
            sim.ConstraintSpec(ConstraintKind.ADVERTISER_ROI, PaymentMode.P4P, 0.5, everyone),
        ]
        instance = gen_mock_instance(config)
        model = DspChoiceModel(instance)
        state = sgd_solve(model)
        report = run_expectation(model, state.alpha)
        for k in (0, 1):
            assert report.per_constraint[k].alpha <= 1e-3
            assert report.per_constraint[k].surplus > 0.0

    def test_surplus_is_limit_minus_consumption(self, solved_defaults):
        report = solved_defaults[ObjectiveKind.REVENUE]["report"]
        for row in report.per_constraint:
            assert row.surplus == pytest.approx(row.limit - row.consumption)

    def test_p4u_performance_budget_pacing(self):
        # Budget-paced performance maximization in P4U: per-impression phi
        # varies, so the composite has no knife edge and the dual solve
        # recovers a near-optimal paced allocation. (P4U revenue with binding
        # budgets is the documented degenerate tie case: every pair shares
        # psi_F and the greedy recovery collapses at the dual optimum.)
        everyone = frozenset(["ad1", "ad2"])
        config = MockConfig(
            mode=PaymentMode.P4U,
            ads=(0.1, 0.2),
            objective_kind=ObjectiveKind.PERFORMANCE,
            n_impressions=200,
            seed=3,
            constraints=[
                sim.ConstraintSpec(ConstraintKind.BUDGET, PaymentMode.P4U, 3.0, frozenset(["ad1"])),
                sim.ConstraintSpec(ConstraintKind.BUDGET, PaymentMode.P4U, 2.0, frozenset(["ad2"])),
                sim.ConstraintSpec(ConstraintKind.DSP_ROI, PaymentMode.P4U, 1.05, everyone),
            ],
        )
        instance = gen_mock_instance(config)
        model = DspChoiceModel(instance)
        state = sgd_solve(model, epochs=300)
        report = run_expectation(model, state.alpha)
        assert report.duality_gap_rel <= 1e-2
        for row in report.per_constraint:
            assert row.consumption <= row.limit + 1e-2 * max(1.0, abs(row.limit))
        # P4U ROI is 1 + cr by construction, so the 1.05 floor stays slack.
        assert report.per_constraint[2].alpha <= 1e-3


    def test_dual_value_is_dual_objective_bit_for_bit(self):
        # `run_expectation` reads the dual from its own decision pass, and
        # `dual_objective` runs the kernel again; the two must share every bit.
        rng = np.random.default_rng(8)
        for draw in range(30):
            instance = gen_mock_instance(MockConfig(n_impressions=int(rng.integers(0, 40)), seed=draw))
            impressions = [  # every fourth mean overflows
                imp if i % 4 else dataclasses.replace(imp, prior=LandscapePrior(imp.prior.mu, 40.0))
                for i, imp in enumerate(instance.impressions)
            ]
            instance = with_rows(instance, impressions)
            if draw % 5 == 0:  # M = 0: no ads, and so no constraints
                impressions = [dataclasses.replace(imp, ppi=()) for imp in impressions]
                instance = with_rows(instance, impressions, ads=[], constraints=[])
            model = DspChoiceModel(instance)
            alpha = rng.uniform(0.0, 3.0, model.n_constraints)
            dual = run_expectation(model, alpha).dual_value
            assert np.float64(dual).tobytes() == np.float64(dual_objective(model, alpha)).tobytes()

    def test_given_decisions_give_the_same_report(self):
        instance = gen_mock_instance(MockConfig(n_impressions=60, seed=2))
        model = DspChoiceModel(instance)
        alpha = np.array([0.3, 0.0, 1.2, 0.1])
        given = run_expectation(model, alpha, model.decide_rows(alpha))
        assert given == run_expectation(model, alpha)

    def test_worst_row_is_the_largest_relative_excess(self):
        rows = [
            sim.ConstraintRow(k=0, limit=20.0, consumption=20.5),  # 0.5 / 20
            sim.ConstraintRow(k=1, limit=0.0, consumption=0.03),  # 0.03 / max(1, 0)
            sim.ConstraintRow(k=2, limit=-4.0, consumption=-4.2),  # slack
        ]
        assert [row.violation_rel for row in rows] == pytest.approx([0.025, 0.03, -0.05])
        worst, violation = sim.SimReport(1.0, 1.0, rows).worst_row()
        assert worst is rows[1] and violation == 0.03

    @pytest.mark.parametrize("consumption", [[], [1.0, 0.0]])
    def test_no_excess_reads_zero(self, consumption):
        rows = [sim.ConstraintRow(k=k, limit=2.0 - 2 * k, consumption=c) for k, c in enumerate(consumption)]
        worst, violation = sim.SimReport(0.0, 0.0, rows).worst_row()
        assert violation == 0.0 and violation <= sim.FEASIBILITY_TOL
        assert (worst is None) == (not rows)


class TestRunMonteCarlo:
    def test_second_price_accounting(self):
        """Replaying the documented draw rule reproduces the runner's accounting."""
        instance = gen_mock_instance(MockConfig(n_impressions=80, seed=3))
        alpha = np.asarray([0.0, 0.0, 0.5, 0.0])
        strategy = FixedAlphaStrategy(alpha)
        report = run_monte_carlo(instance, strategy, epochs=3, seed=11)

        mus, sigmas = instance.mu, instance.sigma
        rng = np.random.default_rng(11)
        strategy2 = FixedAlphaStrategy(alpha)
        strategy2.reset(DspChoiceModel(instance))
        ad_idx, bids = strategy2.epoch_bids()
        for epoch in range(3):
            x = np.exp(mus + sigmas * rng.standard_normal(len(mus)))
            won = (ad_idx >= 0) & (bids > 0.0) & (bids > x)
            paid = np.where(won, x, 0.0)
            assert np.all(paid[won] <= bids[won])  # pay at most the bid
            assert np.all(paid[~won] == 0.0)  # losers pay nothing
            m = report.per_strategy_metrics["fixed_alpha"][epoch]
            assert m.cost == pytest.approx(float(paid.sum()))
            assert m.wins == int(won.sum())

    def test_zero_bids_win_nothing(self):
        instance = gen_mock_instance(MockConfig(n_impressions=40))
        suppress = np.asarray([1e9, 1e9, 1.0, 0.0])
        report = run_monte_carlo(instance, FixedAlphaStrategy(suppress), epochs=4, seed=0)
        for m in report.per_strategy_metrics["fixed_alpha"]:
            assert m.wins == 0 and m.cost == 0.0 and m.degenerate

    def test_consumption_matches_expectation_at_fixed_alpha(self):
        from dualbid.landscape import expected_cost, win_prob

        instance = gen_mock_instance(MockConfig(n_impressions=200, seed=5))
        model = DspChoiceModel(instance)
        alpha = np.asarray([0.0, 0.0, 0.5, 0.0])
        epochs = 60
        mc = run_monte_carlo(instance, FixedAlphaStrategy(alpha), epochs=epochs, seed=2)
        expectation = run_expectation(model, alpha)
        # ROI rows are differences of flows and can nearly cancel, so the
        # LLN-rate bound is taken against each row's gross flow magnitude.
        gross = np.zeros(instance.n_constraints)
        decisions = model.decide_rows(alpha)
        for i, imp in enumerate(instance.impressions):
            j, bp = int(decisions.ad[i]), float(decisions.bp[i])
            if j >= 0:  # the rule never bids 0
                p = win_prob(imp.prior, bp)
                c = expected_cost(imp.prior, bp)
                phi_w, psi_w = model.coeffs(i, j, slice(1, None))
                gross += np.abs(phi_w) * p + np.abs(psi_w) * c
        tol = 3.0 / np.sqrt(len(instance.impressions) * epochs)
        for row_mc, row_exp, scale in zip(mc.per_constraint, expectation.per_constraint, gross):
            assert abs(row_mc.consumption - row_exp.consumption) <= tol * max(scale, 1e-6)

    def test_fixed_alpha_replay_builds_one_model(self, monkeypatch):
        builds = []
        build = DspChoiceModel.__init__

        def counting_build(self, instance):
            builds.append(instance)
            build(self, instance)

        monkeypatch.setattr(DspChoiceModel, "__init__", counting_build)
        instance = gen_mock_instance(MockConfig(n_impressions=20))
        run_monte_carlo(instance, FixedAlphaStrategy(np.ones(4)), epochs=2, seed=0)
        assert len(builds) == 1

    def test_ad_changes_regather_rows(self):
        instance = gen_mock_instance(MockConfig(n_impressions=90, seed=4))
        expected = reference_run_monte_carlo(instance, ShiftingAds(), epochs=6, seed=5)
        strategy = ShiftingAds()
        report = run_monte_carlo(instance, strategy, epochs=6, seed=5)
        assert report.per_strategy_metrics["shifting"] == expected[0]
        assert report.per_constraint == expected[1]
        # Epoch 2 bid from a new array, epoch 4 from the same array mutated.
        arrays = [array for array, _ in strategy.seen]
        values = [copy for _, copy in strategy.seen]
        assert arrays[1] is not arrays[2] and arrays[3] is arrays[4]
        assert not np.array_equal(values[1], values[2])
        assert not np.array_equal(values[3], values[4])
        assert all(np.any(v == -1) for v in values)

    def test_epoch_count_validation(self):
        instance = gen_mock_instance(MockConfig(n_impressions=10))
        with pytest.raises(ValueError):
            run_monte_carlo(instance, FixedAlphaStrategy(np.ones(4)), epochs=0, seed=0)


def reference_run_monte_carlo(instance, strategy, epochs, seed):
    """`run_monte_carlo` written out on the rate card, with chosen ads read on every epoch.

    Revenue coefficients are `ppi * slope + intercept` of the card's
    objective column; consumption is the card times per-ad sums, in row
    order, of the won rows' `ppi`, win count, `paid * ppi` and paid price.
    """
    n, m, k = len(instance.ids), instance.n_ads, instance.n_constraints
    model = DspChoiceModel(instance)
    rows = np.arange(n)
    strategy.reset(model)
    rng = np.random.default_rng(seed)
    metrics = []
    consumption_total = np.zeros(instance.n_constraints)
    for epoch in range(epochs):
        x = np.exp(instance.mu + instance.sigma * rng.standard_normal(n))
        ad_idx, bids = strategy.epoch_bids()
        bids = np.minimum(np.maximum(bids, 0.0), instance.bid_cap)
        won = (ad_idx >= 0) & (bids > 0.0) & (bids > x)
        paid = np.where(won, x, 0.0)
        sel = np.where(ad_idx >= 0, ad_idx, 0)
        ppi = instance.ppi[rows, sel]
        (phi_slope, phi_intercept), (psi_slope, psi_intercept) = model._card[:, :, sel, 0]
        phi_v, psi_v = ppi * phi_slope + phi_intercept, ppi * psi_slope + psi_intercept
        revenue_vec = np.where(won, phi_v, 0.0) + psi_v * paid
        perf_vec = np.where(won, ppi, 0.0)
        sums = np.zeros((4, m))
        hits = np.flatnonzero(won)
        weights = (ppi[hits], np.ones(hits.size), paid[hits] * ppi[hits], paid[hits])
        for sum_, weight in zip(sums, weights):
            np.add.at(sum_, sel[hits], weight)
        consumption_total += (sums.reshape(-1) @ model._card.reshape(4 * m, k + 1))[1:]
        revenue, cost, wins = float(np.sum(revenue_vec)), float(np.sum(paid)), int(np.sum(won))
        metrics.append(
            sim.EpochMetrics(
                epoch=epoch, revenue=revenue, cost=cost, performance=float(np.sum(perf_vec)),
                wins=wins, actual_roi=revenue / cost if cost > 0.0 else 0.0,
                revenue_per_win=revenue / wins if wins else 0.0, param=strategy.param,
                degenerate=cost <= 0.0,
            )
        )
        strategy.end_epoch(
            sim.EpochFeedback(bids=bids, won=won, paid=paid, revenue=revenue, cost=cost)
        )
    per_constraint = [
        sim.ConstraintRow(k=k, limit=float(model.budgets[k]), consumption=float(total / epochs))
        for k, total in enumerate(consumption_total)
    ]
    return metrics, per_constraint


class ShiftingAds(sim.Strategy):
    """Random ads (some -1) whose choice changes twice: by a new array, then in place."""

    def __init__(self, name="shifting"):
        self.name = name

    def reset(self, model):
        rng = np.random.default_rng(8)
        self.n_ads = model.instance.n_ads
        self.ad_idx = rng.integers(-1, self.n_ads, model.n_items)
        self.bids = rng.uniform(0.0, 0.2, model.n_items)
        self.seen, self.epoch = [], 0

    def epoch_bids(self):
        self.seen.append((self.ad_idx, self.ad_idx.copy()))
        return self.ad_idx, self.bids

    def end_epoch(self, feedback):
        self.epoch += 1
        if self.epoch == 2:
            self.ad_idx = np.where(self.ad_idx >= 0, (self.ad_idx + 1) % self.n_ads, -1)
        elif self.epoch == 4:
            self.ad_idx[::3] = -1
            self.ad_idx[1::3] = self.n_ads - 1


class TestCompareStrategies:
    def test_common_random_numbers(self):
        instance = gen_mock_instance(MockConfig(n_impressions=60))
        alpha = np.asarray([0.0, 0.0, 0.7, 0.0])
        twins = [FixedAlphaStrategy(alpha, name="a"), FixedAlphaStrategy(alpha, name="b")]
        report = compare_strategies(instance, twins, epochs=5, seed=9)
        assert report.per_strategy_metrics["a"] == [
            type(m)(**{**m.__dict__}) for m in report.per_strategy_metrics["b"]
        ]

    def test_needs_two_strategies(self):
        instance = gen_mock_instance(MockConfig(n_impressions=10))
        with pytest.raises(ValueError):
            compare_strategies(instance, [FixedAlphaStrategy(np.ones(4))], epochs=2, seed=0)

    def test_unique_names(self):
        instance = gen_mock_instance(MockConfig(n_impressions=10))
        twins = [FixedAlphaStrategy(np.ones(4)), FixedAlphaStrategy(np.ones(4))]
        with pytest.raises(ValueError, match="unique"):
            compare_strategies(instance, twins, epochs=2, seed=0)


BASELINES = ("db_single", "db_multi", "ortb", "lin")
# LIN updates every `cadence` windows; one window keeps its updates in view.
SHORT_CADENCE = {"lin": {"cadence": 1}}


class KeptBids(sim.Strategy):
    """Fixed random ads and bids that keeps every epoch's feedback with a copy of its arrays.

    `ads` and `bids` give the (low, high) ranges the ad indices and bids are
    drawn from; the strategy bids nothing in the epochs in `silent`.
    """

    def __init__(self, name, ads=(0, 2), bids=(0.0, 0.2), silent=(), seed=0):
        self.name, self._ads, self._bids, self._silent = name, ads, bids, silent
        self._seed = seed

    def reset(self, model):
        rng = np.random.default_rng(self._seed)
        self.ad_idx = rng.integers(*self._ads, model.n_items)
        self.bids = rng.uniform(*self._bids, model.n_items)
        self.kept, self.epoch = [], 0

    def epoch_bids(self):
        return self.ad_idx, np.zeros_like(self.bids) if self.epoch in self._silent else self.bids

    def end_epoch(self, feedback):
        arrays = (feedback.bids, feedback.won, feedback.paid)
        self.kept.append((arrays, tuple(a.copy() for a in arrays)))
        self.epoch += 1


def _baselines(window):
    return [
        lambda name=name: make_strategy(
            name, {"update_window": window, **SHORT_CADENCE.get(name, {})}
        )
        for name in BASELINES
    ]


#: Each case: the mock config, and factories of fresh, uniquely named strategies.
LOCKSTEP_CASES = {
    "baselines_and_fixed_alpha": (
        MockConfig(n_impressions=120, seed=2),
        [*_baselines(150), lambda: FixedAlphaStrategy([0.0, 0.66, 0.36, 0.0])],
    ),
    "ads_change_by_new_array_then_in_place": (
        MockConfig(n_impressions=90, seed=4),
        [lambda: ShiftingAds("shift_a"), lambda: ShiftingAds("shift_b"),
         lambda: KeptBids("kept", ads=(-1, 2))],
    ),
    "every_ad_at_minus_one": (
        MockConfig(n_impressions=50, seed=1),
        [lambda: KeptBids("nobody", ads=(-1, 0)), *_baselines(50)[:1]],
    ),
    "negative_bids_and_bids_above_the_cap": (
        MockConfig(n_impressions=100, seed=3, bid_cap=0.05),
        [lambda: KeptBids("wild", bids=(-0.1, 0.2), seed=1),
         lambda: KeptBids("wild_multi", ads=(-1, 2), bids=(-1.0, 1.0), seed=2), *_baselines(100)],
    ),
    "epochs_with_no_wins": (
        MockConfig(n_impressions=60, seed=5),
        [lambda: KeptBids("quiet", silent={0, 2, 3}),
         lambda: FixedAlphaStrategy([1e9, 1e9, 1.0, 0.0], name="suppressed"), *_baselines(60)],
    ),
    "no_impressions": (
        MockConfig(n_impressions=0),
        [*_baselines(1), lambda: FixedAlphaStrategy([0.0, 0.66, 0.36, 0.0]),
         lambda: KeptBids("kept")],
    ),
}


class TestLockstepReplay:
    """`compare_strategies` runs one replay loop for all strategies; each must
    read as if it ran alone, bit for bit."""

    EPOCHS, SEED = 6, 7

    @pytest.mark.parametrize("case", LOCKSTEP_CASES)
    def test_compare_equals_a_run_per_strategy(self, case):
        config, factories = LOCKSTEP_CASES[case]
        instance = gen_mock_instance(config)
        strategies = [make() for make in factories]
        report = compare_strategies(instance, strategies, epochs=self.EPOCHS, seed=self.SEED)
        assert list(report.per_strategy_metrics) == [s.name for s in strategies]
        assert report.per_constraint == []
        for make in factories:
            alone = run_monte_carlo(instance, make(), epochs=self.EPOCHS, seed=self.SEED)
            for name, metrics in alone.per_strategy_metrics.items():
                assert repr(report.per_strategy_metrics[name]) == repr(metrics), name

    @pytest.mark.parametrize("case", LOCKSTEP_CASES)
    def test_run_monte_carlo_equals_the_reference(self, case):
        config, factories = LOCKSTEP_CASES[case]
        instance = gen_mock_instance(config)
        for make in factories:
            strategy = make()
            expected = reference_run_monte_carlo(instance, make(), self.EPOCHS, self.SEED)
            report = run_monte_carlo(instance, strategy, epochs=self.EPOCHS, seed=self.SEED)
            assert repr(report.per_strategy_metrics[strategy.name]) == repr(expected[0])
            assert repr(report.per_constraint) == repr(expected[1])

    def test_the_cases_cover_their_edges(self):
        instance = gen_mock_instance(LOCKSTEP_CASES["epochs_with_no_wins"][0])
        quiet = KeptBids("quiet", silent={0, 2, 3})
        report = run_monte_carlo(instance, quiet, self.EPOCHS, self.SEED)
        wins = [m.wins for m in report.per_strategy_metrics["quiet"]]
        assert wins[0] == wins[2] == wins[3] == 0 and min(wins[1], wins[4], wins[5]) > 0
        config = LOCKSTEP_CASES["negative_bids_and_bids_above_the_cap"][0]
        wild = KeptBids("wild", bids=(-0.1, 0.2), seed=1)
        run_monte_carlo(gen_mock_instance(config), wild, 2, self.SEED)
        assert np.any(wild.bids < 0.0) and np.any(wild.bids > config.bid_cap)
        bids = wild.kept[0][1][0]
        assert np.any(bids == 0.0) and np.any(bids == config.bid_cap)

    def test_kept_feedback_is_never_overwritten(self):
        instance = gen_mock_instance(MockConfig(n_impressions=40, seed=1))
        kept = [KeptBids("a", ads=(-1, 2)), KeptBids("b", seed=3)]
        compare_strategies(instance, [*kept, make_strategy("ortb")], epochs=5, seed=2)
        kept_arrays = [a for strategy in kept for arrays, _ in strategy.kept for a in arrays]
        kept_copies = [c for strategy in kept for _, copies in strategy.kept for c in copies]
        assert all(map(np.array_equal, kept_arrays, kept_copies))
        # No two feedback arrays, of one epoch or of two, share memory.
        for i, a in enumerate(kept_arrays):
            assert not any(np.shares_memory(a, b) for b in kept_arrays[i + 1:])

    def test_compare_builds_one_model_and_draws_each_epoch_once(self, monkeypatch):
        builds, draws = [], []
        build = DspChoiceModel.__init__
        default_rng = np.random.default_rng

        def counting_build(self, instance):
            builds.append(instance)
            build(self, instance)

        class CountingGenerator:
            def __init__(self, seed):
                self._rng = default_rng(seed)

            def standard_normal(self, size):
                draws.append(size)
                return self._rng.standard_normal(size)

        instance = gen_mock_instance(MockConfig(n_impressions=20))
        monkeypatch.setattr(DspChoiceModel, "__init__", counting_build)
        monkeypatch.setattr(sim.np.random, "default_rng", CountingGenerator)
        strategies = [make_strategy(name) for name in BASELINES]
        compare_strategies(instance, [*strategies, FixedAlphaStrategy(np.ones(4))], epochs=3, seed=0)
        assert len(builds) == 1
        assert draws == [20] * 3


class TestStrategies:
    def test_make_strategy_names(self):
        for name in ("db_single", "db_multi", "ortb", "lin"):
            assert make_strategy(name).name == name
        with pytest.raises(ValueError):
            make_strategy("galaxy_brain")
        with pytest.raises(ValueError):
            make_strategy("fixed_alpha")  # needs an alpha vector

    @pytest.mark.parametrize("name", BASELINES)
    def test_p4p_required(self, name):
        config = MockConfig(mode=PaymentMode.P4U, ads=(0.1, 0.2), n_impressions=10)
        config.objective_kind = ObjectiveKind.REVENUE
        instance = gen_mock_instance(config)
        with pytest.raises(ValueError, match="P4P"):
            run_monte_carlo(instance, make_strategy(name, {"target_roi": 2.0}), epochs=1, seed=0)

    @pytest.mark.parametrize("name", BASELINES)
    def test_target_roi_required(self, name):
        budget = sim.ConstraintSpec(ConstraintKind.BUDGET, PaymentMode.P4P, 20.0, frozenset(["ad1"]))
        instance = gen_mock_instance(MockConfig(n_impressions=10, constraints=[budget]))
        assert instance_target_roi(instance) is None
        with pytest.raises(ValueError, match="target ROI"):
            run_monte_carlo(instance, make_strategy(name), epochs=1, seed=0)

    @pytest.mark.parametrize("name", BASELINES)
    def test_reset_restores_every_parameter(self, name):
        # A window of 150 impressions updates every other 100-impression epoch;
        # the seventh epoch leaves a part-filled window that `reset` must drop.
        instance = gen_mock_instance(MockConfig(n_impressions=100, seed=2))
        strategy = make_strategy(name, {"update_window": 150, **SHORT_CADENCE.get(name, {})})
        first = run_monte_carlo(instance, strategy, epochs=7, seed=4).per_strategy_metrics[name]
        assert len({m.param for m in first}) >= 2  # the parameter moved
        again = run_monte_carlo(instance, strategy, epochs=7, seed=4).per_strategy_metrics[name]
        assert again == first

    @pytest.mark.parametrize("name", BASELINES)
    def test_only_the_replay_clips_bids(self, name):
        cap = 0.02
        instance = gen_mock_instance(MockConfig(n_impressions=100, seed=2, bid_cap=cap))
        strategy = make_strategy(name, {"update_window": 150, **SHORT_CADENCE.get(name, {})})
        strategy.reset(DspChoiceModel(instance))
        assert np.max(strategy.epoch_bids()[1]) > cap  # the strategy bids unclipped
        seen = []

        def recording_end_epoch(feedback, end_epoch=strategy.end_epoch):
            seen.append(feedback.bids)
            end_epoch(feedback)

        strategy.end_epoch = recording_end_epoch
        run_monte_carlo(instance, strategy, epochs=8, seed=4)
        bids = np.concatenate(seen)
        assert np.all(bids <= cap)
        assert np.any(bids == cap)

    def test_lin_updates_on_coarser_cadence(self):
        instance = gen_mock_instance(MockConfig(n_impressions=100, seed=2))
        lin = make_strategy("lin", {"update_window": 100, "cadence": 3, "bid_base": 0.05})
        report = run_monte_carlo(instance, lin, epochs=9, seed=4)
        params = [m.param for m in report.per_strategy_metrics["lin"]]
        # Level recorded at epoch end reflects updates after epochs 3, 6, 9.
        assert params[0] == params[1] == params[2] == 0.05
        assert len({params[2], params[5], params[8]}) >= 2

    def test_db_window_semantics(self):
        instance = gen_mock_instance(MockConfig(n_impressions=100, seed=2))
        db = make_strategy("db_single", {"update_window": 250})
        report = run_monte_carlo(instance, db, epochs=6, seed=4)
        params = [m.param for m in report.per_strategy_metrics["db_single"]]
        # 100 impressions per epoch, 250 per window: the accumulated window
        # crosses the threshold after epochs 2 and 5, so the parameter changes
        # at epochs 3 and 6 (the recorded value is the one used in the epoch).
        assert params[0] == params[1] == params[2] == 1.0
        assert params[3] != 1.0
        assert params[3] == params[4] == params[5]

    def test_ortb_refit_matches_fit_over_observation_log(self):
        """Each refit's c is the root of the score over the replay's rebuilt auction log.

        It carries the root certificate, and lies within `refit_rtol` of a fit
        over that log from the c before the refit; the first refit starts from
        the tangent at c -> 0, as the fit does.
        """

        class CheckedOrtb(sim.OrtbStrategy):
            def reset(self, model):
                super().reset(model)
                self.feedbacks, self.refits = [], 0

            def end_epoch(self, feedback):
                self.feedbacks.append(feedback)
                super().end_epoch(feedback)

            def _update(self, actual_roi):
                start = self.state.c if self._log.anchor is not None else None
                super()._update(actual_roi)
                log = [
                    BidObservation(Outcome.WON, float(b), float(p))
                    if w
                    else BidObservation(Outcome.LOST, float(b))
                    for f in self.feedbacks
                    for b, p, w in zip(f.bids, f.paid, f.won)
                    if b > 0.0
                ]
                won, lost = split_observations(log)
                c = self.state.c
                assert_root_certificate(c, won, lost)
                assert c == pytest.approx(
                    ortb_fit_c(won, lost, start).c, rel=refit_rtol(c, won, lost), abs=0.0
                )
                if start is None:
                    assert c == ortb_fit_c(won, lost).c
                self.refits += 1

        instance = gen_mock_instance(MockConfig(n_impressions=100, seed=2))
        ortb = CheckedOrtb(update_window=150)
        run_monte_carlo(instance, ortb, epochs=7, seed=4)
        assert ortb.refits == 3
        assert ortb.state.c != 1.0  # c0: the refits moved it

    def test_db_multi_uses_all_ads(self):
        instance = gen_mock_instance(MockConfig(n_impressions=50, seed=6))
        multi = make_strategy("db_multi")
        multi.reset(DspChoiceModel(instance))
        idx, _ = multi.epoch_bids()
        assert set(np.unique(idx)) == {0, 1}
        single = make_strategy("db_single")
        single.reset(DspChoiceModel(instance))
        idx, _ = single.epoch_bids()
        assert set(np.unique(idx)) == {0}
