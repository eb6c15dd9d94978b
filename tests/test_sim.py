import json

import numpy as np
import pytest

from dualbid import sim
from dualbid.dsp import DspChoiceModel
from dualbid.mmkp import sgd_solve
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
        assert report.primal_value == 0.0
        assert np.allclose(state.alpha, 1.0)

    def test_invalid_ranges(self):
        with pytest.raises(InvalidRangeError):
            gen_mock_instance(MockConfig(sigma_range=(0.0, 0.5)))
        with pytest.raises(InvalidRangeError):
            gen_mock_instance(MockConfig(mu_range=(1.0, -1.0)))
        with pytest.raises(InvalidRangeError):
            gen_mock_instance(MockConfig(ppi_range=(-0.1, 0.1)))
        with pytest.raises(InvalidRangeError):
            gen_mock_instance(MockConfig(n_impressions=-1))


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


class TestRunMonteCarlo:
    def test_second_price_accounting(self):
        """Replaying the documented draw rule reproduces the runner's accounting."""
        instance = gen_mock_instance(MockConfig(n_impressions=80, seed=3))
        alpha = np.asarray([0.0, 0.0, 0.5, 0.0])
        strategy = FixedAlphaStrategy(alpha)
        report = run_monte_carlo(instance, strategy, epochs=3, seed=11)

        mus = np.array([i.prior.mu for i in instance.impressions])
        sigmas = np.array([i.prior.sigma for i in instance.impressions])
        rng = np.random.default_rng(11)
        strategy2 = FixedAlphaStrategy(alpha)
        strategy2.reset(instance)
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
        from dualbid import mmkp
        from dualbid.landscape import expected_cost, win_prob

        instance = gen_mock_instance(MockConfig(n_impressions=200, seed=5))
        model = DspChoiceModel(instance)
        alpha = np.asarray([0.0, 0.0, 0.5, 0.0])
        epochs = 60
        mc = run_monte_carlo(instance, FixedAlphaStrategy(alpha), epochs=epochs, seed=2)
        expectation = run_expectation(model, alpha)
        # ROI rows are differences of flows and can nearly cancel, so the
        # LLN-rate bound is taken against each row's gross flow magnitude.
        phi_w, psi_w = model.constraint_coeffs
        gross = np.zeros(instance.n_constraints)
        for i, imp in enumerate(instance.impressions):
            d = mmkp.decide(model, i, alpha)
            if d.chosen_user is not None and d.sub_choice > 0:
                p = win_prob(imp.prior, d.sub_choice)
                c = expected_cost(imp.prior, d.sub_choice)
                gross += np.abs(phi_w[i, d.chosen_user]) * p + np.abs(psi_w[i, d.chosen_user]) * c
        tol = 3.0 / np.sqrt(len(instance.impressions) * epochs)
        for row_mc, row_exp, scale in zip(mc.per_constraint, expectation.per_constraint, gross):
            assert abs(row_mc.consumption - row_exp.consumption) <= tol * max(scale, 1e-6)

    def test_epoch_count_validation(self):
        instance = gen_mock_instance(MockConfig(n_impressions=10))
        with pytest.raises(ValueError):
            run_monte_carlo(instance, FixedAlphaStrategy(np.ones(4)), epochs=0, seed=0)


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


class TestStrategies:
    def test_make_strategy_names(self):
        for name in ("db_single", "db_multi", "ortb", "lin"):
            assert make_strategy(name).name == name
        with pytest.raises(ValueError):
            make_strategy("galaxy_brain")
        with pytest.raises(ValueError):
            make_strategy("fixed_alpha")  # needs an alpha vector

    def test_p4p_required(self):
        config = MockConfig(mode=PaymentMode.P4U, ads=(0.1, 0.2), n_impressions=10)
        config.objective_kind = ObjectiveKind.REVENUE
        instance = gen_mock_instance(config)
        with pytest.raises(ValueError, match="P4P"):
            run_monte_carlo(instance, make_strategy("db_single", {"target_roi": 2.0}), epochs=1, seed=0)

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

    def test_db_multi_uses_all_ads(self):
        instance = gen_mock_instance(MockConfig(n_impressions=50, seed=6))
        multi = make_strategy("db_multi")
        multi.reset(instance)
        idx, _ = multi.epoch_bids()
        assert set(np.unique(idx)) == {0, 1}
        single = make_strategy("db_single")
        single.reset(instance)
        idx, _ = single.epoch_bids()
        assert set(np.unique(idx)) == {0}
