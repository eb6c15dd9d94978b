import json
import math

import numpy as np
import pytest

from dualbid.mmkp import (
    DivergenceError,
    DualState,
    beta_value,
    decide,
    dual_objective,
    dual_state_from_json,
    dual_state_to_json,
    primal_value_of_strategy,
    score_f,
    sgd_solve,
)
from toy_models import FixedChoiceModel, QuadraticToyModel, RunawayModel


def fixed(gains, consumptions, budgets):
    return FixedChoiceModel(gains, consumptions, budgets)


class TestScoreF:
    def test_unconstrained_gain(self):
        model = fixed([[5.0]], np.zeros((1, 1, 0)), [])
        assert score_f(model, 0, 0, 5.0, np.asarray([])) == 5.0

    def test_fully_priced_away(self):
        model = fixed([[5.0]], [[[5.0]]], [0.0])
        assert score_f(model, 0, 0, 5.0, np.asarray([1.0])) == 0.0

    def test_quadratic_consumption(self):
        model = QuadraticToyModel([[10.0]], [[[1.0]]], [0.0])
        assert score_f(model, 0, 0, 5.0, np.asarray([0.1])) == pytest.approx(2.5)

    def test_matches_reported_best_score(self):
        model = QuadraticToyModel([[4.0, 2.0]], [[[0.7], [0.3]]], [1.0])
        alpha = np.asarray([0.8])
        subs, scores = model.item_best(0, alpha)
        for j in range(2):
            assert score_f(model, 0, j, float(subs[j]), alpha) == pytest.approx(float(scores[j]))


class TestDecide:
    def test_all_negative_discards(self):
        model = fixed([[-0.2, -0.1]], np.zeros((1, 2, 0)), [])
        decision = decide(model, 0, np.asarray([]))
        assert decision.chosen_user is None
        assert decision.best_score == pytest.approx(-0.1)

    def test_dominating_user_wins(self):
        model = fixed([[0.3, 0.7]], np.zeros((1, 2, 0)), [])
        decision = decide(model, 0, np.asarray([]))
        assert decision.chosen_user == 1
        assert decision.best_score == pytest.approx(0.7)

    def test_tie_breaks_to_lowest_index(self):
        model = fixed([[0.5, 0.5]], np.zeros((1, 2, 0)), [])
        first = decide(model, 0, np.asarray([]))
        second = decide(model, 0, np.asarray([]))
        assert first.chosen_user == 0
        assert first == second

    def test_random_tie_break_is_seeded(self):
        model = fixed([[0.5, 0.5]], np.zeros((1, 2, 0)), [])
        rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
        picks_a = [
            decide(model, 0, np.asarray([]), tie_break="random", rng=rng_a).chosen_user
            for _ in range(16)
        ]
        picks_b = [
            decide(model, 0, np.asarray([]), tie_break="random", rng=rng_b).chosen_user
            for _ in range(16)
        ]
        assert picks_a == picks_b
        assert set(picks_a) == {0, 1}

    def test_zero_score_allocates(self):
        model = fixed([[0.0]], np.zeros((1, 1, 0)), [])
        assert decide(model, 0, np.asarray([])).chosen_user == 0

    def test_no_users(self):
        model = fixed(np.zeros((1, 0)), np.zeros((1, 0, 1)), [1.0])
        decision = decide(model, 0, np.asarray([0.5]))
        assert decision.chosen_user is None and decision.best_score == -math.inf


class TestBeta:
    def test_clamped_at_zero(self):
        model = fixed([[-1.0, -2.0]], np.zeros((1, 2, 0)), [])
        assert beta_value(model, 0, np.asarray([])) == 0.0

    def test_positive_max(self):
        model = fixed([[0.5, -1.0]], np.zeros((1, 2, 0)), [])
        assert beta_value(model, 0, np.asarray([])) == 0.5

    def test_no_users_defaults_to_zero(self):
        model = fixed(np.zeros((1, 0)), np.zeros((1, 0, 1)), [1.0])
        assert beta_value(model, 0, np.asarray([0.3])) == 0.0


class TestDualObjective:
    def test_zero_prices_sum_unconstrained_gains(self):
        model = fixed([[2.0, 1.0], [-1.0, 3.0]], np.zeros((2, 2, 1)), [4.0])
        assert dual_objective(model, np.asarray([0.0])) == pytest.approx(2.0 + 3.0)

    def test_one_dimensional_example(self):
        # Single pair with S(alpha) = 1 - alpha and B = 2.
        model = fixed([[1.0]], [[[1.0]]], [2.0])
        grid = np.linspace(0.0, 3.0, 10001)
        values = [dual_objective(model, np.asarray([a])) for a in grid]
        assert dual_objective(model, np.asarray([0.5])) == pytest.approx(2 * 0.5 + 0.5)
        assert grid[int(np.argmin(values))] == pytest.approx(0.0, abs=1e-9)
        assert min(values) == pytest.approx(1.0)

    def test_vanishes_when_nothing_is_worth_taking(self):
        model = fixed([[-1.0], [-2.0]], [[[1.0]], [[1.0]]], [0.0])
        assert dual_objective(model, np.asarray([3.0])) == 0.0


def grid_min_dual(model, hi, points):
    grid = np.linspace(0.0, hi, points)
    values = [dual_objective(model, np.asarray([a])) for a in grid]
    return float(min(values))


class TestSgdSolve:
    def test_never_binding_budget_price_drops_to_zero(self):
        model = QuadraticToyModel(
            vmax=[[1.0], [2.0]], curvature=[[[0.2]], [[0.4]]], budgets=[1e4]
        )
        state = sgd_solve(model, epochs=50)
        assert state.alpha[0] <= 1e-6

    def test_matches_1d_grid_oracle(self):
        rng = np.random.default_rng(4)
        model = QuadraticToyModel(
            vmax=rng.uniform(0.5, 3.0, (4, 2)),
            curvature=rng.uniform(0.2, 1.5, (4, 2, 1)),
            budgets=[1.5],
        )
        state = sgd_solve(model, epochs=800)
        oracle = grid_min_dual(model, hi=5.0, points=10000)
        assert state.dual_value <= oracle * 1.005 + 1e-9

    def test_matches_2d_grid_oracle_coarse(self):
        rng = np.random.default_rng(5)
        model = FixedChoiceModel(
            gains=rng.uniform(0.5, 2.0, (4, 2)),
            consumptions=rng.uniform(0.2, 1.5, (4, 2, 2)),
            budgets=[1.2, 0.8],
        )
        state = sgd_solve(model, epochs=2000)
        grid = np.linspace(0.0, 4.0, 400)
        values = [
            dual_objective(model, np.asarray([a, b])) for a in grid for b in grid
        ]
        assert state.dual_value <= min(values) * 1.005 + 1e-9

    def test_projection_keeps_prices_feasible(self):
        rng = np.random.default_rng(6)
        model = FixedChoiceModel(
            gains=rng.uniform(-1.0, 2.0, (5, 3)),
            consumptions=rng.uniform(-0.5, 1.5, (5, 3, 2)),
            budgets=[0.5, 1.0],
        )
        state = sgd_solve(model, epochs=40)
        for alpha in state.alpha_trace:
            assert np.all(alpha >= 0.0)

    def test_weak_duality_along_trace(self):
        rng = np.random.default_rng(7)
        model = FixedChoiceModel(
            gains=rng.uniform(0.2, 2.0, (6, 2)),
            consumptions=rng.uniform(0.1, 1.0, (6, 2, 2)),
            budgets=[2.0, 1.5],
        )
        state = sgd_solve(model, epochs=300)
        # Exact per-price bound: D(a) >= objective(a) + a . (B - consumption(a)).
        for alpha in state.alpha_trace:
            primal = primal_value_of_strategy(model, alpha)
            bound = primal.objective + float(alpha @ (model.budgets - primal.consumption))
            assert dual_objective(model, alpha) >= bound - 1e-9

    def test_weak_duality_against_feasible_strategy_value(self):
        rng = np.random.default_rng(17)
        # Slack budgets keep the integral allocation feasible at every price.
        model = FixedChoiceModel(
            gains=rng.uniform(0.2, 2.0, (6, 2)),
            consumptions=rng.uniform(0.1, 1.0, (6, 2, 2)),
            budgets=[50.0, 50.0],
        )
        state = sgd_solve(model, epochs=300)
        primal = primal_value_of_strategy(model, state.alpha)
        assert np.all(primal.consumption <= model.budgets)
        for value in state.dual_value_trace:
            assert value >= primal.objective - 1e-9

    def test_divergence_guard(self):
        with pytest.raises(DivergenceError):
            sgd_solve(RunawayModel(), step0=50.0, epochs=500)

    def test_empty_instance(self):
        model = FixedChoiceModel(np.zeros((0, 2)), np.zeros((0, 2, 1)), [1.0])
        state = sgd_solve(model, epochs=10)
        assert state.alpha[0] == 1.0 and state.iteration == 0
        primal = primal_value_of_strategy(model, state.alpha)
        assert primal.objective == 0.0 and np.all(primal.consumption == 0.0)

    def test_input_validation(self):
        model = fixed([[1.0]], [[[1.0]]], [1.0])
        with pytest.raises(ValueError):
            sgd_solve(model, step0=0.0)
        with pytest.raises(ValueError):
            sgd_solve(model, alpha0=[-1.0])
        with pytest.raises(ValueError):
            sgd_solve(model, alpha0=[1.0, 2.0])


class TestPrimalOfStrategy:
    def test_single_unconstrained_pair(self):
        model = QuadraticToyModel([[7.0]], np.zeros((1, 1, 1)), [1.0])
        primal = primal_value_of_strategy(model, np.asarray([0.0]))
        assert primal.objective == pytest.approx(7.0)

    def test_all_rejected(self):
        model = fixed([[-1.0, -0.5]], np.ones((1, 2, 1)), [1.0])
        primal = primal_value_of_strategy(model, np.asarray([2.0]))
        assert primal.objective == 0.0 and primal.consumption[0] == 0.0

    def test_dominance_and_single_assignment(self):
        rng = np.random.default_rng(8)
        model = FixedChoiceModel(
            gains=rng.uniform(-1.0, 2.0, (30, 4)),
            consumptions=rng.uniform(0.0, 1.0, (30, 4, 2)),
            budgets=[3.0, 4.0],
        )
        alpha = np.asarray([0.3, 0.1])
        for i in range(model.n_items):
            decision = decide(model, i, alpha)
            _, scores = model.item_best(i, alpha)
            if decision.chosen_user is None:
                assert scores.max() < 0.0
            else:
                # Never a user strictly dominated by another.
                assert scores[decision.chosen_user] == pytest.approx(scores.max())


class TestDualStateJson:
    def test_round_trip(self):
        state = DualState(
            alpha=np.asarray([0.5, 0.0]), iteration=42, dual_value_trace=[3.0, 2.5, 2.4]
        )
        payload = dual_state_to_json(state)
        assert set(payload) == {"alpha", "iterations", "dual_trace"}
        restored = dual_state_from_json(json.loads(json.dumps(payload)))
        assert np.allclose(restored.alpha, state.alpha)
        assert restored.iteration == 42
        assert restored.dual_value_trace == [3.0, 2.5, 2.4]
