import json

import numpy as np
import pytest

from dualbid.mmkp import (
    BATCH_SIZE,
    DivergenceError,
    DualState,
    beta_value,
    dual_objective,
    dual_state_to_json,
    primal_value_of_strategy,
    sgd_solve,
)
from toy_models import FixedChoiceModel, QuadraticToyModel, RunawayModel


def fixed(gains, consumptions, budgets):
    return FixedChoiceModel(gains, consumptions, budgets)


class TestScoreF:
    def test_matches_reported_best_score(self):
        model = QuadraticToyModel([[4.0, 2.0]], [[[0.7], [0.3]]], [1.0])
        alpha = np.asarray([0.8])
        subs, scores = model.item_best(0, alpha)
        for j in range(2):
            sub = float(subs[j])
            score = model.gain(0, j, sub) - float(alpha @ model.consumption(0, j, sub))
            assert score == pytest.approx(float(scores[j]))


class TestDecide:
    """The allocation rule on one item, read through `primal_value_of_strategy`.

    Each user's consumption differs, so the totals show which user won.
    """

    def test_all_negative_discards(self):
        model = fixed([[-0.2, -0.1]], [[[1.0], [2.0]]], [1.0])
        primal = primal_value_of_strategy(model, np.asarray([0.0]))
        assert primal.objective == 0.0 and primal.consumption[0] == 0.0

    def test_dominating_user_wins(self):
        model = fixed([[0.3, 0.7]], [[[1.0], [2.0]]], [1.0])
        primal = primal_value_of_strategy(model, np.asarray([0.0]))
        assert primal.objective == 0.7 and primal.consumption[0] == 2.0

    def test_tie_breaks_to_lowest_index(self):
        model = fixed([[0.5, 0.5]], [[[1.0], [2.0]]], [1.0])
        first = primal_value_of_strategy(model, np.asarray([0.0]))
        second = primal_value_of_strategy(model, np.asarray([0.0]))
        assert first.objective == 0.5 and first.consumption[0] == 1.0
        assert second.objective == first.objective
        assert np.array_equal(second.consumption, first.consumption)

    def test_zero_score_allocates(self):
        model = fixed([[0.0]], [[[1.0]]], [1.0])
        primal = primal_value_of_strategy(model, np.asarray([0.0]))
        assert primal.objective == 0.0 and primal.consumption[0] == 1.0

    def test_no_users(self):
        model = fixed(np.zeros((1, 0)), np.zeros((1, 0, 1)), [1.0])
        primal = primal_value_of_strategy(model, np.asarray([0.5]))
        assert primal.objective == 0.0 and primal.consumption[0] == 0.0


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
            budgets=[0.5, 5.0],  # the second row is slack, so its price is pushed to 0
        )
        # Record every price a step starts from, from seeded random start prices.
        seen = []
        step = model.batch_consumption
        model.batch_consumption = lambda rows, alpha: seen.append(alpha) or step(rows, alpha)
        for alpha0 in rng.uniform(0.0, 2.0, (5, 2)):
            state = sgd_solve(model, epochs=40, alpha0=alpha0)
            assert np.all(state.alpha >= 0.0)
        assert len(seen) == 5 * 40
        assert all(np.all(alpha >= 0.0) for alpha in seen)
        assert any(np.any(alpha == 0.0) for alpha in seen)  # the projection did bind

    def test_weak_duality_along_trace(self):
        rng = np.random.default_rng(7)
        model = FixedChoiceModel(
            gains=rng.uniform(0.2, 2.0, (6, 2)),
            consumptions=rng.uniform(0.1, 1.0, (6, 2, 2)),
            budgets=[2.0, 1.5],
        )
        state = sgd_solve(model, epochs=300)
        # Exact per-price bound: D(a) >= objective(a) + a . (B - consumption(a)).
        for alpha in [state.alpha, *rng.uniform(0.0, 3.0, (50, 2))]:
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
        # With no items the dual is alpha . B, minimized at alpha = 0.
        model = FixedChoiceModel(np.zeros((0, 2)), np.zeros((0, 2, 1)), [1.0])
        state = sgd_solve(model, epochs=10)
        assert state.alpha[0] == 0.0 and state.iteration == 0
        assert state.dual_value == 0.0
        primal = primal_value_of_strategy(model, state.alpha)
        assert primal.objective == 0.0 and np.all(primal.consumption == 0.0)

    def test_iterations_count_item_visits(self):
        n = 2 * BATCH_SIZE + 22
        rng = np.random.default_rng(9)
        model = FixedChoiceModel(
            rng.uniform(-0.5, 2.0, (n, 2)), rng.uniform(0.0, 1.0, (n, 2, 2)), [20.0, 30.0]
        )
        assert sgd_solve(model, epochs=3).iteration == 3 * n

    @pytest.mark.parametrize("zero", [0.0, -0.0], ids=["zero", "negative-zero"])
    def test_zero_start(self, zero):
        # A zero start given per coordinate solves as the scalar 0.0 does,
        # whatever the sign of the zero.
        rng = np.random.default_rng(10)
        model = FixedChoiceModel(
            rng.uniform(-0.5, 2.0, (12, 3)), rng.uniform(-1.0, 1.5, (12, 3, 3)),
            rng.uniform(0.5, 4.0, 3),
        )
        state = sgd_solve(model, epochs=20, step0=0.3, alpha0=np.full(3, zero))
        scalar = sgd_solve(model, epochs=20, step0=0.3, alpha0=0.0)
        assert state.dual_value_trace == scalar.dual_value_trace
        assert np.array_equal(state.alpha, scalar.alpha)
        assert np.all(state.alpha >= 0.0)

    def test_input_validation(self):
        model = fixed([[1.0]], [[[1.0]]], [1.0])
        with pytest.raises(ValueError):
            sgd_solve(model, step0=0.0)
        with pytest.raises(ValueError):
            sgd_solve(model, alpha0=[-1.0])
        with pytest.raises(ValueError):
            sgd_solve(model, alpha0=[1.0, 2.0])


class TestBatchConsumption:
    """The base class's per-item loop behind the SGD step."""

    def test_random_models(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            n, m, k = 12, 1 + seed % 3, 1 + seed % 4
            gains, used = rng.uniform(-0.5, 2.0, (n, m)), rng.uniform(-1.0, 1.5, (n, m, k))
            model = FixedChoiceModel(gains, used, rng.uniform(0.5, 4.0, k))
            alpha = rng.uniform(0.0, 1.0, k)
            rows = rng.permutation(n)[: rng.integers(0, n + 1)]
            want = np.zeros(k)
            for i in rows:
                scores = gains[i] - used[i] @ alpha
                j = int(np.argmax(scores))
                if scores[j] > 0.0:
                    want += used[i, j]
            assert np.array_equal(model.batch_consumption(rows, alpha), want)

    def test_nothing_allocated(self):
        # Every gain is negative: no consumption, and each step lowers alpha
        # by eta * B until the projection holds it at zero.
        model = FixedChoiceModel(-np.ones((4, 2)), np.ones((4, 2, 2)), [1.0, 2.0])
        assert np.array_equal(model.batch_consumption(np.arange(4), np.ones(2)), np.zeros(2))
        state = sgd_solve(model, epochs=10, alpha0=0.5)
        assert np.all(np.diff(state.dual_value_trace) <= 0.0)
        assert np.array_equal(state.alpha, np.zeros(2))

    def test_consumption_of_the_wrong_length_raises(self):
        class ShortConsumption(FixedChoiceModel):
            def consumption(self, i, j, sub_choice):
                return np.ones(1)

        model = ShortConsumption(np.ones((2, 1)), np.ones((2, 1, 2)), [1.0, 1.0])
        with pytest.raises(ValueError, match="shape"):
            model.batch_consumption(np.arange(2), np.zeros(2))
        with pytest.raises(ValueError):
            sgd_solve(model, epochs=1, alpha0=0.0)


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
        objective, consumption = 0.0, np.zeros(2)
        for i in range(model.n_items):
            subs, scores = model.item_best(i, alpha)
            j = int(np.argmax(scores))
            # One user per item, never one strictly dominated by another.
            if scores[j] >= 0.0:
                objective += model.gain(i, j, float(subs[j]))
                consumption += model.consumption(i, j, float(subs[j]))
        primal = primal_value_of_strategy(model, alpha)
        assert primal.objective == objective
        assert np.array_equal(primal.consumption, consumption)


class TestDualStateJson:
    def test_round_trip(self):
        state = DualState(
            alpha=np.asarray([0.5, 0.0]), iteration=42, dual_value_trace=[3.0, 2.5, 2.4]
        )
        payload = dual_state_to_json(state)
        assert set(payload) == {"alpha", "iterations", "dual_trace"}
        assert json.loads(json.dumps(payload)) == payload
