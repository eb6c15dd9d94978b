"""Dual decomposition for the knapsack relaxation with continuous sub-choices.

The primal allocates each item to at most one user, where the pair (item,
user) additionally carries a continuous sub-choice whose gain V and resource
consumptions W^(k) it determines. Pricing the K shared resources with a
nonnegative vector alpha decouples the problem per item: each pair proposes
its best compromised score S_ij(alpha) = max over sub-choices of
V - sum_k alpha_k W^(k), the item goes to the top scorer when that score is
nonnegative, and alpha itself is found by minimizing the convex dual

    D(alpha) = sum_k alpha_k B_k + sum_i max(0, max_j S_ij(alpha))

with projected stochastic subgradient steps over items.

The generic `ChoiceModel` methods derive everything from `item_best`;
`dsp.DspChoiceModel` answers from its one array kernel, `decide_rows`.
"""

from __future__ import annotations

import json
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "AllocationDecision",
    "ChoiceModel",
    "DivergenceError",
    "DualState",
    "PrimalResult",
    "beta_value",
    "decide",
    "dual_objective",
    "dual_state_from_json",
    "dual_state_to_json",
    "primal_value_of_strategy",
    "score_f",
    "sgd_solve",
]


class DivergenceError(RuntimeError):
    """The dual objective grew past the divergence guard (bad step size or model)."""


class ChoiceModel(ABC):
    """Per-(item, user) best responses against a resource price vector.

    Implementations expose the instance dimensions and, for each item, the
    vector of score-maximizing sub-choices and scores across users, plus the
    gain and per-constraint consumption of any concrete sub-choice.
    """

    @property
    @abstractmethod
    def n_items(self) -> int: ...

    @property
    @abstractmethod
    def n_users(self) -> int: ...

    @property
    @abstractmethod
    def budgets(self) -> np.ndarray:
        """Resource limits B, shape (K,)."""

    @abstractmethod
    def item_best(self, i: int, alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Best sub-choice and score per user for item `i`, shapes (M,), (M,)."""

    @abstractmethod
    def gain(self, i: int, j: int, sub_choice: float) -> float:
        """Gain V of assigning item `i` to user `j` at `sub_choice`."""

    @abstractmethod
    def consumption(self, i: int, j: int, sub_choice: float) -> np.ndarray:
        """Consumptions W^(k) of the assignment, shape (K,)."""

    @property
    def n_constraints(self) -> int:
        return len(self.budgets)

    def dominant_consumption(self, i: int, alpha: np.ndarray) -> np.ndarray | None:
        """Consumption W of item `i`'s top-scoring assignment when that score is > 0.

        Returns None when no user scores above zero. Ties go to the lowest user
        index, as in `np.argmax`. This is all one SGD step needs from a model;
        models may override it with a fused kernel that returns the same bits.
        """
        subs, scores = self.item_best(i, alpha)
        if scores.size:
            j = int(np.argmax(scores))
            if scores[j] > 0.0:
                return self.consumption(i, j, float(subs[j]))
        return None

    def beta_sum(self, alpha: np.ndarray) -> float:
        """Sum of per-item dual inner values; models may vectorize this."""
        total = 0.0
        for i in range(self.n_items):
            _, scores = self.item_best(i, alpha)
            if scores.size:
                total += max(0.0, float(scores.max()))
        return total


def score_f(model: ChoiceModel, i: int, j: int, sub_choice: float, alpha: np.ndarray) -> float:
    """Compromised gain V - sum_k alpha_k W^(k) of a concrete assignment."""
    return model.gain(i, j, sub_choice) - float(
        np.dot(np.asarray(alpha, dtype=float), model.consumption(i, j, sub_choice))
    )


@dataclass(frozen=True)
class AllocationDecision:
    """Outcome for one item: the winning user and sub-choice, or nothing."""

    chosen_user: int | None
    sub_choice: float | None
    best_score: float


def decide(
    model: ChoiceModel,
    i: int,
    alpha: np.ndarray,
    tie_break: str = "lowest",
    rng: np.random.Generator | None = None,
) -> AllocationDecision:
    """Allocate item `i` at prices `alpha`: top scorer wins iff its score is >= 0.

    Ties go to the lowest user index by default; `tie_break="random"` draws
    uniformly among the tied top scorers using `rng` (reproducible by seed).
    """
    subs, scores = model.item_best(i, np.asarray(alpha, dtype=float))
    if scores.size == 0:
        return AllocationDecision(None, None, -math.inf)
    if tie_break == "random":
        if rng is None:
            raise ValueError("random tie-break needs an rng")
        top = np.flatnonzero(scores == scores.max())
        j = int(top[rng.integers(top.size)])
    elif tie_break == "lowest":
        j = int(np.argmax(scores))
    else:
        raise ValueError(f"unknown tie_break {tie_break!r}")
    best = float(scores[j])
    if best >= 0.0:
        return AllocationDecision(j, float(subs[j]), best)
    return AllocationDecision(None, None, best)


def beta_value(model: ChoiceModel, i: int, alpha: np.ndarray) -> float:
    """Dual inner value for item `i`: max(0, max_j S_ij(alpha))."""
    _, scores = model.item_best(i, np.asarray(alpha, dtype=float))
    return max(0.0, float(scores.max())) if scores.size else 0.0


def dual_objective(model: ChoiceModel, alpha: np.ndarray) -> float:
    """Dual value sum_k alpha_k B_k + sum_i beta_i(alpha)."""
    alpha = np.asarray(alpha, dtype=float)
    return float(alpha @ model.budgets) + model.beta_sum(alpha)


@dataclass
class DualState:
    """Solver output: the price vector plus diagnostics of the SGD run."""

    alpha: np.ndarray
    iteration: int
    dual_value_trace: list[float]
    alpha_trace: list[np.ndarray] = field(default_factory=list, repr=False)
    best_epoch: int = 0

    @property
    def dual_value(self) -> float:
        return min(self.dual_value_trace)


def dual_state_to_json(state: DualState) -> dict:
    return {
        "alpha": [float(a) for a in state.alpha],
        "iterations": state.iteration,
        "dual_trace": [float(v) for v in state.dual_value_trace],
    }


def dual_state_from_json(payload: dict) -> DualState:
    return DualState(
        alpha=np.asarray(payload["alpha"], dtype=float),
        iteration=int(payload["iterations"]),
        dual_value_trace=[float(v) for v in payload["dual_trace"]],
    )


def sgd_solve(
    model: ChoiceModel,
    step0: float = 0.1,
    epochs: int = 200,
    shuffle_seed: int = 0,
    alpha0: float | Sequence[float] = 1.0,
    divergence_factor: float = 1e6,
) -> DualState:
    """Minimize the dual by projected stochastic subgradient descent.

    Items are visited in a reshuffled order each epoch. The per-item
    subgradient of G_i = sum_k alpha_k B_k / N + beta_i is B_k / N minus the
    dominating assignment's consumption when its score is positive (zero
    otherwise); steps follow the diminishing schedule step0 / sqrt(1 + t/N)
    and every update projects back onto alpha >= 0.

    The step asks the model for that consumption alone, through
    `model.dominant_consumption(i, alpha)` (None when nothing scores above
    zero). The base-class method derives it from `item_best` and
    `consumption`; `DspChoiceModel` overrides it with a fused scalar kernel
    that returns the same bits.

    The returned alpha is the best of the epoch-end iterates and the tail
    average of the last quarter of epochs, judged by dual value; plain last
    iterates of subgradient methods oscillate around the minimizer and both
    candidates are standard cures. Raises `DivergenceError` if the dual value
    grows past `divergence_factor` times its initial magnitude.
    """
    if not (math.isfinite(step0) and step0 > 0.0):
        raise ValueError(f"step0 must be positive and finite, got {step0!r}")
    if epochs < 0:
        raise ValueError(f"epochs must be nonnegative, got {epochs!r}")
    n_items = model.n_items
    k = model.n_constraints
    alpha = np.full(k, float(alpha0)) if np.ndim(alpha0) == 0 else np.asarray(alpha0, dtype=float)
    if alpha.shape != (k,):
        raise ValueError(f"alpha0 must broadcast to shape ({k},)")
    if not np.all(np.isfinite(alpha) & (alpha >= 0.0)):
        raise ValueError("alpha0 must be finite and nonnegative")

    rng = np.random.default_rng(shuffle_seed)
    trace = [dual_objective(model, alpha)]
    alpha_trace = [alpha.copy()]
    best_alpha, best_value, best_epoch = alpha.copy(), trace[0], 0
    guard = divergence_factor * max(1.0, abs(trace[0]))
    b_over_n = model.budgets / max(n_items, 1)

    t = 0
    for epoch in range(epochs):
        for i in rng.permutation(n_items).tolist():
            eta = step0 / math.sqrt(1.0 + t / max(n_items, 1))
            used = model.dominant_consumption(i, alpha)
            grad = b_over_n if used is None else b_over_n - used
            alpha = np.maximum(0.0, alpha - eta * grad)
            t += 1
        value = dual_objective(model, alpha)
        trace.append(value)
        alpha_trace.append(alpha.copy())
        if value < best_value:
            best_alpha, best_value, best_epoch = alpha.copy(), value, epoch + 1
        if value > guard:
            raise DivergenceError(
                f"dual value {value:.6g} exceeded {guard:.6g} after epoch {epoch + 1}"
            )

    tail = alpha_trace[max(1, len(alpha_trace) - max(1, epochs // 4)) :]
    if tail:
        averaged = np.mean(tail, axis=0)
        value = dual_objective(model, averaged)
        if value < best_value:
            trace.append(value)
            alpha_trace.append(averaged.copy())
            best_alpha, best_value, best_epoch = averaged, value, len(trace) - 1

    return DualState(
        alpha=best_alpha,
        iteration=t,
        dual_value_trace=trace,
        alpha_trace=alpha_trace,
        best_epoch=best_epoch,
    )


@dataclass(frozen=True)
class PrimalResult:
    """Objective and per-constraint consumption of executing the strategy."""

    objective: float
    consumption: np.ndarray


def primal_value_of_strategy(model: ChoiceModel, alpha: np.ndarray) -> PrimalResult:
    """Execute `decide` on every item and total the chosen gains and consumptions."""
    alpha = np.asarray(alpha, dtype=float)
    objective = 0.0
    consumption = np.zeros(model.n_constraints)
    for i in range(model.n_items):
        decision = decide(model, i, alpha)
        if decision.chosen_user is not None:
            objective += model.gain(i, decision.chosen_user, decision.sub_choice)
            consumption += model.consumption(i, decision.chosen_user, decision.sub_choice)
    return PrimalResult(objective=objective, consumption=consumption)
