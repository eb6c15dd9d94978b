"""Dual decomposition for the knapsack relaxation with continuous sub-choices.

The primal allocates each item to at most one user, where the pair (item,
user) additionally carries a continuous sub-choice whose gain V and resource
consumptions W^(k) it determines. Pricing the K shared resources with a
nonnegative vector alpha decouples the problem per item: each pair proposes
its best compromised score S_ij(alpha) = max over sub-choices of
V - sum_k alpha_k W^(k), the item goes to the top scorer when that score is
nonnegative, and alpha itself is found by minimizing the convex dual

    D(alpha) = sum_k alpha_k B_k + sum_i max(0, max_j S_ij(alpha))

with projected stochastic subgradient steps over mini-batches of items. A
step needs only the summed consumption of the batch's dominating
assignments, which a model returns as one (K,) array
(`ChoiceModel.batch_consumption`). The solve returns its chosen prices, the
item visits and the dual value after each epoch (`DualState`); of the
iterates themselves it keeps only the last quarter's, for their average.

The generic `ChoiceModel` methods derive everything from `item_best`. Here
the allocation rule is applied only by `primal_value_of_strategy` and the
base `batch_consumption`; the DSP model answers every decision, the SGD step
included, from one array kernel behind `dsp.DspChoiceModel.decide_rows`.

Each epoch of `sgd_solve` starts at the prices whose dual value ended the
epoch before, so its first step asks for a batch at prices the model has
just evaluated over every item. The DSP model keeps that pass for the step:
one kernel pass serves both, and when all items fit in one batch every step
of the solve is served by the dual pass of the prices it starts from.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Items per SGD step; the last batch of an epoch takes the remainder.
BATCH_SIZE = 64
# `sgd_solve` gives up once the dual value exceeds this multiple of its start.
DIVERGENCE_FACTOR = 1e6

__all__ = [
    "ChoiceModel",
    "DivergenceError",
    "DualState",
    "PrimalResult",
    "beta_value",
    "dual_objective",
    "dual_state_to_json",
    "primal_value_of_strategy",
    "sgd_solve",
]


class DivergenceError(RuntimeError):
    """The dual objective grew past the divergence guard (bad step size or model)."""


class ChoiceModel(ABC):
    """Per-(item, user) best responses against a resource price vector.

    Implementations expose the item count and resource limits and, for each
    item, the vector of score-maximizing sub-choices and scores across users,
    plus the gain and per-constraint consumption of any concrete sub-choice.
    The generic methods apply the allocation rule over `item_best`;
    `dsp.DspChoiceModel` overrides them with its array kernel.
    """

    @property
    @abstractmethod
    def n_items(self) -> int: ...

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

    def batch_consumption(self, rows: np.ndarray, alpha: np.ndarray) -> np.ndarray:
        """Summed consumption W of the top-scoring assignment of each item in `rows`.

        An item counts when its top score is > 0; ties go to the lowest user
        index, as in `np.argmax`. Returns shape (K,). This is all one SGD
        step needs from a model; models may answer it from an array kernel.
        """
        total = np.zeros(self.n_constraints)
        for i in np.asarray(rows).tolist():
            subs, scores = self.item_best(i, alpha)
            if scores.size:
                j = int(np.argmax(scores))
                if scores[j] > 0.0:
                    used = self.consumption(i, j, float(subs[j]))
                    if np.shape(used) != total.shape:
                        raise ValueError(
                            f"consumption of item {i} has shape {np.shape(used)}, "
                            f"expected {total.shape}"
                        )
                    total += used
        return total

    def beta_sum(self, alpha: np.ndarray) -> float:
        """Sum of per-item dual inner values; models may vectorize this."""
        return sum((beta_value(self, i, alpha) for i in range(self.n_items)), 0.0)


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

    @property
    def dual_value(self) -> float:
        return min(self.dual_value_trace)


def dual_state_to_json(state: DualState) -> dict:
    return {
        "alpha": [float(a) for a in state.alpha],
        "iterations": state.iteration,
        "dual_trace": [float(v) for v in state.dual_value_trace],
    }


def sgd_solve(
    model: ChoiceModel,
    step0: float = 0.1,
    epochs: int = 200,
    shuffle_seed: int = 0,
    alpha0: float | Sequence[float] = 1.0,
) -> DualState:
    """Minimize the dual by projected stochastic subgradient descent.

    Each epoch walks a fresh permutation of the items in batches of
    `BATCH_SIZE` (fewer for the last batch, and all N when N is smaller).
    The subgradient of sum_{i in batch} G_i, with G_i = sum_k alpha_k B_k / N
    + beta_i, is len(batch) * B / N minus the summed consumption of the
    batch's dominating assignments, which `model.batch_consumption` returns.
    The step size follows the diminishing schedule step0 / sqrt(1 + t/N),
    where t counts the items visited so far, and every update projects back
    onto alpha >= 0.

    The returned alpha is the best of the epoch-end iterates and the tail
    average of the last quarter of epochs, judged by dual value; plain last
    iterates of subgradient methods oscillate around the minimizer and both
    candidates are standard cures. Only that quarter's iterates are kept. With
    no items the dual is alpha . B, which alpha = 0 minimizes for B >= 0, so
    the solve starts and stays there. Raises `DivergenceError` if an epoch's
    dual value exceeds `DIVERGENCE_FACTOR` times max(1, |initial dual value|).
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
    if n_items == 0:
        alpha = np.zeros(k)

    rng = np.random.default_rng(shuffle_seed)
    trace = [dual_objective(model, alpha)]
    best_alpha, best_value = alpha.copy(), trace[0]
    guard = DIVERGENCE_FACTOR * max(1.0, abs(trace[0]))
    tail_from = epochs - max(1, epochs // 4)
    tail = []
    per_epoch = max(n_items, 1)
    share = model.budgets / per_epoch
    t = 0
    for epoch in range(epochs):
        order = rng.permutation(n_items)
        for start in range(0, n_items, BATCH_SIZE):
            rows = order[start : start + BATCH_SIZE]
            eta = step0 / math.sqrt(1.0 + t / per_epoch)
            grad = len(rows) * share - model.batch_consumption(rows, alpha)
            alpha = np.maximum(0.0, alpha - eta * grad)
            t += len(rows)
        value = dual_objective(model, alpha)
        trace.append(value)
        if epoch >= tail_from:
            tail.append(alpha)
        if value < best_value:
            best_alpha, best_value = alpha.copy(), value
        if value > guard:
            raise DivergenceError(
                f"dual value {value:.6g} exceeded {guard:.6g} after epoch {epoch + 1}"
            )

    if tail:
        averaged = np.mean(tail, axis=0)
        value = dual_objective(model, averaged)
        if value < best_value:
            trace.append(value)
            best_alpha, best_value = averaged, value

    return DualState(alpha=best_alpha, iteration=t, dual_value_trace=trace)


@dataclass(frozen=True)
class PrimalResult:
    """Objective and per-constraint consumption of executing the strategy."""

    objective: float
    consumption: np.ndarray


def primal_value_of_strategy(model: ChoiceModel, alpha: np.ndarray) -> PrimalResult:
    """Total gain and consumption of the allocation rule at prices `alpha`.

    Each item goes to its top scorer iff that score is >= 0; ties go to the
    lowest user index, as in `np.argmax`, and an item with no users stays
    unallocated.
    """
    alpha = np.asarray(alpha, dtype=float)
    objective = 0.0
    consumption = np.zeros(model.n_constraints)
    for i in range(model.n_items):
        subs, scores = model.item_best(i, alpha)
        if scores.size:
            j = int(np.argmax(scores))
            if scores[j] >= 0.0:
                objective += model.gain(i, j, float(subs[j]))
                consumption += model.consumption(i, j, float(subs[j]))
    return PrimalResult(objective=objective, consumption=consumption)
