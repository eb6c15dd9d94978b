"""Synthetic instance generation and auction simulation.

Two execution modes cover different questions. Expectation mode evaluates the
dual-based strategy analytically (win probabilities and expected costs in
closed form), which isolates solver correctness from sampling noise.
Monte-Carlo mode samples the highest competing bid per impression, applies
the second-price rule (win iff bid exceeds it, pay it), and lets feedback
strategies adjust their parameters between epochs; running several strategies
on a common seed reuses identical draws, so comparisons are paired.

Only the auction outcome is sampled: won impressions are credited their
expected performance, which keeps windowed ROI estimates usable at desk
scale. Realized consumption of a constraint row mirrors its encoding, with
the win indicator in place of the win probability and the paid price in
place of the expected cost.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import mmkp
from .dsp import Ad, DspChoiceModel, DspInstance, Impression
from .dsp import bid_decision  # noqa: F401 - perfbench/tracing.py wraps sim.bid_decision
from .landscape import LandscapePrior
from .strategies import OrtbState, lin_bid, multiplicative_update, ortb_bid, ortb_fit_c
from .utility import (
    AdEconomics,
    ConstraintKind,
    ConstraintSpec,
    DEFAULT_BID_CAP,
    ObjectiveKind,
    ObjectiveSpec,
    PaymentMode,
)

__all__ = [
    "CONSTRAINT_CSV_HEADER",
    "EPOCH_CSV_HEADER",
    "ConstraintRow",
    "DualBidStrategy",
    "EpochMetrics",
    "FixedAlphaStrategy",
    "InstanceFormatError",
    "InvalidRangeError",
    "LinStrategy",
    "MockConfig",
    "OrtbStrategy",
    "STRATEGY_PARAMS",
    "SimReport",
    "Strategy",
    "compare_strategies",
    "gen_mock_instance",
    "instance_from_json",
    "instance_target_roi",
    "instance_to_json",
    "load_instance",
    "make_strategy",
    "run_expectation",
    "run_monte_carlo",
    "save_instance",
    "write_constraints_csv",
    "write_epoch_metrics_csv",
]


class InvalidRangeError(ValueError):
    """A mock-config sampling range is malformed."""


class InstanceFormatError(ValueError):
    """An instance JSON document does not match the expected schema."""


# ---------------------------------------------------------------------------
# Mock instance generation
# ---------------------------------------------------------------------------


@dataclass
class MockConfig:
    """Knobs for synthetic instance generation; defaults give the standard
    two-ad case: budgets 20 and 10 scoped per ad, a global DSP ROI floor of 2
    and a global advertiser ROI floor of 0.5.

    Sampling ranges are uniform and are this harness's choice; they are tuned
    so the budgets stay slack and the DSP ROI constraint binds.
    """

    n_impressions: int = 200
    ads: tuple[float, ...] = (1.0, 2.0)
    mode: PaymentMode = PaymentMode.P4P
    objective_kind: ObjectiveKind = ObjectiveKind.REVENUE
    constraints: list[ConstraintSpec] | None = None
    mu_range: tuple[float, float] = (-4.0, -2.0)
    sigma_range: tuple[float, float] = (0.3, 0.9)
    ppi_range: tuple[float, float] = (0.0, 0.1)
    bid_cap: float = DEFAULT_BID_CAP
    seed: int = 0

    def validate(self) -> None:
        for name in ("n_impressions", "seed"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)):
                raise InvalidRangeError(f"{name} must be an integer, got {value!r}")
        if self.n_impressions < 0:
            raise InvalidRangeError(f"n_impressions must be >= 0, got {self.n_impressions}")
        if not (
            _is_sequence_of_numbers(self.ads)
            and all(math.isfinite(v) and v > 0.0 for v in self.ads)
        ):
            raise InvalidRangeError(
                f"ads must be a sequence of finite positive numbers, got {self.ads!r}"
            )
        if not self.ads:
            raise InvalidRangeError("at least one ad is required")
        for name, pair in (
            ("mu_range", self.mu_range),
            ("sigma_range", self.sigma_range),
            ("ppi_range", self.ppi_range),
        ):
            if not (_is_sequence_of_numbers(pair) and len(pair) == 2):
                raise InvalidRangeError(f"{name} must be a (lo, hi) pair of numbers, got {pair!r}")
            lo, hi = pair
            if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                raise InvalidRangeError(f"{name} must be a finite (lo, hi) pair, got {(lo, hi)}")
        if self.sigma_range[0] <= 0.0:
            raise InvalidRangeError("sigma_range must be strictly positive")
        if self.ppi_range[0] < 0.0:
            raise InvalidRangeError("ppi_range must be nonnegative")
        if not _is_number(self.bid_cap):
            raise InvalidRangeError(f"bid_cap must be a number, got {self.bid_cap!r}")
        if self.constraints is not None and not (
            isinstance(self.constraints, Sequence)
            and all(isinstance(c, ConstraintSpec) for c in self.constraints)
        ):
            raise InvalidRangeError(
                "constraints must be None or a sequence of ConstraintSpec, "
                f"got {self.constraints!r}"
            )


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_sequence_of_numbers(value) -> bool:
    return (
        isinstance(value, Sequence)
        and not isinstance(value, str)
        and all(_is_number(v) for v in value)
    )


def _default_constraints(ad_ids: list[str], mode: PaymentMode) -> list[ConstraintSpec]:
    everyone = frozenset(ad_ids)
    rows: list[ConstraintSpec] = []
    budgets = [20.0, 10.0] if len(ad_ids) == 2 else [20.0] * len(ad_ids)
    for ad_id, budget in zip(ad_ids, budgets):
        rows.append(ConstraintSpec(ConstraintKind.BUDGET, mode, budget, frozenset([ad_id])))
    rows.append(ConstraintSpec(ConstraintKind.DSP_ROI, mode, 2.0, everyone))
    rows.append(ConstraintSpec(ConstraintKind.ADVERTISER_ROI, mode, 0.5, everyone))
    return rows


def gen_mock_instance(config: MockConfig) -> DspInstance:
    """Draw a deterministic synthetic instance from the config seed."""
    config.validate()
    ad_ids = [f"ad{j + 1}" for j in range(len(config.ads))]
    if config.mode is PaymentMode.P4P:
        ads = [Ad(ad_id, AdEconomics(cpp=value)) for ad_id, value in zip(ad_ids, config.ads)]
    else:
        ads = [Ad(ad_id, AdEconomics(cr=value)) for ad_id, value in zip(ad_ids, config.ads)]
    constraints = (
        list(config.constraints)
        if config.constraints is not None
        else _default_constraints(ad_ids, config.mode)
    )
    rng = np.random.default_rng(config.seed)
    mus = rng.uniform(*config.mu_range, config.n_impressions)
    sigmas = rng.uniform(*config.sigma_range, config.n_impressions)
    ppi = rng.uniform(*config.ppi_range, (config.n_impressions, len(ads)))
    impressions = [
        Impression(i, LandscapePrior(float(mus[i]), float(sigmas[i])), tuple(ppi[i]))
        for i in range(config.n_impressions)
    ]
    return DspInstance(
        mode=config.mode,
        objective=ObjectiveSpec(config.mode, config.objective_kind),
        ads=ads,
        constraints=constraints,
        impressions=impressions,
        bid_cap=config.bid_cap,
    )


# ---------------------------------------------------------------------------
# Instance JSON
# ---------------------------------------------------------------------------


def instance_to_json(instance: DspInstance, seed: int | None = None) -> dict:
    ads = []
    for ad in instance.ads:
        entry: dict = {"id": ad.id}
        if ad.economics.cpp is not None:
            entry["cpp"] = ad.economics.cpp
        if ad.economics.cr is not None:
            entry["cr"] = ad.economics.cr
        ads.append(entry)
    payload = {
        "mode": instance.mode.value,
        "objective": {"mode": instance.objective.mode.value, "kind": instance.objective.kind.value},
        "bid_cap": instance.bid_cap,
        "ads": ads,
        "constraints": [
            {
                "kind": spec.kind.value,
                "mode": spec.mode.value,
                "bound": spec.bound,
                "scope": sorted(spec.scope),
            }
            for spec in instance.constraints
        ],
        "impressions": [
            {"id": imp.id, "mu": imp.prior.mu, "sigma": imp.prior.sigma, "ppi": list(imp.ppi)}
            for imp in instance.impressions
        ],
    }
    if seed is not None:
        payload["seed"] = seed
    return payload


def instance_from_json(payload: dict) -> DspInstance:
    try:
        mode = PaymentMode(payload["mode"])
        objective = ObjectiveSpec(
            PaymentMode(payload["objective"]["mode"]), ObjectiveKind(payload["objective"]["kind"])
        )
        ads = [
            Ad(entry["id"], AdEconomics(_optional_real(entry, "cpp"), _optional_real(entry, "cr")))
            for entry in payload["ads"]
        ]
        constraints = [
            ConstraintSpec(
                ConstraintKind(entry["kind"]),
                PaymentMode(entry["mode"]),
                float(entry["bound"]),
                frozenset(entry["scope"]),
            )
            for entry in payload["constraints"]
        ]
        impressions = [
            Impression(
                entry.get("id", i),
                LandscapePrior(float(entry["mu"]), float(entry["sigma"])),
                tuple(entry["ppi"]),
            )
            for i, entry in enumerate(payload["impressions"])
        ]
        return DspInstance(
            mode=mode,
            objective=objective,
            ads=ads,
            constraints=constraints,
            impressions=impressions,
            bid_cap=float(payload.get("bid_cap", DEFAULT_BID_CAP)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, InstanceFormatError):
            raise
        raise InstanceFormatError(f"malformed instance document: {exc}") from exc


def _optional_real(entry: dict, key: str) -> float | None:
    value = entry.get(key)
    if value is not None and not _is_number(value):
        raise InstanceFormatError(
            f"ad {entry.get('id')!r}: {key} must be null or a number, got {value!r}"
        )
    return value


def save_instance(path: str | Path, instance: DspInstance, seed: int | None = None) -> None:
    with open(path, "w") as handle:
        json.dump(instance_to_json(instance, seed), handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_instance(path: str | Path) -> DspInstance:
    with open(path) as handle:
        return instance_from_json(json.load(handle))


def instance_target_roi(instance: DspInstance) -> float | None:
    """Bound of the first DSP-ROI constraint, the natural feedback target."""
    for spec in instance.constraints:
        if spec.kind is ConstraintKind.DSP_ROI:
            return spec.bound
    return None


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstraintRow:
    """Accounting line for one constraint; surplus is derived, never stored."""

    k: int
    limit: float
    consumption: float
    alpha: float | None = None

    @property
    def surplus(self) -> float:
        return self.limit - self.consumption


@dataclass(frozen=True)
class EpochMetrics:
    epoch: int
    revenue: float
    cost: float
    performance: float
    wins: int
    actual_roi: float
    revenue_per_win: float
    param: float | None = None
    degenerate: bool = False


@dataclass
class SimReport:
    primal_value: float | None
    dual_value: float | None
    per_constraint: list[ConstraintRow]
    per_strategy_metrics: dict[str, list[EpochMetrics]] = field(default_factory=dict)

    @property
    def duality_gap_rel(self) -> float | None:
        if self.primal_value is None or self.dual_value is None or self.dual_value == 0.0:
            return None
        return abs(self.primal_value - self.dual_value) / abs(self.dual_value)


def _running_total(values: np.ndarray) -> np.ndarray:
    """Sum over axis 0 from 0.0 in row order (`np.sum` adds pairwise and rounds differently)."""
    return np.cumsum(np.concatenate([np.zeros((1, *values.shape[1:])), values]), axis=0)[-1]


def run_expectation(model: DspChoiceModel, alpha: np.ndarray) -> SimReport:
    """Execute the dual-based strategy analytically and account all constraints."""
    alpha = np.asarray(alpha, dtype=float)
    ad, _, _, prob, cost = model.decide_rows(alpha)
    rows = np.flatnonzero(ad >= 0)
    ad, prob, cost = ad[rows], prob[rows], cost[rows]
    (phi_v, psi_v), (phi_w, psi_w) = model.objective_coeffs, model.constraint_coeffs
    gain = _running_total(phi_v[rows, ad] * prob + psi_v[rows, ad] * cost)
    used = _running_total(phi_w[rows, ad] * prob[:, None] + psi_w[rows, ad] * cost[:, None])
    per_constraint = [
        ConstraintRow(k=k, limit=float(limit), consumption=float(used[k]), alpha=float(alpha[k]))
        for k, limit in enumerate(model.budgets)
    ]
    return SimReport(float(gain), mmkp.dual_objective(model, alpha), per_constraint)


# ---------------------------------------------------------------------------
# Monte-Carlo strategies
# ---------------------------------------------------------------------------


@dataclass
class EpochFeedback:
    """Realized arrays and totals of one epoch handed to a strategy's update rule."""

    bids: np.ndarray
    won: np.ndarray
    paid: np.ndarray
    revenue: float
    cost: float


class Strategy(ABC):
    """Per-epoch bidder with a between-epoch parameter update."""

    name: str

    @abstractmethod
    def reset(self, model: DspChoiceModel) -> None:
        """Prepare a replay of `model.instance`; `model` is the replay's own model."""

    @abstractmethod
    def epoch_bids(self) -> tuple[np.ndarray, np.ndarray]:
        """Chosen ad index (-1 for no bid) and bid price per impression.

        The replay clips every bid to [0, bid_cap], so a strategy need not.
        """

    def end_epoch(self, feedback: EpochFeedback) -> None:  # noqa: B027 - optional hook
        pass

    @property
    def param(self) -> float | None:
        return None


class _WindowedStrategy(Strategy):
    """A P4P bidder on each impression's top-cpi ad, steered toward a target ROI.

    The stream is processed in epochs; parameters update whenever at least
    `update_window` impressions have accumulated since the last update
    (windows round up to whole epochs). Subclasses bid in `epoch_bids` and
    fill three hooks: `_restart` restores the start parameters on `reset`,
    `_observe` sees each epoch's feedback, and `_update` runs once per window.
    """

    def __init__(
        self, name: str, target_roi: float | None, update_window: int, multi: bool = False
    ):
        if update_window < 1:
            raise ValueError(f"update_window must be >= 1, got {update_window}")
        self.name = name
        self.update_window = update_window
        self._target = target_roi
        self._multi = multi

    def reset(self, model: DspChoiceModel) -> None:
        instance = model.instance
        if instance.mode is not PaymentMode.P4P:
            raise ValueError(f"strategy {self.name!r} is defined for P4P instances")
        target = self._target if self._target is not None else instance_target_roi(instance)
        if target is None or not (math.isfinite(target) and target > 0.0):
            raise ValueError(f"strategy {self.name!r} needs a positive, finite target ROI")
        self.target_roi = target
        # Each impression goes to the ad of highest cpi = CPP * PPI within the
        # inventory: with one shared ROI price, the composite's psi is the same
        # for every ad, so this is the landscape-free selection rule.
        inv = np.arange(instance.n_ads) if self._multi else np.zeros(1, dtype=int)
        cpp = np.array([instance.ads[j].economics.require_cpp() for j in inv], dtype=float)
        cpi = cpp * model.ppi[:, inv]
        pick = np.argmax(cpi, axis=1)
        self._ad_idx, self._cpi = inv[pick], cpi[np.arange(model.n_items), pick]
        self._cap = instance.bid_cap
        self._epoch_size = max(len(instance.impressions), 1)
        self._window_revenue = 0.0
        self._window_cost = 0.0
        self._window_impressions = 0
        self._restart()

    def end_epoch(self, feedback: EpochFeedback) -> None:
        self._window_revenue += feedback.revenue
        self._window_cost += feedback.cost
        self._window_impressions += self._epoch_size
        self._observe(feedback)
        if self._window_impressions >= self.update_window:
            actual = self._window_revenue / self._window_cost if self._window_cost > 0.0 else 0.0
            self._update(actual)
            self._window_revenue = 0.0
            self._window_cost = 0.0
            self._window_impressions = 0

    @abstractmethod
    def _restart(self) -> None:
        """Restore the start parameters."""

    def _observe(self, feedback: EpochFeedback) -> None:
        pass

    @abstractmethod
    def _update(self, actual_roi: float) -> None:
        """Move the parameter toward the target after a window with `actual_roi`."""


class DualBidStrategy(_WindowedStrategy):
    """Feedback-mode dual bidder: bp = (cpi / roi) * (1 + 1/alpha).

    `db_single` restricts the inventory to the first ad; `db_multi` uses all
    of them. The scalar price is steered by the multiplicative ROI rule.
    """

    def __init__(
        self, name: str = "db_single", alpha0: float = 1.0, target_roi: float | None = None,
        multi: bool = False, update_window: int = 1000,
    ):
        if not (math.isfinite(alpha0) and alpha0 > 0.0):
            raise ValueError(f"alpha0 must be positive and finite, got {alpha0!r}")
        super().__init__(name, target_roi, update_window, multi)
        self.alpha = alpha0
        self._alpha0 = alpha0

    def _restart(self) -> None:
        self.alpha = self._alpha0

    def epoch_bids(self) -> tuple[np.ndarray, np.ndarray]:
        return self._ad_idx, self._cpi / self.target_roi * (1.0 + 1.0 / self.alpha)

    def _update(self, actual_roi: float) -> None:
        self.alpha = multiplicative_update(self.alpha, self.target_roi, actual_roi).value

    @property
    def param(self) -> float | None:
        return self.alpha


class _GrowingArray:
    """A float array appended to in place; its capacity doubles when it runs out."""

    def __init__(self) -> None:
        self._data = np.empty(0)
        self._size = 0

    def extend(self, values: np.ndarray) -> None:
        end = self._size + values.size
        if end > self._data.size:
            grown = np.empty(max(end, 2 * self._data.size))
            grown[: self._size] = self._data[: self._size]
            self._data = grown
        self._data[self._size : end] = values
        self._size = end

    @property
    def view(self) -> np.ndarray:
        """The values appended so far, in order, as a view of the storage."""
        return self._data[: self._size]


class OrtbStrategy(_WindowedStrategy):
    """Win-curve baseline: bids the shaded-surplus maximizer of w(bp) = bp/(c+bp).

    The curve scale c is refitted at window boundaries from all won/lost
    observations accumulated so far (an expanding fit window keeps it from
    whipsawing the shadow price); the shadow price follows the multiplicative
    ROI rule. Each epoch's won costs and lost bids are appended to two
    growing arrays, and a refit reads views of them, so a window copies only
    its own epochs' observations.
    """

    def __init__(
        self, name: str = "ortb", c0: float = 1.0, lambda0: float = 1.0,
        target_roi: float | None = None, update_window: int = 1000,
    ):
        super().__init__(name, target_roi, update_window)
        self.state = OrtbState(c=c0, lam=lambda0)
        self._c0, self._lambda0 = c0, lambda0

    def _restart(self) -> None:
        self.state = OrtbState(c=self._c0, lam=self._lambda0)
        # Won costs and lost bids of every epoch so far, in replay order.
        self._won_costs = _GrowingArray()
        self._lost_bids = _GrowingArray()

    def epoch_bids(self) -> tuple[np.ndarray, np.ndarray]:
        return self._ad_idx, ortb_bid(self.state, self._cpi, self.target_roi)

    def _observe(self, feedback: EpochFeedback) -> None:
        active = feedback.bids > 0.0
        self._won_costs.extend(feedback.paid[active & feedback.won])
        self._lost_bids.extend(feedback.bids[active & ~feedback.won])

    def _update(self, actual_roi: float) -> None:
        won = self._won_costs.view
        c = ortb_fit_c(won, self._lost_bids.view).c if won.size else self.state.c
        lam = multiplicative_update(self.state.lam, self.target_roi, actual_roi).value
        self.state = OrtbState(c=c, lam=lam)

    @property
    def param(self) -> float | None:
        return self.state.lam


class LinStrategy(_WindowedStrategy):
    """Flat linear bidding: per-ad level (actual ROI / target) * base bid.

    Its update period is `cadence` times the shared window (daily versus
    intra-day at production scale), always rescaling from the operator base.
    """

    def __init__(
        self, name: str = "lin", bid_base: float = 1.0, cadence: int = 10,
        target_roi: float | None = None, update_window: int = 1000,
    ):
        if cadence < 1:
            raise ValueError(f"cadence must be >= 1, got {cadence}")
        if bid_base <= 0.0:
            raise ValueError(f"bid_base must be positive, got {bid_base!r}")
        super().__init__(name, target_roi, update_window * cadence)
        self.bid_base = bid_base
        self.cadence = cadence

    def _restart(self) -> None:
        self.level = self.bid_base

    def epoch_bids(self) -> tuple[np.ndarray, np.ndarray]:
        return self._ad_idx, np.full(self._ad_idx.shape, self.level)

    def _update(self, actual_roi: float) -> None:
        self.level = lin_bid(self.bid_base, actual_roi, self.target_roi, self._cap).value

    @property
    def param(self) -> float | None:
        # The level the replay bid: it clips a start level above the cap.
        return min(self.level, self._cap)


class FixedAlphaStrategy(Strategy):
    """Replays the dual-based decisions at a frozen price vector (no updates)."""

    def __init__(self, alpha: Sequence[float], name: str = "fixed_alpha"):
        self.name = name
        self.alpha = np.asarray(alpha, dtype=float)
        if not np.all(np.isfinite(self.alpha) & (self.alpha >= 0.0)):
            raise ValueError(f"fixed_alpha prices must be finite and nonnegative, got {alpha!r}")

    def reset(self, model: DspChoiceModel) -> None:
        if self.alpha.shape != (model.n_constraints,):
            raise ValueError(
                f"{self.name} needs {model.n_constraints} prices, one per constraint, "
                f"got alpha of shape {self.alpha.shape}"
            )
        decisions = model.decide_rows(self.alpha)
        self._ad_idx, self._bids = decisions.ad, decisions.bp

    def epoch_bids(self) -> tuple[np.ndarray, np.ndarray]:
        return self._ad_idx, self._bids


_FEEDBACK_PARAMS = frozenset({"target_roi", "update_window"})

#: The keyword parameters `make_strategy` accepts for each strategy name.
STRATEGY_PARAMS: dict[str, frozenset[str]] = {
    "db_single": _FEEDBACK_PARAMS | {"alpha0"},
    "db_multi": _FEEDBACK_PARAMS | {"alpha0"},
    "ortb": _FEEDBACK_PARAMS | {"c0", "lambda0"},
    "lin": _FEEDBACK_PARAMS | {"bid_base", "cadence"},
    "fixed_alpha": frozenset({"alpha"}),
}


def make_strategy(name: str, params: dict | None = None) -> Strategy:
    """Build a strategy from a config name plus keyword parameters.

    `params` is user input, so a malformed one raises `ValueError`: a
    non-dict, a key the strategy does not take, or a value of the wrong
    type. `alpha` is a price vector and every other value a finite real
    number.
    """
    if name not in STRATEGY_PARAMS:
        raise ValueError(f"unknown strategy {name!r}")
    params = {} if params is None else params
    if not isinstance(params, dict):
        raise ValueError(f"strategy parameters must be a JSON object, got {params!r}")
    for key, value in params.items():
        if key not in STRATEGY_PARAMS[name]:
            raise ValueError(
                f"strategy {name!r} takes no parameter {key!r}; "
                f"it takes {sorted(STRATEGY_PARAMS[name])}"
            )
        if key != "alpha" and not (_is_number(value) and math.isfinite(value)):
            raise ValueError(f"strategy parameter {key!r} must be a finite number, got {value!r}")
    if name == "fixed_alpha":
        if "alpha" not in params:
            raise ValueError("fixed_alpha needs an 'alpha' vector parameter")
        return FixedAlphaStrategy(**params)
    if name == "ortb":
        return OrtbStrategy(name=name, **params)
    if name == "lin":
        return LinStrategy(name=name, **params)
    return DualBidStrategy(name=name, multi=name == "db_multi", **params)


# ---------------------------------------------------------------------------
# Monte-Carlo execution
# ---------------------------------------------------------------------------


def run_monte_carlo(
    instance: DspInstance, strategy: Strategy, epochs: int, seed: int
) -> SimReport:
    """Simulate `epochs` passes over the impression stream with one strategy.

    Each epoch draws the highest competing bid per impression from its prior;
    the strategy wins where its bid is strictly higher and pays the draw.
    The strategy's update hook runs between epochs. Draws depend only on
    (seed, epoch), so distinct strategies replayed with one seed face
    identical auctions.

    The chosen ads' coefficient rows are gathered again only when the
    strategy's ad indices differ in value from those of the last gather, so
    a strategy may return a new array or mutate the same one in place.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    n = len(instance.impressions)
    model = DspChoiceModel(instance)
    phi_v, psi_v = model.objective_coeffs
    phi_w, psi_w = model.constraint_coeffs
    ppi, mus, sigmas = model.ppi, model.mu, model.sigma
    rows = np.arange(n)

    strategy.reset(model)
    rng = np.random.default_rng(seed)
    metrics: list[EpochMetrics] = []
    consumption_total = np.zeros(instance.n_constraints)
    gathered_for = None
    for epoch in range(epochs):
        x = np.exp(mus + sigmas * rng.standard_normal(n))
        ad_idx, bids = strategy.epoch_bids()
        if gathered_for is None or not np.array_equal(ad_idx, gathered_for):
            gathered_for = np.array(ad_idx, copy=True)
            has_ad = ad_idx >= 0
            sel = np.where(has_ad, ad_idx, 0)
            rev_won, rev_paid = phi_v[rows, sel], psi_v[rows, sel]
            perf_won = ppi[rows, sel]
            use_won, use_paid = phi_w[rows, sel, :], psi_w[rows, sel, :]
        bids = np.minimum(np.maximum(bids, 0.0), instance.bid_cap)
        active = has_ad & (bids > 0.0)
        won = active & (bids > x)
        paid = np.where(won, x, 0.0)
        revenue_vec = np.where(won, rev_won, 0.0) + rev_paid * paid
        perf_vec = np.where(won, perf_won, 0.0)
        consumption_total += (
            np.where(won[:, None], use_won, 0.0) + use_paid * paid[:, None]
        ).sum(axis=0)

        revenue = float(np.sum(revenue_vec))
        cost = float(np.sum(paid))
        wins = int(np.sum(won))
        degenerate = cost <= 0.0
        metrics.append(
            EpochMetrics(
                epoch=epoch,
                revenue=revenue,
                cost=cost,
                performance=float(np.sum(perf_vec)),
                wins=wins,
                actual_roi=revenue / cost if not degenerate else 0.0,
                revenue_per_win=revenue / wins if wins else 0.0,
                param=strategy.param,
                degenerate=degenerate,
            )
        )
        strategy.end_epoch(EpochFeedback(bids=bids, won=won, paid=paid, revenue=revenue, cost=cost))

    # Realized consumption is reported as the per-epoch mean over the run.
    per_constraint = [
        ConstraintRow(
            k=k, limit=float(model.budgets[k]), consumption=float(consumption_total[k] / epochs)
        )
        for k in range(instance.n_constraints)
    ]
    return SimReport(
        primal_value=None,
        dual_value=None,
        per_constraint=per_constraint,
        per_strategy_metrics={strategy.name: metrics},
    )


def compare_strategies(
    instance: DspInstance, strategies: Sequence[Strategy], epochs: int, seed: int
) -> SimReport:
    """Run several strategies over identical auction streams (common seed)."""
    if len(strategies) < 2:
        raise ValueError("strategy comparison needs at least two strategies")
    names = [s.name for s in strategies]
    if len(set(names)) != len(names):
        raise ValueError(f"strategy names must be unique, got {names}")
    merged: dict[str, list[EpochMetrics]] = {}
    for strategy in strategies:
        report = run_monte_carlo(instance, strategy, epochs, seed)
        merged.update(report.per_strategy_metrics)
    return SimReport(
        primal_value=None,
        dual_value=None,
        per_constraint=[],
        per_strategy_metrics=merged,
    )


# ---------------------------------------------------------------------------
# Report files
# ---------------------------------------------------------------------------

CONSTRAINT_CSV_HEADER = ["k", "limit", "consumption", "surplus", "alpha"]
EPOCH_CSV_HEADER = [
    "epoch",
    "revenue",
    "cost",
    "performance",
    "wins",
    "actual_roi",
    "revenue_per_win",
    "param",
    "degenerate",
]


def write_constraints_csv(path: str | Path, rows: Sequence[ConstraintRow]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CONSTRAINT_CSV_HEADER)
        for row in rows:
            writer.writerow(
                [
                    row.k,
                    repr(row.limit),
                    repr(row.consumption),
                    repr(row.surplus),
                    "" if row.alpha is None else repr(row.alpha),
                ]
            )


def write_epoch_metrics_csv(path: str | Path, metrics: Sequence[EpochMetrics]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(EPOCH_CSV_HEADER)
        for m in metrics:
            writer.writerow(
                [
                    m.epoch,
                    repr(m.revenue),
                    repr(m.cost),
                    repr(m.performance),
                    m.wins,
                    repr(m.actual_roi),
                    repr(m.revenue_per_win),
                    "" if m.param is None else repr(m.param),
                    int(m.degenerate),
                ]
            )
