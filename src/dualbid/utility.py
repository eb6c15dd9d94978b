"""Utility family over auction landscapes and the objective/constraint encoders.

Every practical bidding objective and constraint reduces to the same shape:
f(bp) = phi * Prob(bp) + psi * Cost(bp) = integral of (phi + psi x) p(x) dx
over [0, bp]. Gains and resource consumptions are both members, so a priced
composite of them stays in the family. The encoders below map declarative
P4P/P4U objective and constraint specs to their (phi, psi) pair and, for
constraints, the resource limit B. Each coefficient is either proportional
to the PPI or free of it, which `dsp.DspChoiceModel` relies on when it reads
an ad's coefficients at PPI 0 and 1 only. The maximizing bid is one array
case table, `best_bids`, which `dsp`'s kernel runs and `argmax_bid` views.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import landscape
from .landscape import LandscapePrior

__all__ = [
    "AdEconomics",
    "ConstraintKind",
    "ConstraintSpec",
    "DEFAULT_BID_CAP",
    "ModeMismatchError",
    "ObjectiveKind",
    "ObjectiveSpec",
    "OptimalBid",
    "PaymentMode",
    "UtilityCoeffs",
    "argmax_bid",
    "best_bids",
    "constraint_limit",
    "derivative",
    "encode_constraint",
    "encode_objective",
    "evaluate",
]

#: Default maximum bid used when a composite has no interior maximizer.
DEFAULT_BID_CAP = 1e4


class ModeMismatchError(ValueError):
    """The payment mode of a spec does not match the ad's economic fields."""


class PaymentMode(Enum):
    P4P = "p4p"
    P4U = "p4u"


class ObjectiveKind(Enum):
    REVENUE = "revenue"
    PERFORMANCE = "performance"


class ConstraintKind(Enum):
    BUDGET = "budget"
    DSP_ROI = "dsp_roi"
    ADVERTISER_ROI = "adv_roi"


@dataclass(frozen=True)
class UtilityCoeffs:
    """Coefficients (phi, psi) of win probability and expected cost."""

    phi: float
    psi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.phi) and math.isfinite(self.psi)):
            raise ValueError(f"coefficients must be finite, got ({self.phi!r}, {self.psi!r})")


@dataclass(frozen=True)
class AdEconomics:
    """Per-ad payment terms: cost per performance (P4P) or commission rate (P4U)."""

    cpp: float | None = None
    cr: float | None = None

    def require_cpp(self) -> float:
        if self.cpp is None or self.cpp <= 0:
            raise ModeMismatchError("P4P encoding needs a positive CPP on the ad")
        return self.cpp

    def require_cr(self) -> float:
        if self.cr is None or self.cr < 0:
            raise ModeMismatchError("P4U encoding needs a nonnegative CR on the ad")
        return self.cr


@dataclass(frozen=True)
class ObjectiveSpec:
    mode: PaymentMode
    kind: ObjectiveKind


@dataclass(frozen=True)
class ConstraintSpec:
    """Declarative constraint: budget or ROI bound over a set of ads."""

    kind: ConstraintKind
    mode: PaymentMode
    bound: float
    scope: frozenset[str]

    def __post_init__(self) -> None:
        if not (math.isfinite(self.bound) and self.bound > 0.0):
            raise ValueError(f"constraint bound must be positive, got {self.bound!r}")
        if not self.scope:
            raise ValueError("constraint scope must be nonempty")
        object.__setattr__(self, "scope", frozenset(self.scope))


def evaluate(coeffs: UtilityCoeffs, prior: LandscapePrior, bid_price) -> float:
    """Value of the utility at `bid_price`: phi * Prob(bp) + psi * Cost(bp)."""
    return coeffs.phi * landscape.win_prob(prior, bid_price) + coeffs.psi * landscape.expected_cost(
        prior, bid_price
    )


def derivative(coeffs: UtilityCoeffs, prior: LandscapePrior, bid_price) -> float:
    """Derivative (phi + psi * bp) * p(bp) of the utility in the bid price."""
    return (coeffs.phi + coeffs.psi * bid_price) * landscape.pdf(prior, bid_price)


@dataclass(frozen=True)
class OptimalBid:
    """Maximizing bid price; `unbounded` marks a maximum forced onto the cap."""

    bp: float
    unbounded: bool = False


def best_bids(phi, psi, cap: float, out: np.ndarray) -> np.ndarray:
    """Bid prices maximizing the utility over [0, cap] per (phi, psi) cell, into zeroed `out`.

    The integrand (phi + psi x) p(x) changes sign at most once, so the bid is
    min(-phi/psi, cap) where phi > 0 > psi (an interior maximum), else the cap
    where max(phi, psi) > 0 (nondecreasing, or eventually increasing, where
    the value may still be negative: the caller compares it with the 0 of not
    bidding), else 0 (nonincreasing; NaN included). `out` holds the negated
    bid until the last pass, 0 - out, which leaves a zero bid +0.0.
    """
    positive = np.maximum(phi, psi) > 0.0
    np.copyto(out, -cap, where=positive)
    np.divide(phi, psi, out=out, where=positive & (psi < 0.0))
    np.maximum(out, -cap, out=out)
    return np.subtract(0.0, out, out=out)


def argmax_bid(coeffs: UtilityCoeffs, cap: float = DEFAULT_BID_CAP) -> OptimalBid:
    """`best_bids` of one pair; a -phi/psi past the double range is the cap, without a warning."""
    if not cap > 0.0:
        raise ValueError(f"bid cap must be positive, got {cap!r}")
    phi, psi = coeffs.phi, coeffs.psi
    with np.errstate(over="ignore"):
        bp = float(best_bids(phi, psi, cap, np.zeros(())))
    return OptimalBid(bp, unbounded=max(phi, psi) > 0.0 and not phi > 0.0 > psi)


def encode_objective(spec: ObjectiveSpec, econ: AdEconomics, ppi: float) -> UtilityCoeffs:
    """Per-(impression, ad) gain coefficients for an objective spec.

    P4P revenue is CPP * PPI * Prob, performance is PPI * Prob, and P4U
    revenue is (1 + CR) * Cost; performance is PPI * Prob in either mode.
    """
    if ppi < 0.0:
        raise ValueError(f"ppi must be nonnegative, got {ppi!r}")
    if spec.kind is ObjectiveKind.PERFORMANCE:
        return UtilityCoeffs(ppi, 0.0)
    if spec.mode is PaymentMode.P4P:
        return UtilityCoeffs(econ.require_cpp() * ppi, 0.0)
    return UtilityCoeffs(0.0, 1.0 + econ.require_cr())


def constraint_limit(spec: ConstraintSpec) -> float:
    """Resource limit B of a constraint: the budget for budget rows, else 0."""
    return spec.bound if spec.kind is ConstraintKind.BUDGET else 0.0


def encode_constraint(
    spec: ConstraintSpec, ad_id: str, econ: AdEconomics, ppi: float
) -> tuple[UtilityCoeffs, float]:
    """Per-(impression, ad) consumption coefficients and limit for a constraint.

    ROI lower bounds are rewritten as standard-form resource rows with limit
    0 by clearing the denominator; out-of-scope ads consume nothing.
    """
    if ppi < 0.0:
        raise ValueError(f"ppi must be nonnegative, got {ppi!r}")
    limit = constraint_limit(spec)
    if ad_id not in spec.scope:
        return UtilityCoeffs(0.0, 0.0), limit
    if spec.mode is PaymentMode.P4P:
        cpp = econ.require_cpp()
        if spec.kind is ConstraintKind.BUDGET:
            return UtilityCoeffs(cpp * ppi, 0.0), limit
        if spec.kind is ConstraintKind.DSP_ROI:
            return UtilityCoeffs(-cpp * ppi, spec.bound), limit
        return UtilityCoeffs(cpp * ppi * spec.bound - ppi, 0.0), limit
    cr = econ.require_cr()
    if spec.kind is ConstraintKind.BUDGET:
        return UtilityCoeffs(0.0, 1.0 + cr), limit
    if spec.kind is ConstraintKind.DSP_ROI:
        return UtilityCoeffs(0.0, spec.bound - (1.0 + cr)), limit
    return UtilityCoeffs(-ppi, spec.bound * (1.0 + cr)), limit
