"""Baseline bidding strategies: linear bidding (LIN) and optimal-RTB (ORTB).

Both baselines, like the dual-based bidder, steer a single parameter toward a
target ROI with a multiplicative feedback rule between windows. LIN bids a
flat per-ad level scaled off an operator-set base; ORTB models the win curve
as w(bp; c) = bp / (c + bp) and bids the closed-form maximizer of its shaded
surplus, with c refitted from observed auctions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .landscape import NoWinObservationsError

__all__ = [
    "OrtbFit",
    "OrtbState",
    "PARAM_BOUNDS",
    "UpdateResult",
    "lin_bid",
    "multiplicative_update",
    "ortb_bid",
    "ortb_fit_c",
]

#: Clamp range shared by all feedback-updated parameters.
PARAM_BOUNDS = (1e-6, 1e6)


@dataclass(frozen=True)
class UpdateResult:
    """A feedback-updated value; flags record degenerate windows and clamping."""

    value: float
    degenerate: bool = False
    clamped: bool = False


def multiplicative_update(param: float, target_roi: float, actual_roi: float) -> UpdateResult:
    """Feedback rule param' = (target / actual) * param, clamped to `PARAM_BOUNDS`.

    Shared by ORTB's shadow price and the dual bidder's feedback mode. A
    window with nonpositive actual ROI (no wins, zero cost) carries no signal:
    the parameter is returned unchanged with the degenerate flag set.
    """
    if param <= 0.0 or not math.isfinite(param):
        raise ValueError(f"param must be positive, got {param!r}")
    if target_roi <= 0.0 or not math.isfinite(target_roi):
        raise ValueError(f"target_roi must be positive, got {target_roi!r}")
    if actual_roi <= 0.0 or not math.isfinite(actual_roi):
        return UpdateResult(param, degenerate=True)
    raw = target_roi / actual_roi * param
    clamped = min(max(raw, PARAM_BOUNDS[0]), PARAM_BOUNDS[1])
    return UpdateResult(clamped, clamped=clamped != raw)


def lin_bid(
    bid_base: float,
    actual_roi: float,
    target_roi: float,
    bid_cap: float = PARAM_BOUNDS[1],
) -> UpdateResult:
    """Updated LIN bid level (actual / target) * base, clamped to (0, bid_cap].

    Note the ratio is inverted relative to `multiplicative_update`: a window
    that beat its ROI target can afford to bid above the base. Degenerate
    windows keep the base bid, clamped to the cap.
    """
    if target_roi <= 0.0:
        raise ValueError(f"target_roi must be positive, got {target_roi!r}")
    if actual_roi <= 0.0 or not math.isfinite(actual_roi):
        level = min(bid_base, bid_cap)
        return UpdateResult(level, degenerate=True, clamped=level != bid_base)
    raw = actual_roi / target_roi * bid_base
    clamped = min(max(raw, PARAM_BOUNDS[0]), min(bid_cap, PARAM_BOUNDS[1]))
    return UpdateResult(clamped, clamped=clamped != raw)


@dataclass
class OrtbState:
    """ORTB state: win-curve scale c and shadow price lambda."""

    c: float
    lam: float

    def __post_init__(self) -> None:
        if self.c <= 0.0:
            raise ValueError(f"c must be positive, got {self.c!r}")
        if self.lam <= 0.0:
            raise ValueError(f"lambda must be positive, got {self.lam!r}")


def ortb_bid(state: OrtbState, cpi, target_roi: float):
    """ORTB bid sqrt(c * cpi / roi * (1 + 1/lambda) + c^2) - c, elementwise over cpi."""
    if target_roi <= 0.0:
        raise ValueError(f"target_roi must be positive, got {target_roi!r}")
    cpi_a = np.asarray(cpi, dtype=float)
    out = np.sqrt(state.c * cpi_a / target_roi * (1.0 + 1.0 / state.lam) + state.c * state.c) - state.c
    out = np.maximum(out, 0.0)
    return float(out) if np.ndim(cpi) == 0 else out


@dataclass(frozen=True)
class OrtbFit:
    c: float
    converged: bool
    log_likelihood: float


def _ortb_log_likelihood(c: float, won: np.ndarray, lost: np.ndarray) -> float:
    # Density c/(c+x)^2 for won prices, survival c/(c+bid) for lost auctions.
    ll = won.size * math.log(c) - 2.0 * float(np.sum(np.log(c + won)))
    if lost.size:
        ll += lost.size * math.log(c) - float(np.sum(np.log(c + lost)))
    return ll


def _ortb_score(c: float, won: np.ndarray, lost: np.ndarray, n: int) -> float:
    # n - 2 sum c/(c+won) - sum c/(c+lost): strictly decreasing in c.
    return (
        n
        - 2.0 * float(np.sum(c / (c + won)))
        - (float(np.sum(c / (c + lost))) if lost.size else 0.0)
    )


def ortb_fit_c(won_costs: np.ndarray, lost_bids: np.ndarray) -> OrtbFit:
    """Censored MLE of the win-curve scale c from won costs and lost bids.

    The curve w(bp; c) = bp/(c + bp) implies the competing-bid density
    c/(c + x)^2, so won auctions contribute its log density at the paid cost
    and lost ones the log survival at our bid. Lost bids at or below 0 are
    vacuous and dropped. The score equation in c is strictly monotone, giving
    a unique root found by bracketed root-finding. `landscape.split_observations`
    turns an observation log into the two arrays.
    """
    # Imported here: scipy.optimize takes about 0.3 s to load, and only this
    # fit needs it.
    from scipy.optimize import brentq

    won = np.asarray(won_costs, dtype=float)
    lost = np.asarray(lost_bids, dtype=float)
    if won.size == 0:
        raise NoWinObservationsError("at least one won auction is required")
    if np.any(won <= 0.0):
        raise ValueError("won auctions must have strictly positive paid costs")
    lost = lost[lost > 0.0]
    # The arrays reach the score through `args`, not a closure: brentq wraps
    # its callable in a self-referencing function, and a closure would keep
    # every refit's arrays alive until the cyclic garbage collector runs.
    args = (won, lost, won.size + lost.size)

    lo = 1e-12
    hi = 4.0 * float(np.max(won)) + 1.0
    while _ortb_score(hi, *args) > 0.0 and hi < 1e15:
        hi *= 10.0
    if _ortb_score(hi, *args) > 0.0:
        return OrtbFit(hi, converged=False, log_likelihood=_ortb_log_likelihood(hi, won, lost))
    c_hat = float(brentq(_ortb_score, lo, hi, args=args, xtol=1e-12, rtol=1e-12))
    return OrtbFit(c_hat, converged=True, log_likelihood=_ortb_log_likelihood(c_hat, won, lost))
