"""DSP specialization of the dual-based allocation strategy.

An impression plays the role of an item, an ad of a user, and the bid price
of the continuous sub-choice. Priced composites stay inside the utility
family, so the per-ad best response has the closed form bp* = -phi_F/psi_F
and both the solver and the bidder reduce to coefficient arithmetic plus
log-normal CDF evaluations; no numeric search over bid prices happens in the
hot path.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.special import log_ndtr, ndtr

from . import mmkp
from .landscape import LandscapePrior, partial_moment
from .strategies import UpdateResult, multiplicative_update
from .utility import (
    AdEconomics,
    ConstraintSpec,
    DEFAULT_BID_CAP,
    ObjectiveSpec,
    OptimalBid,
    PaymentMode,
    UtilityCoeffs,
    argmax_bid,
    constraint_limit,
    encode_constraint,
    encode_objective,
    evaluate,
)

__all__ = [
    "Ad",
    "BidDecision",
    "DECISION_CSV_HEADER",
    "DspChoiceModel",
    "DspInstance",
    "Impression",
    "bid_decision",
    "compose_coeffs",
    "feedback_update",
    "optimal_bid",
    "score",
    "write_decisions_csv",
]


@dataclass(frozen=True)
class Ad:
    id: str
    economics: AdEconomics


@dataclass(frozen=True)
class Impression:
    """One bidding opportunity: its landscape prior and per-ad expected performance."""

    id: int | str
    prior: LandscapePrior
    ppi: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "ppi", tuple(float(p) for p in self.ppi))
        if any(p < 0.0 or not math.isfinite(p) for p in self.ppi):
            raise ValueError(f"ppi entries must be finite and >= 0, got {self.ppi!r}")


@dataclass
class DspInstance:
    """The full primal problem: ads, impressions, declarative specs, and a bid cap."""

    mode: PaymentMode
    objective: ObjectiveSpec
    ads: list[Ad]
    constraints: list[ConstraintSpec]
    impressions: list[Impression]
    bid_cap: float = DEFAULT_BID_CAP

    def __post_init__(self) -> None:
        if self.bid_cap <= 0.0:
            raise ValueError(f"bid_cap must be positive, got {self.bid_cap!r}")
        if self.objective.mode is not self.mode:
            raise ValueError("objective mode must match the instance mode")
        ad_ids = [ad.id for ad in self.ads]
        if len(set(ad_ids)) != len(ad_ids):
            raise ValueError("ad ids must be unique")
        for spec in self.constraints:
            if spec.mode is not self.mode:
                raise ValueError("constraint modes must match the instance mode")
            unknown = spec.scope - set(ad_ids)
            if unknown:
                raise ValueError(f"constraint scope references unknown ads: {sorted(unknown)}")
        for imp in self.impressions:
            if len(imp.ppi) != len(self.ads):
                raise ValueError(
                    f"impression {imp.id!r} has {len(imp.ppi)} ppi entries for {len(self.ads)} ads"
                )

    @property
    def n_ads(self) -> int:
        return len(self.ads)

    @property
    def n_constraints(self) -> int:
        return len(self.constraints)

    def ad_index(self, ad_id: str) -> int:
        for j, ad in enumerate(self.ads):
            if ad.id == ad_id:
                return j
        raise KeyError(ad_id)


@dataclass(frozen=True)
class BidDecision:
    """Auction response for one impression; no ad means no bid."""

    impression_id: int | str
    chosen_ad: str | None
    bid_price: float | None
    best_score: float


def compose_coeffs(
    instance: DspInstance, i: int, j: int, alpha: np.ndarray
) -> UtilityCoeffs:
    """Coefficients of the priced composite F_ij = V_ij - sum_k alpha_k W_ij^(k)."""
    imp = instance.impressions[i]
    ad = instance.ads[j]
    ppi = imp.ppi[j]
    gain = encode_objective(instance.objective, ad.economics, ppi)
    phi, psi = gain.phi, gain.psi
    alpha = np.asarray(alpha, dtype=float)
    for k, spec in enumerate(instance.constraints):
        w, _ = encode_constraint(spec, ad.id, ad.economics, ppi)
        phi -= alpha[k] * w.phi
        psi -= alpha[k] * w.psi
    return UtilityCoeffs(phi, psi)


def optimal_bid(coeffs: UtilityCoeffs, cap: float = DEFAULT_BID_CAP) -> OptimalBid:
    """Score-maximizing bid price for composite coefficients (see `utility.argmax_bid`)."""
    return argmax_bid(coeffs, cap)


def score(coeffs: UtilityCoeffs, prior: LandscapePrior, bid_price) -> float:
    """Closed-form value of the composite at `bid_price`."""
    return evaluate(coeffs, prior, bid_price)


def _best_bids(phi: np.ndarray, psi: np.ndarray, cap: float) -> np.ndarray:
    """Vectorized argmax-bid case table over per-ad coefficient arrays."""
    interior = (phi > 0.0) & (psi < 0.0)
    safe_psi = np.where(interior, psi, -1.0)
    bp = np.where(interior, np.minimum(-phi / safe_psi, cap), 0.0)
    at_cap = ((phi >= 0.0) & (psi >= 0.0) & ((phi > 0.0) | (psi > 0.0))) | (
        (phi < 0.0) & (psi > 0.0)
    )
    return np.where(at_cap, cap, bp)


def _best_bid(phi: float, psi: float, cap: float) -> float:
    """Scalar form of `_best_bids`: the same bid for any non-NaN coefficients."""
    if phi > 0.0 and psi < 0.0:
        bp = -phi / psi
        return cap if bp > cap else bp
    if phi <= 0.0 and psi <= 0.0:
        return 0.0
    return cap


def _prob_cost(mu: float, sigma: float, bp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Win probability and expected cost arrays for one prior at many bids."""
    prob = np.zeros_like(bp)
    cost = np.zeros_like(bp)
    pos = bp > 0.0
    if np.any(pos):
        z = (np.log(bp[pos]) - mu) / sigma
        prob[pos] = ndtr(z)
        cost[pos] = partial_moment(mu, sigma, z)
    return prob, cost


def _partial_moments(mu: np.ndarray, sigma: np.ndarray, z: np.ndarray) -> np.ndarray:
    """`partial_moment` elementwise over arrays of priors, with numpy's exp."""
    with np.errstate(over="ignore", invalid="ignore"):
        moment = np.exp(mu + 0.5 * sigma * sigma) * ndtr(z - sigma)
    # The moment is finite unless the mean overflowed; there, the log-space form.
    over = ~np.isfinite(moment)
    if np.any(over):
        mu, sigma, z = mu[over], sigma[over], z[over]
        moment[over] = np.exp(mu + 0.5 * sigma * sigma + log_ndtr(z - sigma))
    return moment


class DspChoiceModel(mmkp.ChoiceModel):
    """Choice-model view of a `DspInstance` with precomputed coefficient tensors.

    Objective coefficients are stored as (N, M) arrays and constraint
    coefficients as (N, M, K) arrays, so the per-item best response is a
    handful of vectorized operations across ads.
    """

    def __init__(self, instance: DspInstance):
        self.instance = instance
        n, m, k = len(instance.impressions), instance.n_ads, instance.n_constraints
        self._phi_v = np.zeros((n, m))
        self._psi_v = np.zeros((n, m))
        self._phi_w = np.zeros((n, m, k))
        self._psi_w = np.zeros((n, m, k))
        for i, imp in enumerate(instance.impressions):
            for j, ad in enumerate(instance.ads):
                gain = encode_objective(instance.objective, ad.economics, imp.ppi[j])
                self._phi_v[i, j] = gain.phi
                self._psi_v[i, j] = gain.psi
                for c, spec in enumerate(instance.constraints):
                    w, _ = encode_constraint(spec, ad.id, ad.economics, imp.ppi[j])
                    self._phi_w[i, j, c] = w.phi
                    self._psi_w[i, j, c] = w.psi
        self._budgets = np.array([constraint_limit(s) for s in instance.constraints])
        self._mu = np.array([imp.prior.mu for imp in instance.impressions])
        self._sigma = np.array([imp.prior.sigma for imp in instance.impressions])

    @property
    def n_items(self) -> int:
        return len(self.instance.impressions)

    @property
    def n_users(self) -> int:
        return self.instance.n_ads

    @property
    def budgets(self) -> np.ndarray:
        return self._budgets

    @property
    def objective_coeffs(self) -> tuple[np.ndarray, np.ndarray]:
        """Gain coefficient arrays (phi_V, psi_V), each shaped (N, M)."""
        return self._phi_v, self._psi_v

    @property
    def constraint_coeffs(self) -> tuple[np.ndarray, np.ndarray]:
        """Consumption coefficient arrays (phi_W, psi_W), each shaped (N, M, K)."""
        return self._phi_w, self._psi_w

    def composite(self, i: int, alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-ad (phi_F, psi_F) arrays for impression `i` at prices `alpha`."""
        alpha = np.asarray(alpha, dtype=float)
        return self._phi_v[i] - self._phi_w[i] @ alpha, self._psi_v[i] - self._psi_w[i] @ alpha

    def item_best(self, i: int, alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        phi, psi = self.composite(i, alpha)
        bp = _best_bids(phi, psi, self.instance.bid_cap)
        prob, cost = _prob_cost(self._mu[i], self._sigma[i], bp)
        return bp, phi * prob + psi * cost

    def dominant_consumption(self, i: int, alpha: np.ndarray) -> np.ndarray | None:
        # The base-class path fused into one pass over the ads on Python
        # floats: the same composite, case table, CDF and partial moment as
        # `item_best`, the first maximum as in `np.argmax`, and W formed for
        # the chosen ad only. `np.log` and not `math.log`: the two differ in
        # the last bit for some inputs, and the result must match bit for bit.
        phi_f, psi_f = self.composite(i, alpha)
        mu, sigma = self._mu.item(i), self._sigma.item(i)
        cap = float(self.instance.bid_cap)
        best, chosen = 0.0, None
        for j, (phi, psi) in enumerate(zip(phi_f.tolist(), psi_f.tolist())):
            bp = _best_bid(phi, psi, cap)
            if bp > 0.0:
                z = (np.log(bp) - mu) / sigma
                prob, cost = ndtr(z), partial_moment(mu, sigma, z)
            else:
                prob = cost = 0.0
            score = phi * prob + psi * cost
            if score > best:
                best, chosen = score, (j, prob, cost)
            elif score != score:  # np.argmax picks the first NaN, which is not > 0
                return None
        if chosen is None:
            return None
        j, prob, cost = chosen
        return self._phi_w[i, j] * prob + self._psi_w[i, j] * cost

    def beta_sum(self, alpha: np.ndarray) -> float:
        # One vectorized pass over all (impression, ad) pairs.
        alpha = np.asarray(alpha, dtype=float)
        if self.n_items == 0:
            return 0.0
        phi = self._phi_v - self._phi_w @ alpha
        psi = self._psi_v - self._psi_w @ alpha
        bp = _best_bids(phi, psi, self.instance.bid_cap)
        prob = np.zeros_like(bp)
        cost = np.zeros_like(bp)
        pos = bp > 0.0
        if np.any(pos):
            mu = np.broadcast_to(self._mu[:, None], bp.shape)[pos]
            sigma = np.broadcast_to(self._sigma[:, None], bp.shape)[pos]
            z = (np.log(bp[pos]) - mu) / sigma
            prob[pos] = ndtr(z)
            cost[pos] = _partial_moments(mu, sigma, z)
        scores = phi * prob + psi * cost
        return float(np.sum(np.maximum(scores.max(axis=1), 0.0)))

    def gain(self, i: int, j: int, sub_choice: float) -> float:
        prob, cost = _prob_cost(self._mu[i], self._sigma[i], np.asarray([sub_choice]))
        return float(self._phi_v[i, j] * prob[0] + self._psi_v[i, j] * cost[0])

    def consumption(self, i: int, j: int, sub_choice: float) -> np.ndarray:
        prob, cost = _prob_cost(self._mu[i], self._sigma[i], np.asarray([sub_choice]))
        return self._phi_w[i, j] * prob[0] + self._psi_w[i, j] * cost[0]


def _per_ad_coeffs(
    instance: DspInstance, impression: Impression, alpha: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    alpha = np.asarray(alpha, dtype=float)
    m = instance.n_ads
    phi = np.zeros(m)
    psi = np.zeros(m)
    for j, ad in enumerate(instance.ads):
        ppi = impression.ppi[j]
        gain = encode_objective(instance.objective, ad.economics, ppi)
        phi[j], psi[j] = gain.phi, gain.psi
        for k, spec in enumerate(instance.constraints):
            w, _ = encode_constraint(spec, ad.id, ad.economics, ppi)
            phi[j] -= alpha[k] * w.phi
            psi[j] -= alpha[k] * w.psi
    return phi, psi


def bid_decision(
    instance: DspInstance, impression: Impression, alpha: np.ndarray
) -> BidDecision:
    """Ad selection and bid price for one impression at prices `alpha`.

    Every ad proposes its closed-form best bid and score; the top score wins
    (lowest ad index on ties) and a bid is sent iff that score is nonnegative
    and the bid is positive. A maximizing bid of 0 cannot win a second-price
    auction, so it is reported as no bid rather than a zero-price response.
    """
    phi, psi = _per_ad_coeffs(instance, impression, alpha)
    if phi.size == 0:
        return BidDecision(impression.id, None, None, -math.inf)
    bp = _best_bids(phi, psi, instance.bid_cap)
    prob, cost = _prob_cost(impression.prior.mu, impression.prior.sigma, bp)
    scores = phi * prob + psi * cost
    j = int(np.argmax(scores))
    best = float(scores[j])
    if best >= 0.0 and bp[j] > 0.0:
        return BidDecision(impression.id, instance.ads[j].id, float(bp[j]), best)
    return BidDecision(impression.id, None, None, best)


def feedback_update(
    alpha_scalar: float,
    target_roi: float,
    actual_roi: float,
    bounds: tuple[float, float] = (1e-6, 1e6),
) -> UpdateResult:
    """Landscape-free price update alpha' = (target / actual) * alpha.

    Driven by realized ROI feedback between windows; a window with no wins or
    zero cost has no usable actual ROI and leaves alpha unchanged, flagged
    degenerate. The result is clamped to `bounds`.
    """
    if alpha_scalar <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha_scalar!r}")
    return multiplicative_update(alpha_scalar, target_roi, actual_roi, bounds)


DECISION_CSV_HEADER = ["impression_id", "ad_id", "bid_price", "best_score"]


def write_decisions_csv(path: str | Path, decisions: Sequence[BidDecision]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(DECISION_CSV_HEADER)
        for d in decisions:
            writer.writerow(
                [
                    d.impression_id,
                    d.chosen_ad or "",
                    "" if d.bid_price is None else repr(d.bid_price),
                    repr(d.best_score),
                ]
            )
