"""DSP specialization of the dual-based allocation strategy.

An impression plays the role of an item, an ad of a user, and the bid price
of the continuous sub-choice. Priced composites stay inside the utility
family, so the per-ad best response has the closed form bp* = -phi_F/psi_F
and both the solver and the bidder reduce to coefficient arithmetic plus
log-normal CDF evaluations; no numeric search over bid prices happens in the
hot path.

One array kernel, `DspChoiceModel.decide_rows`, applies that rule to every
impression. Every decision path reads it except the SGD step, whose fused
scalar copy (`dominant_consumption`) returns the generic step's bits.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np
from scipy.special import log_ndtr, ndtr

from . import landscape, mmkp
from .landscape import LandscapePrior, partial_moment
from .utility import (
    AdEconomics,
    ConstraintSpec,
    DEFAULT_BID_CAP,
    ObjectiveSpec,
    PaymentMode,
    UtilityCoeffs,
    constraint_limit,
    encode_constraint,
    encode_objective,
)

__all__ = [
    "Ad",
    "BidDecision",
    "DECISION_CSV_HEADER",
    "DspChoiceModel",
    "DspInstance",
    "Impression",
    "RowDecisions",
    "bid_decision",
    "compose_coeffs",
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
        if not (math.isfinite(self.bid_cap) and self.bid_cap > 0.0):
            raise ValueError(f"bid_cap must be positive and finite, got {self.bid_cap!r}")
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
    single = DspChoiceModel(replace(instance, impressions=[instance.impressions[i]]))
    phi, psi = single.composite(0, alpha)
    return UtilityCoeffs(float(phi[j]), float(psi[j]))


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


def _win_prob_cost(bp: np.ndarray, mu, sigma, mean) -> tuple[np.ndarray, np.ndarray]:
    """Win probability and expected cost at bids `bp`; the prior arrays broadcast to it.

    The cost is the landscape mean times Phi(z - sigma), formed in log space
    where the mean overflowed, as `landscape.partial_moment` does. Bids <= 0
    neither win nor pay.
    """
    prob = np.zeros(bp.shape)
    cost = np.zeros(bp.shape)
    pos = bp > 0.0
    mu, sigma, mean = (np.broadcast_to(a, bp.shape)[pos] for a in (mu, sigma, mean))
    z = (np.log(bp[pos]) - mu) / sigma
    prob[pos] = ndtr(z)
    over = np.isinf(mean)
    moment = np.where(over, 0.0, mean) * ndtr(z - sigma)
    if np.any(over):
        mu, sigma, z = mu[over], sigma[over], z[over]
        moment[over] = np.exp(mu + 0.5 * sigma * sigma + log_ndtr(z - sigma))
    cost[pos] = moment
    return prob, cost


def _responses(phi, psi, mu, sigma, mean, cap: float):
    """Best bid, win probability, expected cost and score of every ad's composite."""
    bp = _best_bids(phi, psi, cap)
    prob, cost = _win_prob_cost(bp, mu, sigma, mean)
    return bp, prob, cost, phi * prob + psi * cost


class RowDecisions(NamedTuple):
    """The decision rule's outcome per impression, as arrays of shape (N,).

    `ad` is the chosen ad index, or -1 where the impression gets no bid;
    `bp`, `prob` and `cost` are that bid, its win probability and expected
    cost (0 without a bid); `score` is the top composite score, bid or not
    (-inf with no ads).
    """

    ad: np.ndarray
    bp: np.ndarray
    score: np.ndarray
    prob: np.ndarray
    cost: np.ndarray


def _first_max(bp, prob, cost, score) -> RowDecisions:
    """Each row's first top-scoring ad, which bids iff its score is >= 0 and its bid > 0.

    A bid of 0 cannot win a second-price auction, so it counts as no bid.
    """
    n, m = score.shape
    if m == 0:
        none = np.zeros(n)
        return RowDecisions(np.full(n, -1), none, np.full(n, -np.inf), none, none)
    rows = np.arange(n)
    ad = np.argmax(score, axis=1)
    best = score[rows, ad]
    bids = (best >= 0.0) & (bp[rows, ad] > 0.0)
    bp, prob, cost = (np.where(bids, a[rows, ad], 0.0) for a in (bp, prob, cost))
    return RowDecisions(np.where(bids, ad, -1), bp, best, prob, cost)


class DspChoiceModel(mmkp.ChoiceModel):
    """Choice-model view of a `DspInstance` with precomputed coefficient tensors.

    Objective coefficients are stored as (N, M) arrays and constraint
    coefficients as (N, M, K) arrays, built here, the one place that runs the
    encoders; `decide_rows` decides all rows at once.
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
        self._mean = np.array([landscape.mean(imp.prior) for imp in instance.impressions])

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

    def composite(self, rows: int | slice, alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-ad (phi_F, psi_F) at prices `alpha` for an impression index or a slice of them.

        Each row comes out bit for bit the same whichever way it is selected.
        """
        alpha = np.asarray(alpha, dtype=float)
        phi_w, psi_w = self._phi_w[rows], self._psi_w[rows]
        return self._phi_v[rows] - phi_w @ alpha, self._psi_v[rows] - psi_w @ alpha

    def decide_rows(self, alpha: np.ndarray) -> RowDecisions:
        """The decision rule for every impression at prices `alpha`."""
        phi, psi = self.composite(slice(None), alpha)
        prior = (self._mu[:, None], self._sigma[:, None], self._mean[:, None])
        return _first_max(*_responses(phi, psi, *prior, self.instance.bid_cap))

    def bid_decisions(self, alpha: np.ndarray) -> list[BidDecision]:
        """`decide_rows` as one `BidDecision` per impression."""
        rows = self.decide_rows(alpha)
        return [
            BidDecision(imp.id, None, None, score)
            if j < 0
            else BidDecision(imp.id, self.instance.ads[j].id, bp, score)
            for imp, j, bp, score in zip(
                self.instance.impressions, rows.ad.tolist(), rows.bp.tolist(), rows.score.tolist()
            )
        ]

    def item_best(self, i: int, alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        phi, psi = self.composite(i, alpha)
        prior = (self._mu[i], self._sigma[i], self._mean[i])
        bp, _, _, score = _responses(phi, psi, *prior, self.instance.bid_cap)
        return bp, score

    def dominant_consumption(self, i: int, alpha: np.ndarray) -> np.ndarray | None:
        # The base-class path fused into one pass over the ads on Python
        # floats: the same composite, case table, CDF and cost as
        # `item_best`, the first maximum as in `np.argmax`, and W formed for
        # the chosen ad only. `np.log` and not `math.log`: the two differ in
        # the last bit for some inputs, and the result must match bit for bit.
        phi_f, psi_f = self.composite(i, alpha)
        mu, sigma, mean = self._mu.item(i), self._sigma.item(i), self._mean.item(i)
        cap = float(self.instance.bid_cap)
        best, chosen = 0.0, None
        for j, (phi, psi) in enumerate(zip(phi_f.tolist(), psi_f.tolist())):
            bp = _best_bid(phi, psi, cap)
            if bp > 0.0:
                z = (np.log(bp) - mu) / sigma
                prob = ndtr(z)
                cost = mean * ndtr(z - sigma) if mean < math.inf else partial_moment(mu, sigma, z)
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
        return float(np.sum(np.maximum(self.decide_rows(alpha).score, 0.0)))

    def _prob_cost_at(self, i: int, sub_choice: float) -> tuple[float, float]:
        prob, cost = _win_prob_cost(
            np.array([sub_choice]), self._mu[i], self._sigma[i], self._mean[i]
        )
        return prob[0], cost[0]

    def gain(self, i: int, j: int, sub_choice: float) -> float:
        prob, cost = self._prob_cost_at(i, sub_choice)
        return float(self._phi_v[i, j] * prob + self._psi_v[i, j] * cost)

    def consumption(self, i: int, j: int, sub_choice: float) -> np.ndarray:
        prob, cost = self._prob_cost_at(i, sub_choice)
        return self._phi_w[i, j] * prob + self._psi_w[i, j] * cost


def bid_decision(
    instance: DspInstance, impression: Impression, alpha: np.ndarray
) -> BidDecision:
    """Ad selection and bid price for one impression at prices `alpha`.

    A one-row view of `DspChoiceModel.decide_rows`; the impression need not
    belong to `instance`. The top score wins (lowest ad index on ties) and a
    bid is sent iff that score is nonnegative and the bid is positive.
    """
    single = DspChoiceModel(replace(instance, impressions=[impression]))
    return single.bid_decisions(alpha)[0]


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
