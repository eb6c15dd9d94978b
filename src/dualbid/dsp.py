"""DSP specialization of the dual-based allocation strategy.

An impression plays the role of an item, an ad of a user, and the bid price
of the continuous sub-choice. Priced composites stay inside the utility
family, so the per-ad best response has the closed form bp* = -phi_F/psi_F
and both the solver and the bidder reduce to coefficient arithmetic plus
log-normal CDF evaluations; no numeric search over bid prices happens in the
hot path.

`DspChoiceModel` builds the coefficient tensors with the array form of the
`utility` encoders: one call per ad and objective or constraint, over the
ad's PPI column, so a build makes M * (K + 1) encoder calls at any N. It
stores phi and psi stacked on an axis of their own, gains as (N, 2, M) and
consumptions as (N, 2, M, K), so one matrix-vector call prices both halves
of a composite with the bits of two separate products.

One array kernel applies that rule to any set of impressions: the composite
of the selected rows, every ad's best response, then each row's first
top-scoring ad. `DspChoiceModel.decide_rows` runs it over all rows for the
evaluator, `decisions.csv` and the replay; the SGD step runs it over each
mini-batch (`batch_consumption`), and `beta_sum` and `item_best` read the
per-ad scores it computes on the way.
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
from .landscape import LandscapePrior
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

    The gain coefficients are stored stacked as `_v`, shaped (N, 2, M), and
    the consumption coefficients as `_w`, shaped (N, 2, M, K); index 0 of the
    second axis holds phi and index 1 psi. `objective_coeffs` and
    `constraint_coeffs` are views of these. They are built here, the one
    place that runs the encoders: one array encoder call per ad and
    objective or constraint, each over the ad's PPI column. `decide_rows`
    decides all rows at once and `batch_consumption` a mini-batch of them,
    through the same kernel.
    """

    def __init__(self, instance: DspInstance):
        self.instance = instance
        n, m, k = len(instance.impressions), instance.n_ads, instance.n_constraints
        self._ppi = np.array([imp.ppi for imp in instance.impressions], dtype=float).reshape(n, m)
        # phi and psi are stacked on a new axis ahead of the ads, not along
        # it: `_w[i] @ alpha` then runs one matrix-vector product per (M, K)
        # block, which gives the bits of separate phi and psi products.
        self._v = np.zeros((n, 2, m))
        self._w = np.zeros((n, 2, m, k))
        for j, ad in enumerate(instance.ads):
            ppi = self._ppi[:, j]
            gain = encode_objective(instance.objective, ad.economics, ppi)
            self._v[:, 0, j] = gain.phi
            self._v[:, 1, j] = gain.psi
            for c, spec in enumerate(instance.constraints):
                w, _ = encode_constraint(spec, ad.id, ad.economics, ppi)
                self._w[:, 0, j, c] = w.phi
                self._w[:, 1, j, c] = w.psi
        self._budgets = np.array([constraint_limit(s) for s in instance.constraints])
        self._cap = float(instance.bid_cap)
        self._mu = np.array([imp.prior.mu for imp in instance.impressions])
        self._sigma = np.array([imp.prior.sigma for imp in instance.impressions])
        # `landscape.mean` per impression, not `np.exp` over the array: the
        # two can differ in the last bit.
        self._mean = np.array([landscape.mean(imp.prior) for imp in instance.impressions])
        for shared in (self._ppi, self._mu, self._sigma):
            shared.flags.writeable = False

    @property
    def n_items(self) -> int:
        return len(self.instance.impressions)

    @property
    def budgets(self) -> np.ndarray:
        return self._budgets

    @property
    def ppi(self) -> np.ndarray:
        """Per-(impression, ad) expected performance, shaped (N, M); read-only."""
        return self._ppi

    @property
    def mu(self) -> np.ndarray:
        """Landscape prior `mu` per impression, shaped (N,); read-only."""
        return self._mu

    @property
    def sigma(self) -> np.ndarray:
        """Landscape prior `sigma` per impression, shaped (N,); read-only."""
        return self._sigma

    @property
    def objective_coeffs(self) -> tuple[np.ndarray, np.ndarray]:
        """Gain coefficient arrays (phi_V, psi_V), each shaped (N, M); views of `_v`."""
        return self._v[:, 0], self._v[:, 1]

    @property
    def constraint_coeffs(self) -> tuple[np.ndarray, np.ndarray]:
        """Consumption coefficient arrays (phi_W, psi_W), each shaped (N, M, K); views of `_w`."""
        return self._w[:, 0], self._w[:, 1]

    def composite(
        self, rows: int | slice | np.ndarray, alpha: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-ad (phi_F, psi_F) at prices `alpha` for an impression index, slice or index array.

        Each row comes out bit for bit the same whichever way it is selected,
        and the same as separate `phi_V - phi_W @ alpha` and
        `psi_V - psi_W @ alpha` products.
        """
        c = self._v[rows] - self._w[rows] @ np.asarray(alpha, dtype=float)
        return c[..., 0, :], c[..., 1, :]

    def _respond(self, rows: int | slice | np.ndarray, alpha: np.ndarray):
        """`_responses` of every ad's composite on the selected impressions."""
        phi, psi = self.composite(rows, alpha)
        prior = (self._mu[rows, None], self._sigma[rows, None], self._mean[rows, None])
        return _responses(phi, psi, *prior, self._cap)

    def decide_rows(self, alpha: np.ndarray) -> RowDecisions:
        """The decision rule for every impression at prices `alpha`."""
        return _first_max(*self._respond(slice(None), alpha))

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
        bp, _, _, score = self._respond(i, alpha)
        return bp, score

    def batch_consumption(self, rows: np.ndarray, alpha: np.ndarray) -> np.ndarray:
        """Summed consumption of the chosen ad of each impression in `rows` that bids.

        The rule is `decide_rows`': a row bids iff its top score is >= 0 and
        its bid is positive.
        """
        decided = _first_max(*self._respond(rows, alpha))
        bids = decided.ad >= 0
        w = self._w[np.asarray(rows)[bids], :, decided.ad[bids]]  # (bidding rows, 2, K)
        return decided.prob[bids] @ w[:, 0] + decided.cost[bids] @ w[:, 1]

    def beta_sum(self, alpha: np.ndarray) -> float:
        score = self._respond(slice(None), alpha)[3]
        if score.shape[1] == 0:
            return 0.0
        return float(np.sum(np.maximum(score.max(axis=1), 0.0)))

    def _prob_cost_at(self, i: int, sub_choice: float) -> tuple[float, float]:
        prob, cost = _win_prob_cost(
            np.array([sub_choice]), self._mu[i], self._sigma[i], self._mean[i]
        )
        return prob[0], cost[0]

    def gain(self, i: int, j: int, sub_choice: float) -> float:
        prob, cost = self._prob_cost_at(i, sub_choice)
        return float(self._v[i, 0, j] * prob + self._v[i, 1, j] * cost)

    def consumption(self, i: int, j: int, sub_choice: float) -> np.ndarray:
        prob, cost = self._prob_cost_at(i, sub_choice)
        return self._w[i, 0, j] * prob + self._w[i, 1, j] * cost


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
