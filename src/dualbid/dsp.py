"""DSP specialization of the dual-based allocation strategy.

An impression plays the role of an item, an ad of a user, and the bid price
of the continuous sub-choice. Priced composites stay inside the utility
family, so the per-ad best response has the closed form bp* = -phi_F/psi_F
and both the solver and the bidder reduce to coefficient arithmetic plus the
log-normal kernel `landscape.win_prob_cost`; no numeric search over bid
prices happens in the hot path.

`DspChoiceModel` builds the coefficient tensors with the array form of the
`utility` encoders: one call per ad and objective or constraint, over the
ad's PPI column, so a build makes M * (K + 1) encoder calls at any N. It
stores phi and psi stacked on an axis of their own, gains as (N, 2, M) and
consumptions as (N, 2, M, K), so one matrix-vector call prices both halves
of a composite with the bits of two separate products.

One array kernel applies that rule to any set of impressions: the composite
of the selected rows, every ad's best response, then each row's first
top-scoring ad. `DspChoiceModel.decide_rows` runs it over all rows for the
evaluator and the replay, and `write_decisions_csv` writes `decisions.csv`
straight from its arrays; `bid_decision` is its one-row view. The SGD step
runs the kernel over each mini-batch (`batch_consumption`), and `beta_sum`
and `item_best` read the per-ad scores it computes on the way.

A 64-row batch at M = 2 gives each array pass 128 cells, which cost about as
much as the numpy call itself, so the kernel makes few calls, about 40 per
SGD step: bid, win probability, cost and score fill one stacked buffer in
place, and one `take` picks each row's top ad from all four. Each element
goes through the same floating-point operations, so outputs keep their bits.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

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
        # One pass converts and checks each entry; NaN fails `0.0 <= p`.
        ppi = []
        for p in self.ppi:
            if not isinstance(p, float) and (isinstance(p, bool) or not isinstance(p, numbers.Real)):
                raise TypeError(f"ppi entries must be real numbers, got {p!r}")
            if not 0.0 <= (p := float(p)) < math.inf:
                raise ValueError(f"ppi entries must be finite and >= 0, got {self.ppi!r}")
            ppi.append(p)
        object.__setattr__(self, "ppi", tuple(ppi))


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


def _best_bids(phi: np.ndarray, psi: np.ndarray, cap: float, out: np.ndarray) -> np.ndarray:
    """Vectorized argmax-bid case table over per-ad coefficient arrays, into zeroed `out`.

    The bid is min(-phi/psi, cap) where phi > 0 > psi, else the cap where
    max(phi, psi) > 0, else 0 (NaN included). `out` holds the negated bid
    until the last pass, 0 - out, which leaves a zero bid +0.0.
    """
    positive = np.maximum(phi, psi) > 0.0
    np.copyto(out, -cap, where=positive)
    np.divide(phi, psi, out=out, where=positive & (psi < 0.0))
    np.maximum(out, -cap, out=out)
    return np.subtract(0.0, out, out=out)


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


def _first_max(responses: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's first top-scoring ad, that ad's column of `responses`, and whether it bids.

    A row bids iff the score is >= 0 and the bid > 0, as a bid of 0 cannot
    win a second-price auction. With no ads no row bids and the score is -inf.
    """
    _, n, m = responses.shape
    if m == 0:
        return np.full(n, -1), np.repeat([[0.0], [0.0], [0.0], [-np.inf]], n, 1), np.zeros(n, bool)
    ad = responses[3].argmax(axis=1)
    picked = responses.reshape(4, n * m).take(np.arange(0, n * m, m) + ad, axis=1)
    return ad, picked, (picked[3] >= 0.0) & (picked[0] > 0.0)


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
        self._prior, self._over = landscape.prior_arrays([imp.prior for imp in instance.impressions])
        for shared in (self._ppi, self._prior):
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
        return self._prior[0, :, 0]

    @property
    def sigma(self) -> np.ndarray:
        """Landscape prior `sigma` per impression, shaped (N,); read-only."""
        return self._prior[1, :, 0]

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

    def _respond(self, rows: int | slice | np.ndarray, alpha: np.ndarray, w=None) -> np.ndarray:
        """Stacked bid, win probability, cost and score per ad; `w` is `_w[rows]` if gathered."""
        w = self._w[rows] if w is None else w
        c = (self._v[rows] - w @ np.asarray(alpha, dtype=float)).swapaxes(0, -2)  # phi, psi
        over = None if self._over is None else self._over[rows]
        out = np.zeros((4, *c.shape[1:]))
        _best_bids(*c, self._cap, out[0])
        landscape.win_prob_cost(out[0], *self._prior[:, rows], over, out[1:3])
        np.add(*(c * out[1:3]), out=out[3])
        return out

    def decide_rows(self, alpha: np.ndarray) -> RowDecisions:
        """The decision rule for every impression at prices `alpha`."""
        ad, picked, bids = _first_max(self._respond(slice(None), alpha))
        bp, prob, cost = np.where(bids, picked[:3], 0.0)
        return RowDecisions(np.where(bids, ad, -1), bp, picked[3], prob, cost)

    def item_best(self, i: int, alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        bp, _, _, score = self._respond(i, alpha)
        return bp, score

    def batch_consumption(self, rows: np.ndarray, alpha: np.ndarray) -> np.ndarray:
        """Summed consumption of the chosen ad of each impression in `rows` that bids.

        The rule is `decide_rows`': a row bids iff its top score is >= 0 and
        its bid is positive.
        """
        w = self._w[rows]
        ad, picked, bids = _first_max(self._respond(rows, alpha, w))
        # `compress` keeps rows contiguous; strided vectors change the products' bits.
        prob, cost = picked[1:3].compress(bids, axis=1)
        w = w[bids, :, ad[bids]]  # (bidding rows, 2, K)
        return prob @ w[:, 0] + cost @ w[:, 1]

    def beta_sum(self, alpha: np.ndarray) -> float:
        score = self._respond(slice(None), alpha)[3]
        if score.shape[1] == 0:
            return 0.0
        return float(np.maximum(score.max(axis=1), 0.0).sum())

    def gain(self, i: int, j: int, sub_choice: float) -> float:
        prior = self.instance.impressions[i].prior
        prob, cost = landscape.win_prob(prior, sub_choice), landscape.expected_cost(prior, sub_choice)
        return float(self._v[i, 0, j] * prob + self._v[i, 1, j] * cost)

    def consumption(self, i: int, j: int, sub_choice: float) -> np.ndarray:
        prior = self.instance.impressions[i].prior
        prob, cost = landscape.win_prob(prior, sub_choice), landscape.expected_cost(prior, sub_choice)
        return self._w[i, 0, j] * prob + self._w[i, 1, j] * cost


def bid_decision(
    instance: DspInstance, impression: Impression, alpha: np.ndarray
) -> BidDecision:
    """Ad selection and bid price for one impression at prices `alpha`.

    A one-row view of `DspChoiceModel.decide_rows`; the impression need not
    belong to `instance`. The top score wins (lowest ad index on ties) and a
    bid is sent iff that score is nonnegative and the bid is positive.
    """
    rows = DspChoiceModel(replace(instance, impressions=[impression])).decide_rows(alpha)
    j = int(rows.ad[0])
    ad, bp = (None, None) if j < 0 else (instance.ads[j].id, float(rows.bp[0]))
    return BidDecision(impression.id, ad, bp, float(rows.score[0]))


DECISION_CSV_HEADER = ["impression_id", "ad_id", "bid_price", "best_score"]


def write_decisions_csv(path: str | Path, instance: DspInstance, rows: RowDecisions) -> None:
    """`decisions.csv` from `decide_rows`' arrays; a row without a bid leaves ad and bid empty."""
    ad_ids = [ad.id for ad in instance.ads]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(DECISION_CSV_HEADER)
        writer.writerows(
            (imp.id, None, None, score) if j < 0 else (imp.id, ad_ids[j], bp, score)
            for imp, j, bp, score in zip(
                instance.impressions, rows.ad.tolist(), rows.bp.tolist(), rows.score.tolist()
            )
        )
