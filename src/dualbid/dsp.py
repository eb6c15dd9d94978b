"""DSP specialization of the dual-based allocation strategy.

An impression plays the role of an item, an ad of a user, and the bid price
of the continuous sub-choice. Priced composites stay inside the utility
family, so the per-ad best response has the closed form bp* = -phi_F/psi_F
and both the solver and the bidder reduce to coefficient arithmetic plus the
log-normal kernel `landscape.win_prob_cost`; no numeric search over bid
prices happens in the hot path.

A `DspInstance` holds its impressions as columns: ids, and read-only arrays
of each prior's `mu` and `sigma`, shaped (N,), and of the PPIs, shaped
(N, M), checked once as arrays. `DspChoiceModel` borrows them without a copy,
and `DspInstance.impressions` builds `Impression` row views on request.

`DspChoiceModel` prices every decision from one per-ad rate card of slopes
and intercepts in PPI: a composite is the card priced once, then
`ppi * slope + intercept` per row, and `totals` accounts any set of
decisions or auction outcomes with one product with the card.

One array kernel applies the decision rule to any set of impressions: the
composite of the selected rows, every ad's best response, then each row's
first top-scoring ad. `DspChoiceModel.decide_rows` runs it over all rows for
the evaluator and the replay, and `write_decisions_csv` writes
`decisions.csv` straight from its arrays; `bid_decision` is its one-row
view. The SGD step runs the kernel over each mini-batch and accounts the
batch with `totals` (`batch_consumption`), and `beta_sum` and `item_best`
read the per-ad scores it computes on the way.

A 64-row batch at M = 2 gives each array pass 128 cells, which cost about as
much as the numpy call itself, so the kernel makes few calls: bid, win
probability, cost and score fill one stacked buffer in place, and one `take`
picks each row's top ad from all four. Each element goes through the same
floating-point operations whichever rows are selected, so outputs keep their
bits.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple, Sequence

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
    """Row view of one impression: its id, landscape prior and per-ad expected performance."""

    id: int | str
    prior: LandscapePrior
    ppi: tuple[float, ...]


@dataclass(eq=False)
class DspInstance:
    """The full primal problem: ads, declarative specs, a bid cap, and the impression columns.

    Impression i has id `ids[i]`, prior `mu[i]`, `sigma[i]` and PPI `ppi[i, j]` on ad j. An
    array passed in as a column becomes read-only, so a `replace`d instance borrows it.
    """

    mode: PaymentMode
    objective: ObjectiveSpec
    ads: list[Ad]
    constraints: list[ConstraintSpec]
    ids: Sequence[int | str]
    mu: np.ndarray
    sigma: np.ndarray
    ppi: np.ndarray
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
            if unknown := spec.scope - set(ad_ids):
                raise ValueError(f"constraint scope references unknown ads: {sorted(unknown)}")
        self.ids = tuple(self.ids)
        for name in ("mu", "sigma", "ppi"):
            setattr(self, name, column := np.asarray(getattr(self, name), dtype=float))
            column.flags.writeable = False
        n, m = len(self.ids), self.n_ads
        if (self.mu.shape, self.sigma.shape, self.ppi.shape) != ((n,), (n,), (n, m)):
            raise ValueError(f"{n} impressions need {n} mu and sigma and {m} ppi entries each")
        # The first row that breaks a check raises as `LandscapePrior` would, or for its
        # PPIs (NaN fails `0 <= p`).
        with np.errstate(over="ignore"):
            ok = np.isfinite(self.mu) & (self.sigma > 0.0) & np.isfinite(self.sigma * self.sigma)
        ok &= ((0.0 <= self.ppi) & (self.ppi < math.inf)).all(axis=1)
        if not ok.all():
            r = int(np.argmin(ok))
            LandscapePrior(self.mu[r].item(), self.sigma[r].item())
            raise ValueError(f"ppi entries must be finite and >= 0, got {tuple(self.ppi[r].tolist())!r}")

    @property
    def impressions(self) -> list[Impression]:
        """The row views, built on each call."""
        rows = zip(self.ids, self.mu.tolist(), self.sigma.tolist(), self.ppi.tolist())
        return [Impression(i, LandscapePrior(mu, sigma), tuple(ppi)) for i, mu, sigma, ppi in rows]

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


def compose_coeffs(instance: DspInstance, i: int, j: int, alpha: np.ndarray) -> UtilityCoeffs:
    """Coefficients of the priced composite F_ij = V_ij - sum_k alpha_k W_ij^(k)."""
    phi, psi = DspChoiceModel(instance).composite(i, alpha)
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
    """Choice-model view of a `DspInstance`, priced from one per-ad rate card.

    Every encoded coefficient is proportional to the impression's PPI or free
    of it, so the (phi, psi) pair of any (impression, ad, column) is
    `ppi * slope + intercept`. The card holds those slopes and intercepts,
    shaped (2, 2, M, K + 1): half (phi, psi), then (slope, intercept), ad, and
    column, where column 0 is the objective and column 1 + k constraint row
    k. Built from 2 * M * (K + 1) scalar encoder calls at any N, it is the
    only copy of the coefficients beside the (N, M) PPIs.
    """

    def __init__(self, instance: DspInstance):
        self.instance = instance
        m, k = instance.n_ads, instance.n_constraints
        self._ppi = instance.ppi
        # A coefficient is c * ppi or a constant, so its value at PPI 0 is the
        # intercept and its value at PPI 1 less that is the slope, exactly.
        self._card = np.empty((2, 2, m, k + 1))
        for j, ad in enumerate(instance.ads):
            intercept, at_one = (self._encode(ad, ppi) for ppi in (0.0, 1.0))
            self._card[:, 0, j], self._card[:, 1, j] = at_one - intercept, intercept
        # Affine in PPI >= 0, a coefficient is finite on every row iff it is
        # finite at the ad's largest PPI (and at 0, which the encoders check).
        top = self._ppi.max(axis=0, initial=0.0)[:, None]
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(top * self._card[:, 0] + self._card[:, 1]).all()
        if not finite:
            raise ValueError("coefficients must be finite at every impression's PPI")
        self._budgets = np.array([constraint_limit(s) for s in instance.constraints])
        self._cap = float(instance.bid_cap)
        *self._prior, self._over = landscape.prior_arrays(instance.mu, instance.sigma)

    def _encode(self, ad: Ad, ppi: float) -> np.ndarray:
        """(phi, psi) of the objective and each constraint row for `ad` at one PPI, shaped (2, K + 1)."""
        coeffs = [encode_objective(self.instance.objective, ad.economics, ppi)]
        coeffs += [encode_constraint(s, ad.id, ad.economics, ppi)[0] for s in self.instance.constraints]
        return np.array([[c.phi for c in coeffs], [c.psi for c in coeffs]])

    @property
    def n_items(self) -> int:
        return len(self.instance.ids)

    @property
    def budgets(self) -> np.ndarray:
        return self._budgets

    def coeffs(self, rows, ad, column: int | slice) -> np.ndarray:
        """Unpriced (phi, psi) of card `column` for impressions `rows` on ads `ad`, stacked first.

        `rows` and `ad` are two indices, or two index arrays with an integer
        `column`.
        """
        card = self._card[:, :, ad, column]
        return self._ppi[rows, ad] * card[:, 0] + card[:, 1]

    def composite(self, rows: int | slice | np.ndarray, alpha: np.ndarray) -> np.ndarray:
        """Per-ad (phi_F, psi_F) at prices `alpha` for an impression index, slice or index array.

        Stacked first, so `phi, psi = composite(...)` unpacks it. The card is
        priced once, `card @ [1, -alpha]`, and each row is `ppi * slope +
        intercept` of it, bit for bit the same whichever way it is selected.
        """
        prices = np.concatenate(([1.0], -np.asarray(alpha, dtype=float)))
        ppi = self._ppi[rows]
        # (half, slope or intercept, then a unit axis per row axis, ad)
        priced = self._card.reshape(-1, prices.size) @ prices
        priced = priced.reshape(2, 2, *[1] * (ppi.ndim - 1), ppi.shape[-1])
        return ppi * priced[:, 0] + priced[:, 1]

    def _respond(self, rows: int | slice | np.ndarray, alpha: np.ndarray) -> np.ndarray:
        """Stacked bid, win probability, cost and score per ad."""
        c = self.composite(rows, alpha)
        over = None if self._over is None else self._over[rows]
        out = np.zeros((4, *c.shape[1:]))
        _best_bids(*c, self._cap, out[0])
        landscape.win_prob_cost(out[0], *(a[rows] for a in self._prior), over, out[1:3])
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

    def totals(
        self, rows: np.ndarray, ad: np.ndarray, prob: np.ndarray, cost: np.ndarray
    ) -> np.ndarray:
        """Objective and constraint totals, shape (K + 1,), of impressions `rows` on ads `ad`.

        `prob` and `cost` weight each pair's phi and psi: the win
        probabilities and expected costs of a decision, or the win indicators
        and paid prices of an auction. Per-ad sums of `prob * ppi`, `prob`,
        `cost * ppi` and `cost`, in row order, meet the card in one product.
        """
        ppi, m = self._ppi[rows, ad], self.instance.n_ads
        sums = [np.bincount(ad, w, minlength=m) for w in (prob * ppi, prob, cost * ppi, cost)]
        return np.concatenate(sums) @ self._card.reshape(4 * m, self.n_constraints + 1)

    def batch_consumption(self, rows: np.ndarray, alpha: np.ndarray) -> np.ndarray:
        """Summed consumption of the chosen ad of each impression in `rows` that bids.

        The rule is `decide_rows`': a row bids iff its top score is >= 0 and
        its bid is positive.
        """
        ad, picked, bids = _first_max(self._respond(rows, alpha))
        prob, cost = picked[1:3].compress(bids, axis=1)
        return self.totals(rows[bids], ad[bids], prob, cost)[1:]

    def beta_sum(self, alpha: np.ndarray) -> float:
        score = self._respond(slice(None), alpha)[3]
        if score.shape[1] == 0:
            return 0.0
        return float(np.maximum(score.max(axis=1), 0.0).sum())

    def _value(self, i: int, j: int, sub_choice: float, column: int | slice):
        prior = LandscapePrior(self.instance.mu[i].item(), self.instance.sigma[i].item())
        prob, cost = landscape.win_prob(prior, sub_choice), landscape.expected_cost(prior, sub_choice)
        phi, psi = self.coeffs(i, j, column)
        return phi * prob + psi * cost

    def gain(self, i: int, j: int, sub_choice: float) -> float:
        return float(self._value(i, j, sub_choice, 0))

    def consumption(self, i: int, j: int, sub_choice: float) -> np.ndarray:
        return self._value(i, j, sub_choice, slice(1, None))


def bid_decision(instance: DspInstance, impression: Impression, alpha: np.ndarray) -> BidDecision:
    """Ad selection and bid price for one impression at prices `alpha`.

    A one-row view of `DspChoiceModel.decide_rows`; the impression need not
    belong to `instance`. The top score wins (lowest ad index on ties) and a
    bid is sent iff that score is nonnegative and the bid is positive.
    """
    p = impression.prior
    one = replace(instance, ids=[impression.id], mu=[p.mu], sigma=[p.sigma], ppi=[impression.ppi])
    rows = DspChoiceModel(one).decide_rows(alpha)
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
            (i, None, None, score) if j < 0 else (i, ad_ids[j], bp, score)
            for i, j, bp, score in zip(
                instance.ids, rows.ad.tolist(), rows.bp.tolist(), rows.score.tolist()
            )
        )
