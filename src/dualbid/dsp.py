"""DSP specialization of the dual-based allocation strategy.

An impression plays the role of an item, an ad of a user, and the bid price
of the continuous sub-choice. Priced composites stay inside the utility
family, so the per-ad best response is the closed-form case table
`utility.best_bids` (bp* = -phi_F/psi_F clipped to the cap, else the cap,
else no bid), and both the solver and the bidder reduce to coefficient
arithmetic plus the log-normal kernel `landscape.win_prob_cost`; no numeric
search over bid prices happens in the hot path.

A `DspInstance` holds its impressions as columns: ids, and read-only arrays
of each prior's `mu` and `sigma`, shaped (N,), and of the PPIs, shaped
(N, M), checked once as arrays. `DspInstance.impressions` builds
`Impression` row views on request. `DspChoiceModel` stacks the columns it
reads per row into one read-only row table, so selecting a batch's rows is
one `take`.

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
batch with `totals`' sums (`batch_consumption`), and `beta_sum` and
`item_best` read the per-ad scores it computes on the way.

The kernel runs once per price vector. `beta_sum` keeps the response stack
of its pass over every row, and the next `batch_consumption` or
`decide_rows` at the same prices (compared as bytes) takes its rows from it
instead of running the kernel again; any such call lets the stack go. The
SGD solve evaluates the dual at the prices each epoch starts from, so every
epoch's first batch, and every batch when N <= 64, is served by that pass.

A 64-row batch at M = 2 gives each array pass 128 cells, which cost about as
much as the numpy call itself, so the kernel makes few calls: bid, win
probability, cost, score and the ad's PPI fill one stacked buffer in place,
and one `take` picks each row's top ad from all five. Each element goes
through the same floating-point operations whichever rows are selected, so
outputs keep their bits.
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
    best_bids,
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


# Layers of the kernel's response stack, shaped (5, rows, M).
BP, PROB, COST, SCORE, PPI = range(5)


def _first_max(responses: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's first top-scoring ad, that ad's column of `responses`, and whether it bids.

    A row bids iff the score is >= 0 and the bid > 0, as a bid of 0 cannot
    win a second-price auction. With no ads no row bids and the score is -inf.
    """
    layers, n, m = responses.shape
    if m == 0:
        picked = np.zeros((layers, n))
        picked[SCORE] = -np.inf
        return np.full(n, -1), picked, np.zeros(n, bool)
    ad = responses[SCORE].argmax(axis=1)
    picked = responses.reshape(layers, n * m).take(np.arange(0, n * m, m) + ad, axis=1)
    return ad, picked, (picked[SCORE] >= 0.0) & (picked[BP] > 0.0)


class DspChoiceModel(mmkp.ChoiceModel):
    """Choice-model view of a `DspInstance`, priced from one per-ad rate card.

    Every encoded coefficient is proportional to the impression's PPI or free
    of it, so the (phi, psi) pair of any (impression, ad, column) is
    `ppi * slope + intercept`. The card holds those slopes and intercepts,
    shaped (2, 2, M, K + 1): half (phi, psi), then (slope, intercept), ad, and
    column, where column 0 is the objective and column 1 + k constraint row
    k. Built from 2 * M * (K + 1) scalar encoder calls at any N, it is the
    only copy of the coefficients.

    The kernel reads each impression from one read-only row table, shaped
    (N, M + 3) or (N, M + 4): the PPIs, `mu`, `sigma`, the landscape mean and,
    when some mean is above 1, the tail bound of `landscape.prior_arrays`. Pricing
    writes into one buffer and `beta_sum` keeps its pass, so a model is not
    shared between threads.
    """

    def __init__(self, instance: DspInstance):
        self.instance = instance
        m, k = instance.n_ads, instance.n_constraints
        self._m = m
        # A coefficient is c * ppi or a constant, so its value at PPI 0 is the
        # intercept and its value at PPI 1 less that is the slope, exactly.
        self._card = np.empty((2, 2, m, k + 1))
        for j, ad in enumerate(instance.ads):
            intercept, at_one = (self._encode(ad, ppi) for ppi in (0.0, 1.0))
            self._card[:, 0, j], self._card[:, 1, j] = at_one - intercept, intercept
        # Affine in PPI >= 0, a coefficient is finite on every row iff it is
        # finite at the ad's largest PPI (and at 0, which the encoders check).
        top = instance.ppi.max(axis=0, initial=0.0)[:, None]
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(top * self._card[:, 0] + self._card[:, 1]).all()
        if not finite:
            raise ValueError("coefficients must be finite at every impression's PPI")
        self._budgets = np.array([constraint_limit(s) for s in instance.constraints])
        self._cap = float(instance.bid_cap)
        # `_card` flattened to (4M, K + 1), a view, and [1, -alpha] to price it with.
        self._flat_card = self._card.reshape(4 * m, k + 1)
        self._prices = np.ones(k + 1)
        self._neg_alpha = self._prices[1:]
        *prior, tail = landscape.prior_arrays(instance.mu, instance.sigma)
        self._tail = tail is not None
        self._rows = np.hstack([instance.ppi, *prior, *([tail] if self._tail else [])])
        self._rows.flags.writeable = False
        # (prices as bytes, response stack of every row) of the last `beta_sum`.
        self._memo = None

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
        return self._rows[rows, ad] * card[:, 0] + card[:, 1]

    def _price(self, alpha: np.ndarray) -> np.ndarray:
        """The card priced at `alpha`, `card @ [1, -alpha]`, shaped (half, slope or intercept, 1, M)."""
        if np.shape(alpha) != self._neg_alpha.shape:
            raise ValueError(f"alpha must have shape {self._neg_alpha.shape}, got {np.shape(alpha)}")
        np.negative(alpha, out=self._neg_alpha)
        return (self._flat_card @ self._prices).reshape(2, 2, 1, self._m)

    def composite(self, rows: int | slice | np.ndarray, alpha: np.ndarray) -> np.ndarray:
        """Per-ad (phi_F, psi_F) at prices `alpha` for an impression index, slice or index array.

        Stacked first, so `phi, psi = composite(...)` unpacks it. The card is
        priced once and each row is `ppi * slope + intercept` of it, bit for
        bit the same whichever way it is selected.
        """
        ppi = self._rows[rows, : self._m]
        priced = self._price(alpha).reshape(2, 2, *[1] * (ppi.ndim - 1), self._m)
        return ppi * priced[:, 0] + priced[:, 1]

    def _respond(self, table: np.ndarray, priced: np.ndarray) -> np.ndarray:
        """The response stack of the row table `table` on the priced card `priced`.

        Layers `BP`, `PROB`, `COST`, `SCORE` and `PPI`: each ad's best bid,
        its win probability, cost and score, and the ad's PPI.
        """
        m = self._m
        ppi = table[:, :m]
        c = ppi * priced[:, 0] + priced[:, 1]
        out = np.zeros((5, len(table), m))
        best_bids(c[0], c[1], self._cap, out[BP])
        tail = table[:, m + 3 :] if self._tail else None
        landscape.win_prob_cost(
            out[BP], table[:, m : m + 1], table[:, m + 1 : m + 2], table[:, m + 2 : m + 3], tail,
            out[PROB : COST + 1],
        )
        np.multiply(c, out[PROB : COST + 1], out=c)
        np.add(c[0], c[1], out=out[SCORE])
        out[PPI] = ppi
        return out

    def _responses(self, rows: np.ndarray | None, alpha: np.ndarray) -> np.ndarray:
        """The response stack of impressions `rows` (every row if None) at prices `alpha`.

        At the prices of the last `beta_sum` its stack serves the call; either
        way the model lets it go.
        """
        priced = self._price(alpha)
        if self._memo is not None and self._memo[0] == self._prices.tobytes():
            responses = self._memo[1]
            self._memo = None
            return responses if rows is None else responses.take(rows, axis=1)
        self._memo = None
        return self._respond(self._rows if rows is None else self._rows.take(rows, axis=0), priced)

    def decide_rows(self, alpha: np.ndarray) -> RowDecisions:
        """The decision rule for every impression at prices `alpha`."""
        ad, picked, bids = _first_max(self._responses(None, alpha))
        bp, prob, cost = np.where(bids, picked[:SCORE], 0.0)
        return RowDecisions(np.where(bids, ad, -1), bp, picked[SCORE], prob, cost)

    def item_best(self, i: int, alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        responses = self._respond(self._rows[i, None], self._price(alpha))
        return responses[BP, 0], responses[SCORE, 0]

    def _account(
        self, ad: np.ndarray, ppi: np.ndarray, prob: np.ndarray, cost: np.ndarray
    ) -> np.ndarray:
        """`totals` of pairs on ads `ad` whose PPIs are `ppi`."""
        m = self._m
        sums = (
            np.bincount(ad, prob * ppi, m), np.bincount(ad, prob, m),
            np.bincount(ad, cost * ppi, m), np.bincount(ad, cost, m),
        )
        return np.concatenate(sums) @ self._flat_card

    def totals(
        self, rows: np.ndarray, ad: np.ndarray, prob: np.ndarray, cost: np.ndarray
    ) -> np.ndarray:
        """Objective and constraint totals, shape (K + 1,), of impressions `rows` on ads `ad`.

        `prob` and `cost` weight each pair's phi and psi: the win
        probabilities and expected costs of a decision, or the win indicators
        and paid prices of an auction. Per-ad sums of `prob * ppi`, `prob`,
        `cost * ppi` and `cost`, in row order, meet the card in one product.
        """
        return self._account(ad, self._rows[rows, ad], prob, cost)

    def batch_consumption(self, rows: np.ndarray, alpha: np.ndarray) -> np.ndarray:
        """Summed consumption of the chosen ad of each impression in `rows` that bids.

        The rule is `decide_rows`': a row bids iff its top score is >= 0 and
        its bid is positive.
        """
        ad, picked, bids = _first_max(self._responses(rows, alpha))
        chosen = picked.compress(bids, axis=1)
        return self._account(ad.compress(bids), chosen[PPI], chosen[PROB], chosen[COST])[1:]

    def beta_sum(self, alpha: np.ndarray) -> float:
        """Sum of per-impression dual inner values; keeps its response stack for the next read."""
        responses = self._responses(None, alpha)
        self._memo = self._prices.tobytes(), responses
        if self._m == 0:
            return 0.0
        return float(np.maximum(responses[SCORE].max(axis=1), 0.0).sum())

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
