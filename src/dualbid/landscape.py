"""Log-normal model of the highest competing bid in a sealed second-price auction.

The prior describes, per impression, the distribution of the strongest
opposing bid. Winning probability at a bid price is the CDF; the expected
payment is the partial first moment, because the winner pays the second
highest price. One array kernel, `win_prob_cost`, forms both closed forms for
`dsp`'s decision rule and for the views `win_prob` and `expected_cost`; it
forms the cost in log space where Phi(z - sigma) leaves the normal range on a
prior whose mean is above 1, and everywhere when the mean overflows.

Fitting uses the censored likelihood of win/loss logs: a won auction reveals
the competing bid exactly (it equals the paid cost), a lost one only that it
exceeded our own bid. A single (mu, sigma) is fitted per observation pool,
by Newton steps in Olsen's (mu / sigma, 1 / sigma), where that likelihood is
concave; per-impression priors are supplied externally (e.g. by the simulator).
Only informative rows count in its mean log-likelihood: a loss at a bid of 0
says nothing, as every competing bid is at least 0.

An observation log is a CSV with the columns outcome, bid_price and
paid_cost, found by name in any order; other columns are ignored and the
outcome is read case-insensitively. `read_observations_csv` parses it
straight into the columns of an `ObservationLog`, which `split_observations`
turns into the won costs and lost bids both fits take. `BidObservation` is
the one-row record that `write_observations_csv` writes.

`scipy.special`, whose import takes about 0.3 s, loads at the first call that
prices a bid (`win_prob_cost` and its views) or fits a log
(`censored_log_likelihood`, `fit_censored`), not at import. So `gen`, the
replay of the feedback baselines (`db_single`, `db_multi`, `ortb`, `lin`) and
`fit --family ortb` run without it. `solve` and `fit --family lognormal`
still pay for the import, at their first kernel call.
"""

from __future__ import annotations

import csv
import functools
import math
from array import array
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = [
    "BidObservation",
    "CensoredFit",
    "EmptyObservationsError",
    "LandscapePrior",
    "NDTR_TAIL",
    "NoWinObservationsError",
    "OBSERVATION_CSV_HEADER",
    "ObservationLog",
    "Outcome",
    "censored_log_likelihood",
    "expected_cost",
    "fit_censored",
    "fit_to_json",
    "mean",
    "pdf",
    "prior_arrays",
    "read_observations_csv",
    "split_observations",
    "win_prob",
    "win_prob_cost",
    "write_observations_csv",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


@functools.cache
def _special() -> tuple[np.ufunc, np.ufunc, np.ufunc]:
    """scipy.special's `erfcx`, `log_ndtr` and `ndtr`, imported at the first call."""
    from scipy.special import erfcx, log_ndtr, ndtr

    return erfcx, log_ndtr, ndtr


class EmptyObservationsError(ValueError):
    """No observations were supplied to the fitter."""


class NoWinObservationsError(ValueError):
    """All observations are losses; pure right-censoring cannot locate the distribution."""


@dataclass(frozen=True)
class LandscapePrior:
    """Log-normal parameters of the highest competing bid.

    `mu` and `sigma` are the location and scale of ln(price), so the
    distribution has median exp(mu) and mean exp(mu + sigma^2 / 2).
    """

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu!r}")
        # sigma^2 / 2 enters the mean, so the square must be finite too.
        if not (self.sigma > 0.0 and math.isfinite(self.sigma * self.sigma)):
            raise ValueError(f"sigma must be positive with a finite square, got {self.sigma!r}")


class Outcome(Enum):
    WON = "WON"
    LOST = "LOST"


@dataclass(frozen=True)
class BidObservation:
    """One logged auction: our bid, the outcome, and the paid cost if we won."""

    outcome: Outcome
    bid_price: float
    paid_cost: float | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.bid_price) and self.bid_price >= 0.0):
            raise ValueError(f"bid_price must be >= 0, got {self.bid_price!r}")
        if self.outcome is Outcome.WON:
            if self.paid_cost is None:
                raise ValueError("a won auction must record its paid cost")
            if not (0.0 <= self.paid_cost <= self.bid_price):
                raise ValueError(
                    f"paid_cost {self.paid_cost!r} must lie in [0, bid_price={self.bid_price!r}]"
                )
        elif self.paid_cost is not None:
            raise ValueError("a lost auction has no paid cost")


def _scalar_or_array(x, out: np.ndarray):
    return float(out) if np.ndim(x) == 0 else out


def pdf(prior: LandscapePrior, x) -> float | np.ndarray:
    """Density of the highest competing bid at price `x` (0 at and below x = 0)."""
    xa = np.asarray(x, dtype=float)
    out = np.zeros(xa.shape)
    pos = xa > 0.0
    if np.any(pos):
        lx = np.log(xa[pos])
        z = (lx - prior.mu) / prior.sigma
        # exp(-z^2/2 - ln x) keeps the x -> 0 limit underflow-safe.
        out[pos] = np.exp(-0.5 * z * z - lx) / (prior.sigma * _SQRT_2PI)
    return _scalar_or_array(x, out)


#: `ndtr` below this may leave the normal range: ndtr(-37.5) is 4.6e-308, ndtr(-38) 0.
NDTR_TAIL = -37.5


def prior_arrays(mu: np.ndarray, sigma: np.ndarray) -> tuple[np.ndarray, ...]:
    """Views of the (N,) `mu` and `sigma` as (N, 1) columns, their means, and the tail bounds.

    The mean is `mean`'s libm `exp` per prior, not `np.exp` over the array
    (their last bits can differ); where it overflowed it is stored as 0. The
    tail bound, shaped (N, 1), tells `win_prob_cost` where a cost takes the
    log-space form: +inf where the mean overflowed, `NDTR_TAIL` where it is
    above 1, and -inf elsewhere. It is None where every mean is at most 1, as
    then a cost below the tail is not a normal double either.
    """
    means = np.array([_exp(m + 0.5 * s * s) for m, s in zip(mu.tolist(), sigma.tolist())])[:, None]
    above, over = means > 1.0, np.isinf(means)
    tail = np.where(over, np.inf, np.where(above, NDTR_TAIL, -np.inf)) if above.any() else None
    means[over] = 0.0
    return mu[:, None], sigma[:, None], means, tail


def win_prob_cost(bp: np.ndarray, mu, sigma, mean, tail, out: np.ndarray) -> np.ndarray:
    """Win probability and expected cost at bids `bp`, into `out`, shaped (2, *bp.shape).

    The prior arrays, in `prior_arrays`' format, broadcast to `bp`. With z =
    (ln bp - mu) / sigma, the cost is the partial first moment mean * Phi(z -
    sigma); one `ndtr` call forms both CDFs. A bid <= 0 keeps z = -inf, so it
    neither wins nor pays (scipy's ufuncs mishandle `where=`). Where z - sigma
    is at or below `tail`, the cost is exp(mu + sigma^2/2 + log Phi(z - sigma)):
    `ndtr` there may be subnormal or 0 while the cost is a normal double
    (Cody 1969 on the normal tail), or the mean overflowed.
    """
    _, log_ndtr, ndtr = _special()
    prob, cost = out
    prob.fill(-np.inf)
    np.log(bp, out=prob, where=bp > 0.0)
    prob -= mu
    prob /= sigma
    np.subtract(prob, sigma, out=cost)
    if tail is not None:
        log_moment = mu + 0.5 * sigma * sigma + log_ndtr(cost)
        in_tail = cost <= tail
    ndtr(out, out=out)
    cost *= mean
    if tail is not None:
        np.exp(log_moment, out=cost, where=in_tail)
    return out


def _prob_cost(prior: LandscapePrior, bid_price, row: int) -> float | np.ndarray:
    """Row `row` of `win_prob_cost` for one prior, with the bids laid out as one model row."""
    bp = np.asarray(bid_price, dtype=float)
    columns = prior_arrays(np.array([prior.mu]), np.array([prior.sigma]))
    out = win_prob_cost(bp.reshape(1, -1), *columns, np.empty((2, 1, bp.size)))
    return _scalar_or_array(bid_price, out[row].reshape(bp.shape))


def win_prob(prior: LandscapePrior, bid_price) -> float | np.ndarray:
    """Probability of winning at `bid_price`: the CDF of the competing bid."""
    return _prob_cost(prior, bid_price, 0)


def expected_cost(prior: LandscapePrior, bid_price) -> float | np.ndarray:
    """Expected payment at `bid_price` under the second-price rule.

    This is the partial first moment of the competing-bid distribution,
    exp(mu + sigma^2/2) * Phi((ln bp - mu)/sigma - sigma); it increases to the
    distribution mean as the bid grows.
    """
    return _prob_cost(prior, bid_price, 1)


def mean(prior: LandscapePrior) -> float:
    """Mean of the competing-bid distribution, exp(mu + sigma^2 / 2).

    Returns `math.inf` where that overflows a double (from sigma of about
    37.7 at mu = 0).
    """
    return _exp(prior.mu + 0.5 * prior.sigma * prior.sigma)


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# Censored maximum likelihood
# ---------------------------------------------------------------------------


def censored_log_likelihood(
    won_costs: np.ndarray, lost_bids: np.ndarray, mu: float, sigma: float
) -> float:
    """Censored log-likelihood of (mu, sigma) given won costs and lost bids.

    Won auctions contribute log pdf(paid cost); lost ones contribute the
    log survival log(1 - CDF(bid)). Lost bids at or below 0 are vacuous
    (survival 1) and contribute nothing.
    """
    w = np.asarray(won_costs, dtype=float)
    l = np.asarray(lost_bids, dtype=float)
    ll = 0.0
    if w.size:
        lw = np.log(w)
        zw = (lw - mu) / sigma
        ll += float(
            -np.sum(lw)
            - w.size * (math.log(sigma) + 0.5 * math.log(2.0 * math.pi))
            - 0.5 * np.sum(zw * zw)
        )
    l = l[l > 0.0]
    if l.size:
        _, log_ndtr, _ = _special()
        zl = (np.log(l) - mu) / sigma
        ll += float(np.sum(log_ndtr(-zl)))
    return ll


@dataclass(frozen=True)
class CensoredFit:
    """Result of `fit_censored`: the fitted prior plus optimizer diagnostics."""

    prior: LandscapePrior
    converged: bool
    log_likelihood: float
    iterations: int
    grad_norm: float


def fit_to_json(fit: CensoredFit) -> dict:
    return {
        "mu": fit.prior.mu,
        "sigma": fit.prior.sigma,
        "converged": fit.converged,
        "log_likelihood": fit.log_likelihood,
        "iterations": fit.iterations,
        "grad_norm": fit.grad_norm,
    }


@dataclass(frozen=True, eq=False)
class ObservationLog:
    """An auction log as columns, one entry per row in log order.

    `won` marks the won auctions, `bid_price` holds every bid and `paid_cost`
    the won auctions' costs, NaN where the auction was lost. `len()` is the
    row count. `read_observations_csv` returns one; `from_records` builds one
    from `BidObservation`s, whose checks it assumes passed.
    """

    won: np.ndarray
    bid_price: np.ndarray
    paid_cost: np.ndarray

    def __len__(self) -> int:
        return self.won.size

    @classmethod
    def from_records(cls, observations: Sequence[BidObservation]) -> ObservationLog:
        return cls(
            np.array([o.outcome is Outcome.WON for o in observations], dtype=bool),
            np.array([o.bid_price for o in observations], dtype=float),
            np.array(
                [math.nan if o.paid_cost is None else o.paid_cost for o in observations],
                dtype=float,
            ),
        )


def split_observations(
    observations: ObservationLog | Sequence[BidObservation],
) -> tuple[np.ndarray, np.ndarray]:
    """Won costs and lost bids of a log, each in log order, for the censored fits.

    An `ObservationLog` is split by its `won` column; a sequence of
    `BidObservation`s is laid out as one first. Raises
    `EmptyObservationsError` on an empty log, `NoWinObservationsError` when
    nothing was won, and `ValueError` when a won cost is not positive.
    """
    if not isinstance(observations, ObservationLog):
        observations = ObservationLog.from_records(observations)
    if not len(observations):
        raise EmptyObservationsError("observations must be nonempty")
    won = observations.paid_cost[observations.won]
    if not won.size:
        raise NoWinObservationsError("at least one won auction is required")
    if np.any(won <= 0.0):
        raise ValueError("won auctions must have strictly positive paid costs")
    return won, observations.bid_price[~observations.won]


def _mean_ll_derivatives(
    won: tuple[int, float, float], lost_y: np.ndarray, delta: float, gamma: float, n: int
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean log-likelihood with its gradient and Hessian in Olsen's (delta, gamma).

    With delta = mu / sigma and gamma = 1 / sigma, a row at log price y has
    z = gamma y - delta. A won row contributes ln gamma - z^2 / 2, with gradient
    (z, 1 / gamma - z y) and Hessian [[-1, y], [., -1 / gamma^2 - y^2]], so the
    won rows enter only through `won` = (count, sum y, sum y^2). A lost row
    contributes ln(1 - Phi(z)); with hazard h = phi(z) / (1 - Phi(z)) and
    h'(z) = h (h - z) in (0, 1), its gradient is (h, -h y) and its Hessian
    -h' [[1, -y], [., y^2]]. The won part is negative definite and each lost
    row's is negative semidefinite, so the Hessian is negative definite once
    an auction is won (Olsen, Econometrica 1978). The value leaves out the
    won rows' constant, -sum(ln cost) - count ln(2 pi) / 2.

    The hazard is sqrt(2 / pi) / erfcx(z / sqrt(2)), accurate to about eps at
    large z, so h - z ~ 1/z keeps h' within 1e-6 up to z = 1e5. Where gamma is
    not positive or a term overflows, the values come back non-finite.
    """
    erfcx, log_ndtr, _ = _special()
    count, sum_y, sum_y2 = won
    sum_z, sum_zy = gamma * sum_y - count * delta, gamma * sum_y2 - delta * sum_y
    z = gamma * lost_y - delta
    log_sf = log_ndtr(-z)
    hazard = math.sqrt(2.0 / math.pi) / erfcx(z / math.sqrt(2.0))
    dhazard = hazard * (hazard - z)
    dhazard_y = dhazard * lost_y
    ll = count * np.log(gamma) - 0.5 * (gamma * sum_zy - delta * sum_z) + np.sum(log_sf)
    grad = np.array([sum_z + np.sum(hazard), count / gamma - sum_zy - np.sum(hazard * lost_y)])
    h_dg = sum_y + np.sum(dhazard_y)
    hess = np.array([
        [-count - np.sum(dhazard), h_dg],
        [h_dg, -count / gamma**2 - sum_y2 - np.sum(dhazard_y * lost_y)],
    ])
    return float(ll) / n, grad / n, hess / n


def fit_censored(
    observations: ObservationLog | Sequence[BidObservation],
    init: LandscapePrior | None = None,
    grad_tol: float = 1e-8,
    max_iter: int = 10000,
) -> CensoredFit:
    """Fit (mu, sigma) to win/loss logs by censored maximum likelihood.

    The optimizer works in Olsen's (delta, gamma) = (mu / sigma, 1 / sigma),
    on log prices centred at the won costs' mean. There the log-likelihood is
    strictly concave once an auction is won, so each iteration takes the
    Newton step -H^-1 g from the closed-form 2x2 Hessian of the mean
    log-likelihood (see `_mean_ll_derivatives`), an ascent direction.
    Backtracking halves the step, starting from a unit step, until the mean
    log-likelihood rises by at least 1e-4 of the rise its slope predicts
    (Armijo).

    The fit stops with ``converged=True`` once `grad_norm`, the norm of the
    mean log-likelihood's gradient in (mu, ln sigma), is at or below
    `grad_tol`. (The gradient in (delta, gamma) vanishes as sigma -> 0, where
    the likelihood can grow without bound.) The mean is over the won rows
    and the lost rows with a positive bid: a loss at a bid of 0 is vacuous
    and does not dilute it. A line-search candidate that
    meets this rule is taken even if its likelihood shows no rise: near the
    optimum the likelihood changes by less than its own rounding error while
    the gradient is still resolved. By concavity that point is the maximum.

    Two exits return the current iterate with ``converged=False`` rather than
    raising: `max_iter` steps without reaching `grad_tol`, and a stall, where
    the Newton step is not a finite ascent direction or backtracking has
    shrunk it until it no longer moves (delta, gamma) in floating point. A
    candidate whose likelihood or gradient is not finite, such as one with
    gamma <= 0, is rejected. A `grad_tol` below the rounding error of the
    gradient ends in a stall after a few steps. When `init` is omitted, the
    log-space moments of the won costs are used (for uncensored data that is
    already the maximizer). `iterations` counts the steps taken.
    """
    won, lost = split_observations(observations)
    won_log = np.log(won)
    centre = float(np.mean(won_log))
    won_y = won_log - centre
    won_sums = (won.size, float(np.sum(won_y)), float(np.sum(won_y * won_y)))
    lost_y = np.log(lost[lost > 0.0]) - centre
    n = won.size + lost_y.size

    def evaluate(theta: np.ndarray) -> tuple[float, np.ndarray, np.ndarray, float]:
        f, g, h = _mean_ll_derivatives(won_sums, lost_y, theta[0], theta[1], n)
        # The gradient in (mu, ln sigma), by the chain rule from (delta, gamma).
        return f, g, h, math.hypot(theta[1] * g[0], theta[0] * g[0] + theta[1] * g[1])

    if init is None:
        theta = np.array([0.0, 1.0 / max(float(np.std(won_log)), 1e-3)])
    else:
        theta = np.array([(init.mu - centre) / init.sigma, 1.0 / init.sigma])

    f, g, h, g_norm = evaluate(theta)
    iterations = 0
    while grad_tol < g_norm < math.inf and iterations < max_iter:
        (h_dd, h_dg), (_, h_gg) = h
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            direction = np.array([h_dg * g[1] - h_gg * g[0], h_dg * g[0] - h_dd * g[1]])
            direction /= h_dd * h_gg - h_dg * h_dg
            slope = float(g @ direction)
        if not 0.0 < slope < math.inf:
            break  # stalled: the Newton step is not a finite ascent direction
        step = 1.0
        while True:
            cand = theta + step * direction
            if np.array_equal(cand, theta):
                break
            # The Armijo test compares the rise itself, so a likelihood that
            # rounds to f's does not pass it.
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                f_cand, g_cand, h_cand, g_cand_norm = evaluate(cand)
            if math.isfinite(f_cand) and math.isfinite(g_cand_norm) and (
                f_cand - f >= 1e-4 * step * slope or g_cand_norm <= grad_tol
            ):
                break
            step *= 0.5
        if np.array_equal(cand, theta):
            break  # stalled: no representable step passes the line search
        theta, f, g, h, g_norm = cand, f_cand, g_cand, h_cand, g_cand_norm
        iterations += 1

    mu_hat, sigma_hat = centre + float(theta[0] / theta[1]), float(1.0 / theta[1])
    return CensoredFit(
        prior=LandscapePrior(mu_hat, sigma_hat),
        converged=g_norm <= grad_tol,
        log_likelihood=censored_log_likelihood(won, lost, mu_hat, sigma_hat),
        iterations=iterations,
        grad_norm=g_norm,
    )


# ---------------------------------------------------------------------------
# Observation log I/O
# ---------------------------------------------------------------------------

OBSERVATION_CSV_HEADER = ["outcome", "bid_price", "paid_cost"]


#: The reader's per-row flags: the outcome is WON, and the row records a cost.
_OUTCOME_FLAGS = {"LOST": 0, "WON": 1}
_PAID = 2


def read_observations_csv(path: str | Path) -> ObservationLog:
    """Read an auction log into columns, checking every row as a `BidObservation`.

    The header names the columns outcome (WON or LOST, in any case, blanks
    around it ignored), bid_price and paid_cost (empty for a lost auction).
    They are found by name in any order, other columns are ignored, and of
    repeated names the last counts. Blank lines are skipped and numbers are
    read by Python's `float`. The rows stream into typed buffers and are
    checked as arrays; the first row in file order that is short, does not
    parse or breaks a `BidObservation` check raises that row's `ValueError`.
    """
    flags, bids, costs = bytearray(), array("d"), array("d")
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        index = {name: i for i, name in enumerate(next(reader, []))}
        missing = set(OBSERVATION_CSV_HEADER) - index.keys()
        if missing:
            raise ValueError(f"observation CSV missing columns: {sorted(missing)}")
        columns = [index[name] for name in OBSERVATION_CSV_HEADER]
        i_outcome, i_bid, i_cost = columns
        for row in reader:
            if not row:
                continue
            try:
                flag = _OUTCOME_FLAGS[row[i_outcome].strip().upper()]
                bid = float(row[i_bid])
                paid = row[i_cost] if i_cost < len(row) else ""
                cost = float(paid) if paid else math.nan
            except (LookupError, ValueError):
                break  # the rows before it may hold an earlier error
            flags.append(flag | _PAID if paid else flag)
            bids.append(bid)
            costs.append(cost)
        else:
            row = None
    won = _check_rows(flags, bids, costs)
    if row is not None:
        _parse_row(row, reader.line_num, columns)
    return ObservationLog(won, np.frombuffer(bids, dtype=float), np.frombuffer(costs, dtype=float))


def _parse_row(row: list[str], line: int, columns: list[int]) -> BidObservation:
    """One row of the log as a record, raising the first error in its fields."""
    i_outcome, i_bid, i_cost = columns
    for name, i in (("outcome", i_outcome), ("bid_price", i_bid)):
        if i >= len(row):
            raise ValueError(f"observation CSV line {line} has no {name}")
    paid = row[i_cost] if i_cost < len(row) else ""
    return BidObservation(
        Outcome(row[i_outcome].strip().upper()), float(row[i_bid]), float(paid) if paid else None
    )


def _check_rows(flags: bytearray, bids: array, costs: array) -> np.ndarray:
    """`BidObservation`'s checks over the parsed rows, and their won column.

    The first row that fails a check raises, through `BidObservation`.
    """
    flag = np.frombuffer(flags, dtype=np.uint8)
    bid, cost = np.frombuffer(bids, dtype=float), np.frombuffer(costs, dtype=float)
    won, paid = (flag & 1) == 1, (flag & _PAID) == _PAID
    ok = np.isfinite(bid) & (bid >= 0.0) & np.where(won, paid & (0.0 <= cost) & (cost <= bid), ~paid)
    if not ok.all():
        r = int(np.argmin(ok))
        outcome = Outcome.WON if won[r] else Outcome.LOST
        BidObservation(outcome, bids[r], costs[r] if paid[r] else None)
    return won


def write_observations_csv(path: str | Path, observations: Sequence[BidObservation]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(OBSERVATION_CSV_HEADER)
        writer.writerows((o.outcome.value, o.bid_price, o.paid_cost) for o in observations)
