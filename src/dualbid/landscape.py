"""Log-normal model of the highest competing bid in a sealed second-price auction.

The prior describes, per impression, the distribution of the strongest
opposing bid. Winning probability at a bid price is the CDF; the expected
payment is the partial first moment, because the winner pays the second
highest price. Both have closed forms for the log-normal family.

Fitting uses the censored likelihood of win/loss logs: a won auction reveals
the competing bid exactly (it equals the paid cost), a lost one only that it
exceeded our own bid. A single (mu, sigma) is fitted per observation pool;
per-impression priors are supplied externally (e.g. by the simulator).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.special import log_ndtr, ndtr

__all__ = [
    "BidObservation",
    "CensoredFit",
    "EmptyObservationsError",
    "LandscapePrior",
    "NoWinObservationsError",
    "OBSERVATION_CSV_HEADER",
    "Outcome",
    "censored_log_likelihood",
    "expected_cost",
    "fit_censored",
    "fit_to_json",
    "mean",
    "partial_moment",
    "pdf",
    "read_observations_csv",
    "win_prob",
    "write_observations_csv",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


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
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma!r}")


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


def win_prob(prior: LandscapePrior, bid_price) -> float | np.ndarray:
    """Probability of winning at `bid_price`: the CDF of the competing bid."""
    bp = np.asarray(bid_price, dtype=float)
    out = np.zeros(bp.shape)
    pos = bp > 0.0
    if np.any(pos):
        out[pos] = ndtr((np.log(bp[pos]) - prior.mu) / prior.sigma)
    return _scalar_or_array(bid_price, out)


def expected_cost(prior: LandscapePrior, bid_price) -> float | np.ndarray:
    """Expected payment at `bid_price` under the second-price rule.

    This is the partial first moment of the competing-bid distribution,
    exp(mu + sigma^2/2) * Phi((ln bp - mu)/sigma - sigma); it increases to the
    distribution mean as the bid grows.
    """
    bp = np.asarray(bid_price, dtype=float)
    out = np.zeros(bp.shape)
    pos = bp > 0.0
    if np.any(pos):
        z = (np.log(bp[pos]) - prior.mu) / prior.sigma
        out[pos] = partial_moment(prior.mu, prior.sigma, z)
    return _scalar_or_array(bid_price, out)


def mean(prior: LandscapePrior) -> float:
    """Mean of the competing-bid distribution, exp(mu + sigma^2 / 2).

    Returns `math.inf` where that overflows a double (from sigma of about
    37.7 at mu = 0).
    """
    try:
        return math.exp(prior.mu + 0.5 * prior.sigma * prior.sigma)
    except OverflowError:
        return math.inf


def partial_moment(mu: float, sigma: float, z):
    """Partial first moment exp(mu + sigma^2/2) * Phi(z - sigma) at standardized log-bid `z`.

    This is the expected second-price payment at a bid bp with
    z = (ln bp - mu) / sigma, so it never exceeds bp * Phi(z). Where the mean
    exp(mu + sigma^2/2) overflows, the product is formed in log space as
    exp(mu + sigma^2/2 + log Phi(z - sigma)), which stays finite; everywhere
    else it is the plain product. `z` may be a float or an array.
    """
    try:
        return math.exp(mu + 0.5 * sigma * sigma) * ndtr(z - sigma)
    except OverflowError:
        return np.exp(mu + 0.5 * sigma * sigma + log_ndtr(z - sigma))


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


def fit_to_json(fit: CensoredFit) -> dict:
    return {
        "mu": fit.prior.mu,
        "sigma": fit.prior.sigma,
        "converged": fit.converged,
        "log_likelihood": fit.log_likelihood,
    }


def _split_observations(
    observations: Sequence[BidObservation],
) -> tuple[np.ndarray, np.ndarray]:
    if not observations:
        raise EmptyObservationsError("observations must be nonempty")
    won = [o.paid_cost for o in observations if o.outcome is Outcome.WON]
    lost = [o.bid_price for o in observations if o.outcome is Outcome.LOST]
    if not won:
        raise NoWinObservationsError("at least one won auction is required")
    won_a = np.asarray(won, dtype=float)
    if np.any(won_a <= 0.0):
        raise ValueError("won auctions must have strictly positive paid costs")
    return won_a, np.asarray(lost, dtype=float)


def _mean_ll_derivatives(
    won_log: np.ndarray, lost_log: np.ndarray, mu: float, t: float, n: int
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean log-likelihood with its gradient and Hessian in (mu, t), sigma = exp(t).

    A won row with z = (ln cost - mu) / sigma has gradient (z / sigma, z^2 - 1)
    and Hessian [[-1 / sigma^2, -2z / sigma], [., -2z^2]]. A lost row with
    z = (ln bid - mu) / sigma and hazard h = phi(z) / (1 - Phi(z)) has gradient
    (h / sigma, h z); with h'(z) = h (h - z) its Hessian is
    -[[h' / sigma^2, (h' z + h) / sigma], [., h' z^2 + h z]].

    Where sigma over- or underflows, the values come back non-finite.
    """
    sigma = np.exp(t)
    zw = (won_log - mu) / sigma
    zw2 = zw * zw
    sum_zw, sum_zw2 = np.sum(zw), np.sum(zw2)
    ll = -np.sum(won_log) - won_log.size * (t + 0.5 * math.log(2.0 * math.pi)) - 0.5 * sum_zw2
    g_mu = sum_zw / sigma
    g_t = sum_zw2 - won_log.size
    h_mumu = -won_log.size / sigma**2
    h_mut = -2.0 * sum_zw / sigma
    h_tt = -2.0 * sum_zw2
    if lost_log.size:
        zl = (lost_log - mu) / sigma
        log_sf = log_ndtr(-zl)
        ll += np.sum(log_sf)
        # Hazard phi(z) / (1 - Phi(z)), computed in log space for stability.
        hazard = np.exp(-0.5 * zl * zl - 0.5 * math.log(2.0 * math.pi) - log_sf)
        dhazard = hazard * (hazard - zl)
        hz = hazard * zl
        g_mu += np.sum(hazard) / sigma
        g_t += np.sum(hz)
        h_mumu -= np.sum(dhazard) / sigma**2
        h_mut -= np.sum(dhazard * zl + hazard) / sigma
        h_tt -= np.sum(dhazard * zl * zl + hz)
    grad = np.array([g_mu, g_t]) / n
    hess = np.array([[h_mumu, h_mut], [h_mut, h_tt]]) / n
    return float(ll) / n, grad, hess


def _ascent_direction(grad: np.ndarray, hess: np.ndarray) -> np.ndarray:
    """Search direction |hess|^-1 grad from the gradient and the 2x2 Hessian.

    |hess| = V |L| V^T for the eigendecomposition hess = V L V^T. Where the
    Hessian is negative definite, |hess| = -hess and this is the Newton step.
    Where it is indefinite, taking |L| turns the step away from the saddle
    and keeps it an ascent direction. A singular Hessian falls back to the
    gradient. For a symmetric 2x2 matrix, |hess| is the square root of
    hess^2 in closed form, (hess^2 + |det| I) / sqrt(tr hess^2 + 2 |det|),
    and |det| is also the determinant of |hess|.
    """
    p, q, r = hess[0, 0], hess[0, 1], hess[1, 1]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        det = abs(p * r - q * q)
        scale = np.sqrt(p * p + 2.0 * q * q + r * r + 2.0 * det)
        a, b, c = (p * p + q * q + det) / scale, q * (p + r) / scale, (q * q + r * r + det) / scale
        direction = np.array([c * grad[0] - b * grad[1], a * grad[1] - b * grad[0]]) / det
    return direction if np.all(np.isfinite(direction)) else grad


def fit_censored(
    observations: Sequence[BidObservation],
    init: LandscapePrior | None = None,
    grad_tol: float = 1e-8,
    max_iter: int = 10000,
) -> CensoredFit:
    """Fit (mu, sigma) to win/loss logs by censored maximum likelihood.

    The optimizer works on (mu, t = ln sigma), which keeps sigma positive
    without constraints. Each iteration takes a Newton step built from the
    closed-form 2x2 Hessian of the mean log-likelihood. Far from the optimum
    that Hessian can be indefinite; there the step uses the absolute values
    of its eigenvalues, which keeps it an ascent direction, and a singular
    Hessian falls back to a gradient step (see `_ascent_direction`).
    Backtracking halves the step, starting from a unit step, until the mean
    log-likelihood rises by at least 1e-4 of the rise its slope predicts
    (Armijo).

    The fit stops with ``converged=True`` once the gradient norm of the mean
    log-likelihood is at or below `grad_tol`. A line-search candidate that
    meets this rule is taken even if its likelihood shows no rise: near the
    optimum the likelihood changes by less than its own rounding error while
    the gradient is still resolved. Such a point is the maximum, because the
    censored normal log-likelihood is strictly concave in Olsen's
    (mu / sigma, 1 / sigma) once an auction is won, so it has no other
    stationary point.

    Two exits return the current iterate with ``converged=False`` rather than
    raising: `max_iter` steps without reaching `grad_tol`, and a stall, where
    backtracking has shrunk the step until it no longer moves (mu, t) in
    floating point. A `grad_tol` below the rounding error of the gradient
    ends in a stall after a few steps. When `init` is omitted, the log-space
    moments of the won costs are used (for uncensored data that is already
    the maximizer). `iterations` counts the steps taken.
    """
    won, lost = _split_observations(observations)
    won_log = np.log(won)
    lost_log = np.log(lost[lost > 0.0]) if lost.size else np.asarray([], dtype=float)
    n = won.size + lost.size

    if init is None:
        mu0 = float(np.mean(won_log))
        s0 = float(np.std(won_log))
        theta = np.array([mu0, math.log(max(s0, 1e-3))])
    else:
        theta = np.array([init.mu, math.log(init.sigma)])

    f, g, h = _mean_ll_derivatives(won_log, lost_log, theta[0], theta[1], n)
    g_norm = float(np.linalg.norm(g))
    iterations = 0
    while grad_tol < g_norm < math.inf and iterations < max_iter:
        direction = _ascent_direction(g, h)
        slope = float(g @ direction)
        step = 1.0
        while True:
            cand = theta + step * direction
            if np.array_equal(cand, theta):
                break
            # Where sigma over- or underflows, the candidate's likelihood or
            # gradient is not finite and it is rejected. The Armijo test
            # compares the rise itself, so a likelihood that rounds to f's
            # does not pass it.
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                f_cand, g_cand, h_cand = _mean_ll_derivatives(
                    won_log, lost_log, cand[0], cand[1], n
                )
                g_cand_norm = float(np.linalg.norm(g_cand))
            if math.isfinite(f_cand) and math.isfinite(g_cand_norm) and (
                f_cand - f >= 1e-4 * step * slope or g_cand_norm <= grad_tol
            ):
                break
            step *= 0.5
        if np.array_equal(cand, theta):
            break  # stalled: no representable step passes the line search
        theta, f, g, h, g_norm = cand, f_cand, g_cand, h_cand, g_cand_norm
        iterations += 1

    mu_hat, sigma_hat = float(theta[0]), math.exp(float(theta[1]))
    return CensoredFit(
        prior=LandscapePrior(mu_hat, sigma_hat),
        converged=g_norm <= grad_tol,
        log_likelihood=censored_log_likelihood(won, lost, mu_hat, sigma_hat),
        iterations=iterations,
    )


# ---------------------------------------------------------------------------
# Observation log I/O
# ---------------------------------------------------------------------------

OBSERVATION_CSV_HEADER = ["outcome", "bid_price", "paid_cost"]


def read_observations_csv(path: str | Path) -> list[BidObservation]:
    """Read an auction log with columns outcome (WON|LOST), bid_price, paid_cost."""
    observations: list[BidObservation] = []
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        missing = set(OBSERVATION_CSV_HEADER) - set(reader.fieldnames or [])
        if missing:
            raise ValueError(f"observation CSV missing columns: {sorted(missing)}")
        for row in reader:
            outcome = Outcome(row["outcome"].strip().upper())
            paid = row.get("paid_cost", "")
            observations.append(
                BidObservation(
                    outcome=outcome,
                    bid_price=float(row["bid_price"]),
                    paid_cost=float(paid) if paid not in ("", None) else None,
                )
            )
    return observations


def write_observations_csv(path: str | Path, observations: Sequence[BidObservation]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(OBSERVATION_CSV_HEADER)
        for o in observations:
            writer.writerow(
                [o.outcome.value, repr(o.bid_price), "" if o.paid_cost is None else repr(o.paid_cost)]
            )
