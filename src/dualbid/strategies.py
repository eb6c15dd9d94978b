"""Baseline bidding strategies: linear bidding (LIN) and optimal-RTB (ORTB).

Both baselines, like the dual-based bidder, steer a single parameter toward a
target ROI with a multiplicative feedback rule between windows. LIN bids a
flat per-ad level scaled off an operator-set base; ORTB models the win curve
as w(bp; c) = bp / (c + bp) and bids the closed-form maximizer of its shaded
surplus, with c refitted from observed auctions: a censored maximum-likelihood
fit whose score root is found by safeguarded Newton steps. `ortb_fit_c`
evaluates the score exactly, over every observation. A replay's first refit
is that fit; each later one starts from the c before it and evaluates the
score from power sums of the log about an anchor (`_OrtbMoments`, one array
pair per window), which a window extends in O(K) work per observation. A
score evaluation then costs O(K), not a pass over the log, so a replay runs
in time linear in its epochs. The parameters these functions take must be
positive and finite.
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
    "ortb_log_likelihood",
]

#: Clamp range shared by all feedback-updated parameters.
PARAM_BOUNDS = (1e-6, 1e6)

#: Lower end of the range `ortb_fit_c` searches for the win-curve scale.
_C_MIN = 1e-12
#: `ortb_fit_c` stops once a Newton step moves c by at most this share of c.
_C_RTOL = 1e-12


def _require_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class UpdateResult:
    """A feedback-updated value; flags record degenerate windows and clamping."""

    value: float
    degenerate: bool = False
    clamped: bool = False


def multiplicative_update(param: float, target_roi: float, actual_roi: float) -> UpdateResult:
    """Feedback rule param' = (target / actual) * param, clamped to `PARAM_BOUNDS`.

    Shared by ORTB's shadow price and the dual bidder's feedback mode. A
    window with nonpositive or NaN actual ROI (no revenue) carries no
    signal: the parameter is returned unchanged with the degenerate flag
    set. A window won at cost 0 has ROI +inf and clamps to the lower bound.
    """
    _require_positive("param", param)
    _require_positive("target_roi", target_roi)
    if not actual_roi > 0.0:
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
    that beat its ROI target can afford to bid above the base, and one won
    at cost 0 (ROI +inf) bids the cap. Degenerate windows (nonpositive or
    NaN ROI) keep the base bid, clamped to the cap.
    """
    _require_positive("bid_base", bid_base)
    _require_positive("target_roi", target_roi)
    if not actual_roi > 0.0:
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
        _require_positive("c", self.c)
        _require_positive("lambda", self.lam)


def ortb_bid(state: OrtbState, cpi, target_roi: float):
    """ORTB bid sqrt(c * cpi / roi * (1 + 1/lambda) + c^2) - c, elementwise over cpi."""
    _require_positive("target_roi", target_roi)
    cpi_a = np.asarray(cpi, dtype=float)
    out = np.sqrt(state.c * cpi_a / target_roi * (1.0 + 1.0 / state.lam) + state.c * state.c) - state.c
    out = np.maximum(out, 0.0)
    return float(out) if np.ndim(cpi) == 0 else out


@dataclass(frozen=True)
class OrtbFit:
    """A fitted win-curve scale; `converged` is False when the root left the bracket."""

    c: float
    converged: bool


def _checked_observations(
    won_costs, lost_bids,
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """The fit's inputs as float arrays, checked, with vacuous lost bids (<= 0) dropped.

    Also returns the largest won cost and the smallest observation kept, or 0
    and inf where there are none.
    """
    won = np.asarray(won_costs, dtype=float)
    lost = np.asarray(lost_bids, dtype=float)
    # min and max propagate NaN, so two passes per array check finiteness.
    ends = [float(end) for x in (won, lost) if x.size for end in (x.min(), x.max())]
    if not all(map(math.isfinite, ends)):
        raise ValueError("won costs and lost bids must be finite")
    won_min, won_max = ends[:2] if won.size else (math.inf, 0.0)
    if won_min < 0.0:
        raise ValueError("won auctions must have nonnegative paid costs")
    # The fit searches c up to at least 4 * max(won) + 1, a finite double.
    if 4.0 * won_max + 1.0 == math.inf:
        raise ValueError(f"won costs must be at most 4.49e307, got {won_max!r}")
    lost_min = ends[-2] if lost.size else math.inf
    if lost_min <= 0.0:
        lost = lost[lost > 0.0]
        lost_min = float(lost.min()) if lost.size else math.inf
    return won, lost, won_max, min(won_min, lost_min)


def _ortb_observations(won_costs, lost_bids) -> tuple[np.ndarray, np.ndarray, float, float]:
    """`_checked_observations` of a log that must hold at least one won auction."""
    if np.size(won_costs) == 0:
        raise NoWinObservationsError("at least one won auction is required")
    return _checked_observations(won_costs, lost_bids)


def ortb_log_likelihood(c: float, won_costs, lost_bids) -> float:
    """Censored log-likelihood of the win-curve scale c, the value `fit` reports.

    Won costs contribute the log density c/(c+x)^2 and lost bids the log
    survival c/(c+bid); lost bids at or below 0 are dropped, as in `ortb_fit_c`.
    """
    won, lost, _, _ = _ortb_observations(won_costs, lost_bids)
    ll = won.size * math.log(c) - 2.0 * float(np.sum(np.log(c + won)))
    if lost.size:
        ll += lost.size * math.log(c) - float(np.sum(np.log(c + lost)))
    return ll


def _ortb_score(c: float, won: np.ndarray, lost: np.ndarray, n: int) -> tuple[float, float]:
    # The score n - 2 sum a - sum b, with a = c/(c+won) and b = c/(c+lost),
    # and its slope -(2 sum a(1-a) + sum b(1-b))/c: a sum and a dot product
    # of each ratio array give both. With no lost bids, b adds +0.0 to both.
    a, b = c / (c + won), c / (c + lost)
    sum_a, sum_b = float(np.sum(a)), float(np.sum(b))
    value = n - 2.0 * sum_a - sum_b
    curvature = 2.0 * (sum_a - float(np.dot(a, a))) + (sum_b - float(np.dot(b, b)))
    return value, -curvature / c


def _ortb_cold_start(won: np.ndarray, lost: np.ndarray, n: int) -> float:
    # The score's tangent at c -> 0 is n - c (2 sum 1/won + sum 1/lost); its
    # root lies left of the score's. A won cost of 0, or one near the smallest
    # double, makes 1/won infinite, and the start then 0.
    with np.errstate(divide="ignore", over="ignore"):
        slope = 2.0 * float(np.sum(1.0 / won)) + float(np.sum(1.0 / lost))
    return n / slope


def _ortb_c_max(won_max: float) -> float:
    # The top of the range c is searched in: 4 * max(won) + 1, raised by
    # factors of 10 to at least 1e15.
    c_max = 4.0 * won_max + 1.0
    while c_max < 1e15:
        c_max *= 10.0
    return c_max


def _ortb_newton(score, start: float, c_max: float) -> OrtbFit:
    """The root in c of `score(c) -> (value, slope)` by safeguarded Newton steps.

    The loop of `ortb_fit_c`, whose docstring states the method; `score` is
    evaluated once per distinct c.
    """
    c = min(max(start, _C_MIN), c_max)
    # The score falls from at most n as c -> 0 to -won.size < 0 as c -> inf. A
    # bracket end at 0 or inf means that the search end beside it is not evaluated yet.
    lo, hi = 0.0, math.inf
    while True:
        value, slope = score(c)
        if value > 0.0:
            if c == c_max:
                return OrtbFit(c, converged=False)
            lo = c
        elif value < 0.0:
            if c == _C_MIN:
                return OrtbFit(c, converged=False)
            hi = c
        else:
            return OrtbFit(c, converged=True)
        step = -value / slope if slope < 0.0 else math.copysign(math.inf, value)
        if abs(step) <= _C_RTOL * c:
            return OrtbFit(c + step, converged=True)
        if lo < c + step < hi:
            target = c + step
        else:
            # Bisect in log c: the bracket can span dozens of orders of magnitude.
            target = math.sqrt(max(lo, _C_MIN) * min(hi, c_max))
        target = min(max(target, _C_MIN), c_max)
        if not lo < target < hi:
            # The bracket is down to adjacent doubles.
            return OrtbFit(c, converged=True)
        c = target


def ortb_fit_c(won_costs: np.ndarray, lost_bids: np.ndarray, start: float | None = None) -> OrtbFit:
    """Censored MLE of the win-curve scale c from won costs and lost bids.

    The curve w(bp; c) = bp/(c + bp) implies the competing-bid density
    c/(c + x)^2, so won auctions contribute its log density at the paid cost
    and lost ones the log survival at our bid. Lost bids at or below 0 are
    vacuous and dropped. Won costs may be 0 (an underflowed draw, of density
    1/c); negative ones and non-finite inputs raise `ValueError`.

    The score equation in c is convex and strictly decreasing, so it has one
    root, and Newton's method from the root's left climbs to it without
    passing it. The fit runs Newton from `start`, or else from the zero of
    the score's tangent at c -> 0, which lies left of the root. Every
    evaluation shrinks a bracket around the root; a step that leaves it
    bisects the bracket in log c instead, and the fit ends when a step moves
    c by at most 1e-12 of itself. The search is confined to [1e-12, hi],
    where hi is 4 * max(won) + 1 raised by factors of 10 to at least 1e15.
    When the root lies outside, the nearer end is returned with
    `converged=False`; those ends are evaluated only when an iterate reaches
    them. A won cost above about 4.49e307, where hi overflows, raises
    `ValueError`.

    The fit evaluates the score exactly once per distinct c, and leaves the
    log-likelihood to `ortb_log_likelihood`. `landscape.split_observations`
    turns an observation log into the two arrays, and rejects won costs of 0.
    A replay's later refits run the same Newton loop on `_OrtbMoments`, which
    evaluates the score from power sums.
    """
    won, lost, won_max, _ = _ortb_observations(won_costs, lost_bids)
    args = (won, lost, won.size + lost.size)
    if start is None:
        start = _ortb_cold_start(*args)
    # `_ortb_score` is looked up at each evaluation, so a test can stand in for it.
    return _ortb_newton(lambda c: _ortb_score(c, *args), start, _ortb_c_max(won_max))


#: Order K of the power series `_OrtbMoments` evaluates the ORTB score from.
_SERIES_ORDER = 16
#: `_OrtbMoments` re-anchors at any c whose series ratio r exceeds this. Below
#: it the series' relative truncation error r^(K+1)/(1-r) is under 1.2e-17,
#: a tenth of a double's rounding unit 2^-53.
_ANCHOR_RADIUS = 0.1
#: Observations of each kind per power table, which bounds a re-anchor's scratch.
_POWER_CHUNK = 2048


def _add_power_sums(sums: np.ndarray, a: float, won: np.ndarray, lost: np.ndarray) -> None:
    # sums[k] += 2 sum (a+won)^-(k+1) + sum (a+lost)^-(k+1), from one table
    # whose row k holds the (k+1)-th powers. Each product doubles the rows filled.
    table = np.empty((sums.size, won.size + lost.size))
    powers = table[0]
    np.concatenate((won, lost), out=powers)
    np.add(a, powers, out=powers)
    np.divide(1.0, powers, out=powers)
    filled = 1
    while filled < sums.size:
        step = min(filled, sums.size - filled)
        np.multiply(table[:step], table[filled - 1], out=table[filled : filled + step])
        filled += step
    weights = np.ones(table.shape[1])
    weights[: won.size] = 2.0
    sums += table @ weights


class _OrtbMoments:
    """A replay's ORTB observation log, with power sums of it that refit c in O(K).

    Around an anchor a, 1/(c+x) = sum_k (a-c)^k (a+x)^-(k+1). With
    S_k = 2 sum (a+won)^-(k+1) + sum (a+lost)^-(k+1) and d = a - c, the
    score n - 2 sum c/(c+won) - sum c/(c+lost) is n - c P(d), where
    P(d) = sum_k S_k d^k, and its slope is c P'(d) - P(d). Horner's rule
    forms both from the K + 1 sums, whatever the log's length. The series
    converges for r = |c - a| / (a + min x) < 1, with relative truncation
    error below r^(K+1) / (1 - r): the one-centre case of the expansions of
    Greengard & Rokhlin (J. Comput. Phys. 1987), re-centred as they are.

    `add` checks a window's observations as `ortb_fit_c` does and appends
    them to the log as one array pair; `observations` concatenates them.
    `anchor_at` sums the whole log about a, in chunks of bounded scratch.
    `fit` adds the windows added since to the sums, then runs `ortb_fit_c`'s
    Newton loop on them, and re-anchors at any iterate whose r exceeds
    `_ANCHOR_RADIUS`.
    """

    def __init__(self) -> None:
        # Each window's checked (won, lost) pair, in the order added, and their wins.
        self._windows: list[tuple[np.ndarray, np.ndarray]] = []
        self.n_won = 0
        #: The c the sums are taken about; None until the first `anchor_at`.
        self.anchor: float | None = None
        self._largest_won = 0.0
        self._smallest = math.inf
        self._sums = np.zeros(_SERIES_ORDER + 1)
        self._coeffs: list[float] = []
        # The windows, and the observations, that the sums hold.
        self._summed = self._n = 0

    def add(self, won_costs, lost_bids) -> None:
        """Append a window's won costs and lost bids, checked as `ortb_fit_c` checks them."""
        won, lost, largest_won, smallest = _checked_observations(won_costs, lost_bids)
        self._windows.append((won, lost))
        self.n_won += won.size
        self._largest_won = max(self._largest_won, largest_won)
        self._smallest = min(self._smallest, smallest)

    def observations(self, start: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """The won costs and the lost bids of the windows from `start` on, each concatenated."""
        windows = [(np.empty(0), np.empty(0)), *self._windows[start:]]
        return tuple(np.concatenate(column) for column in zip(*windows))

    def anchor_at(self, a: float) -> None:
        """Take the power sums of the whole log about `a`."""
        self.anchor = a
        self._sums[:] = 0.0
        self._summed = self._n = 0
        self._sum_new()

    def _sum_new(self) -> None:
        won, lost = self.observations(self._summed)
        for i in range(0, max(won.size, lost.size), _POWER_CHUNK):
            chunk = slice(i, i + _POWER_CHUNK)
            _add_power_sums(self._sums, self.anchor, won[chunk], lost[chunk])
        self._summed = len(self._windows)
        self._n += won.size + lost.size
        # Highest order first, as Horner's rule reads them.
        self._coeffs = self._sums[::-1].tolist()

    def score(self, c: float) -> tuple[float, float]:
        """The score at c and its slope, re-anchoring at c beyond `_ANCHOR_RADIUS`."""
        if abs(c - self.anchor) > _ANCHOR_RADIUS * (self.anchor + self._smallest):
            self.anchor_at(c)
        d = self.anchor - c
        p = dp = 0.0
        for s in self._coeffs:
            dp = dp * d + p
            p = p * d + s
        return self._n - c * p, c * dp - p

    def fit(self, start: float) -> OrtbFit:
        """The refit of c from `start` over the whole log; `anchor_at` must have run."""
        self._sum_new()
        return _ortb_newton(self.score, start, _ortb_c_max(self._largest_won))
