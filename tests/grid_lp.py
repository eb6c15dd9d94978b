"""The relaxed allocation problem as an LP over a per-row bid grid, built without the dual.

For impression i, ad j and grid bid b a variable x_ijb >= 0 earns the gain
V_ij(b) and consumes W_ij(b), from `DspChoiceModel.coeffs` and
`landscape.win_prob_cost`. The LP maximizes sum V x subject to sum W x <= B
and sum_jb x_ijb <= 1 per impression. Every feasible point is a mixture of
bidding policies, so the LP value is a lower bound on the relaxed optimum,
which the dual value of any price vector bounds from above.
"""

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from dualbid import landscape

Z_SPAN = 4.5
#: HiGHS's default feasibility tolerance, 1e-7, would let rows with limit 0 break.
TOLERANCES = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


def bid_grid(instance, points: int) -> np.ndarray:
    """Per-row bids at the landscape quantiles exp(mu + sigma z), z even in [-4.5, 4.5], capped.

    A grid of fixed bids misses the optimal ones, which follow each row's
    landscape, so the grid follows it too.
    """
    z = np.linspace(-Z_SPAN, Z_SPAN, points)
    return np.minimum(np.exp(instance.mu[:, None] + instance.sigma[:, None] * z), instance.bid_cap)


def grid_lp_value(model, points: int) -> float:
    """Optimal value of the bid-grid LP of `model` with `points` bids per row."""
    instance = model.instance
    n, m, k = model.n_items, instance.n_ads, model.n_constraints
    bids = bid_grid(instance, points)
    prob, cost = landscape.win_prob_cost(
        bids, *landscape.prior_arrays(instance.mu, instance.sigma), np.empty((2, n, points))
    )
    # Variables in (impression, ad, bid) order: each (impression, ad) pair's
    # (phi, psi) of a card column meets its impression's grid.
    rows, ads = np.repeat(np.arange(n), m), np.tile(np.arange(m), n)

    def column(c: int) -> np.ndarray:
        phi, psi = model.coeffs(rows, ads, c)
        return (phi[:, None] * prob[rows] + psi[:, None] * cost[rows]).ravel()

    gain = column(0)
    use = np.array([column(1 + row) for row in range(k)]).reshape(k, -1)
    # HiGHS drops matrix entries below 1e-9, and the ROI rows' entries at the
    # grid's lowest bids are that small: each row is scaled to a largest entry of 1.
    scale = np.abs(use).max(axis=1, initial=0.0)
    scale[scale == 0.0] = 1.0
    a_ub = sparse.vstack([
        sparse.csr_matrix(use / scale[:, None]),
        sparse.kron(sparse.eye(n), np.ones((1, m * points))),
    ])
    b_ub = np.concatenate([model.budgets / scale, np.ones(n)])
    result = linprog(-gain, A_ub=a_ub.tocsr(), b_ub=b_ub, bounds=(0, None), method="highs",
                     options=TOLERANCES)
    assert result.status == 0, result.message
    # The optimum is a mixture policy only if it keeps the unscaled rows.
    slack = np.maximum(1.0, np.abs(model.budgets)) * 1e-9
    assert np.all(use @ result.x <= model.budgets + slack), use @ result.x - model.budgets
    return -result.fun
