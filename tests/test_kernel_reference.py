"""The DSP decision kernel against a written-out reference copy of its array passes.

The reference keeps the case table, the win-probability and cost pass and the
first-max pass as plain numpy expressions over the model's own composite:
one mask or `np.where` per case, prior arrays gathered per row, compressed
log-normal arrays, fancy-indexed picks. A batch's consumption, and one
pair's gain and consumption, are written out from the rate card:
`ppi * slope + intercept` per pair, and for a batch per-ad sums taken with
`np.add.at`, times the card. `decide_rows`,
`batch_consumption`, `beta_sum`, `item_best`, `gain` and `consumption` must
reproduce it bit for bit, zero signs and NaNs included, on composites drawn
from signed zeros, infinities, NaN, subnormal and huge values and bids
exactly at the cap.
"""

import dataclasses
import math

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy.special import log_ndtr, ndtr

from dualbid import landscape
from dualbid.dsp import Ad, DspChoiceModel, Impression, RowDecisions
from dualbid.landscape import LandscapePrior
from dualbid.utility import (
    AdEconomics,
    ConstraintKind,
    ConstraintSpec,
    ObjectiveKind,
    ObjectiveSpec,
    PaymentMode,
)
from instance_rows import rows_instance


def reference_best_bids(phi, psi, cap):
    interior = (phi > 0.0) & (psi < 0.0)
    safe_psi = np.where(interior, psi, -1.0)
    bp = np.where(interior, np.minimum(-phi / safe_psi, cap), 0.0)
    at_cap = ((phi >= 0.0) & (psi >= 0.0) & ((phi > 0.0) | (psi > 0.0))) | (
        (phi < 0.0) & (psi > 0.0)
    )
    return np.where(at_cap, cap, bp)


def reference_win_prob_cost(bp, mu, sigma, mean):
    prob = np.zeros(bp.shape)
    cost = np.zeros(bp.shape)
    pos = bp > 0.0
    mu, sigma, mean = (np.broadcast_to(a, bp.shape)[pos] for a in (mu, sigma, mean))
    z = (np.log(bp[pos]) - mu) / sigma
    prob[pos] = ndtr(z)
    over = np.isinf(mean)
    moment = np.where(over, 0.0, mean) * ndtr(z - sigma)
    # The log-space form where the mean overflows, and where it is above 1
    # while Phi(z - sigma) may leave the normal range.
    log_form = over | ((mean > 1.0) & (z - sigma <= -37.5))
    if np.any(log_form):
        mu, sigma, z = mu[log_form], sigma[log_form], z[log_form]
        moment[log_form] = np.exp(mu + 0.5 * sigma * sigma + log_ndtr(z - sigma))
    cost[pos] = moment
    return prob, cost


def reference_first_max(bp, prob, cost, score):
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


def prior_arrays(model):
    """Per-impression mu, sigma and landscape mean, each shaped (N,)."""
    means = np.array([landscape.mean(imp.prior) for imp in model.instance.impressions])
    return model.instance.mu, model.instance.sigma, means


def reference_responses(model, rows, alpha):
    """Best bid, win probability, expected cost and score of every ad on `rows`."""
    phi, psi = model.composite(rows, alpha)
    prior = [a[rows, None] for a in prior_arrays(model)]
    bp = reference_best_bids(phi, psi, model.instance.bid_cap)
    prob, cost = reference_win_prob_cost(bp, *prior)
    return bp, prob, cost, phi * prob + psi * cost


def card_coeffs(model, i, j):
    """(phi, psi) of impression `i` on ad `j` for every card column, shaped (2, K + 1)."""
    slope, intercept = model._card[:, 0, j], model._card[:, 1, j]
    return model.instance.ppi[i, j] * slope + intercept


def reference_batch_consumption(model, rows, alpha):
    """Per-ad sums of (prob * ppi, prob, cost * ppi, cost) in row order, times the card."""
    decided = reference_first_max(*reference_responses(model, rows, alpha))
    bids = decided.ad >= 0
    ad, prob, cost = decided.ad[bids], decided.prob[bids], decided.cost[bids]
    ppi = model.instance.ppi[rows[bids], ad]
    m, k = model.instance.n_ads, model.n_constraints
    sums = np.zeros((4, m))
    for sum_, weight in zip(sums, (prob * ppi, prob, cost * ppi, cost)):
        np.add.at(sum_, ad, weight)
    return (sums.reshape(-1) @ model._card.reshape(4 * m, k + 1))[1:]


def reference_beta_sum(model, alpha):
    score = reference_responses(model, slice(None), alpha)[3]
    if score.shape[1] == 0:
        return 0.0
    return float(np.sum(np.maximum(score.max(axis=1), 0.0)))


def bits(x):
    return np.asarray(x).tobytes()


def assert_kernel_matches_reference(model, alpha, batches):
    """Every kernel output equals the reference bit for bit; returns the bidding rows."""
    decided = model.decide_rows(alpha)
    want = reference_first_max(*reference_responses(model, slice(None), alpha))
    for field, got, expected in zip(RowDecisions._fields, decided, want):
        assert got.dtype == expected.dtype and got.shape == expected.shape, field
        assert bits(got) == bits(expected), field
    for rows in batches:
        got = model.batch_consumption(rows, alpha)
        assert bits(got) == bits(reference_batch_consumption(model, rows, alpha)), rows
    assert bits(model.beta_sum(alpha)) == bits(reference_beta_sum(model, alpha))

    mu, sigma, means = prior_arrays(model)
    for i in range(model.n_items):
        bp, _, _, score = reference_responses(model, i, alpha)
        got_bp, got_score = model.item_best(i, alpha)
        assert bits(got_bp) == bits(bp) and bits(got_score) == bits(score), i
        for j in range(model.instance.n_ads):
            phi, psi = card_coeffs(model, i, j)
            for sub in (0.0, 0.01, float(bp[j]), model.instance.bid_cap):
                prob, cost = reference_win_prob_cost(np.array([sub]), mu[i], sigma[i], means[i])
                prob, cost = prob[0], cost[0]
                gain = float(phi[0] * prob + psi[0] * cost)
                used = phi[1:] * prob + psi[1:] * cost
                assert bits(model.gain(i, j, sub)) == bits(gain), (i, j, sub)
                assert bits(model.consumption(i, j, sub)) == bits(used), (i, j, sub)
    return int(np.sum(decided.ad >= 0))


def batches_of(n, rng):
    """Every one-row batch, all rows in shuffled order, and a random subset."""
    batches = [np.array([i]) for i in range(n)]
    batches.append(rng.permutation(n))
    batches.append(rng.permutation(n)[: rng.integers(0, n + 1)])
    return batches


def dsp_instance(rng, n, m, k, bid_cap=1e4, wide_sigma=False):
    """Random P4P revenue instance; with `wide_sigma` every other prior has sigma 40."""
    ads = [Ad(f"ad{j}", AdEconomics(cpp=rng.uniform(0.5, 3.0))) for j in range(m)]
    ids = [ad.id for ad in ads]
    kinds = list(ConstraintKind)
    constraints = []
    for _ in range(k if m else 0):
        kind = kinds[rng.integers(len(kinds))]
        scope = frozenset(rng.choice(ids, size=rng.integers(1, m + 1), replace=False).tolist())
        constraints.append(ConstraintSpec(kind, PaymentMode.P4P, rng.uniform(0.5, 5.0), scope))
    ppi = rng.uniform(0.0, 0.2, (n, m))
    ppi[rng.uniform(size=(n, m)) < 0.15] = 0.0
    impressions = [
        Impression(
            i,
            LandscapePrior(
                rng.uniform(-3.0, 0.0), 40.0 if wide_sigma and i % 2 else rng.uniform(0.3, 1.2)
            ),
            tuple(ppi[i]),
        )
        for i in range(n)
    ]
    revenue = ObjectiveSpec(PaymentMode.P4P, ObjectiveKind.REVENUE)
    return rows_instance(PaymentMode.P4P, revenue, ads, constraints, impressions, bid_cap=bid_cap)


CAPS = (0.05, 1.0, 1e4)
SPECIAL = (
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300
)
coefficient = st.one_of(st.sampled_from(SPECIAL), st.floats(-4.0, 4.0))
ppi_value = st.one_of(
    st.sampled_from((0.0, -0.0, 5e-324, 1e-300, 1.0, 1e300)), st.floats(0.0, 4.0)
)


def with_ppi(instance, ppi):
    """A model of `instance` with its PPIs replaced by `ppi`."""
    return DspChoiceModel(dataclasses.replace(instance, ppi=ppi))


def set_composite(instance, phi, psi):
    """A model of one-impression `instance` whose composite at alpha = 0 reads (phi, psi) per ad.

    At PPI 1, slope v and intercept -0.0 give 1 * v + -0.0 = v, zero signs
    included; a constraint column adds -0.0 times its finite entries.
    """
    model = with_ppi(instance, np.ones((1, instance.n_ads)))
    model._card[:, 0, :, 0] = phi, psi
    model._card[:, 1, :, 0] = -0.0
    return model


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    n=st.integers(0, 6),
    m=st.integers(0, 4),
    k=st.integers(0, 3),
    cap=st.sampled_from(CAPS),
    wide_sigma=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_special_composites(data, n, m, k, cap, wide_sigma, seed):
    # Each ad's objective column of the card and each cell's PPI are
    # overwritten with drawn values and priced at alpha = 0, so a cell's
    # composite is `ppi * slope + intercept` of them: products and sums of
    # the special values. `at_cap` ads hold (2 cap, -2), whose closed-form
    # bid -phi/psi is the cap exactly; (-inf, inf) bids the cap with a NaN
    # score, so its row must not bid.
    rng = np.random.default_rng(seed)
    instance = dsp_instance(rng, n, m, k, cap, wide_sigma)
    fixed = {"at_cap": (0.0, 2.0 * cap, 0.0, -2.0), "nan_score": (0.0, -math.inf, 0.0, math.inf)}
    card = st.one_of(st.sampled_from(sorted(fixed)), st.tuples(*[coefficient] * 4))
    values = data.draw(st.lists(card, min_size=m, max_size=m))
    ppi = data.draw(st.lists(ppi_value, min_size=n * m, max_size=n * m))
    model = with_ppi(instance, np.reshape(np.array(ppi, dtype=float), (n, m)))
    for j, value in enumerate(values):
        model._card[:, :, j, 0] = np.reshape(fixed.get(value, value), (2, 2))
    alpha = np.zeros(model.n_constraints)
    with np.errstate(all="ignore"):
        assert_kernel_matches_reference(model, alpha, batches_of(n, rng))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 70),
    m=st.integers(0, 8),
    k=st.integers(0, 10),
    cap=st.sampled_from(CAPS),
    scale=st.sampled_from([0.0, 0.3, 3.0, 1e6]),
    wide_sigma=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_encoded_instances(n, m, k, cap, scale, wide_sigma, seed):
    # Encoder-built coefficients at random prices; a RuntimeWarning fails.
    rng = np.random.default_rng(seed)
    model = DspChoiceModel(dsp_instance(rng, n, m, k, cap, wide_sigma))
    alpha = rng.uniform(0.0, scale, model.n_constraints)
    assert_kernel_matches_reference(model, alpha, batches_of(n, rng))


class TestEdgeCases:
    def test_bids_and_no_bids(self):
        # One ad, so the rows where its PPI is 0 get no bid.
        rng = np.random.default_rng(3)
        model = DspChoiceModel(dsp_instance(rng, 40, 1, 2))
        bidding = assert_kernel_matches_reference(model, np.full(2, 0.2), batches_of(40, rng))
        assert 0 < bidding < 40

    def test_overflowing_mean(self):
        rng = np.random.default_rng(4)
        instance = dsp_instance(rng, 12, 3, 2, wide_sigma=True)
        assert landscape.mean(instance.impressions[1].prior) == math.inf
        model = DspChoiceModel(instance)
        assert assert_kernel_matches_reference(model, np.full(2, 0.1), batches_of(12, rng)) > 0

    def test_cost_below_the_normal_tail(self):
        # Mean exp(703.125) is finite and above 1, and Phi(z - sigma) underflows
        # at the bid 1e-3, so the cost comes from the log-space form.
        instance = dsp_instance(np.random.default_rng(10), 1, 1, 0)
        instance = dataclasses.replace(instance, mu=[0.0], sigma=[37.5])
        model = set_composite(instance, [1e-3], [-1.0])
        assert assert_kernel_matches_reference(model, np.zeros(0), [np.array([0])]) == 1
        assert model.decide_rows(np.zeros(0)).cost[0] > 1e-5

    def test_no_ads(self):
        rng = np.random.default_rng(5)
        model = DspChoiceModel(dsp_instance(rng, 5, 0, 0))
        assert assert_kernel_matches_reference(model, np.zeros(0), batches_of(5, rng)) == 0
        assert model.batch_consumption(np.arange(5), np.zeros(0)).shape == (0,)

    def test_no_constraints(self):
        rng = np.random.default_rng(6)
        model = DspChoiceModel(dsp_instance(rng, 9, 2, 0))
        assert assert_kernel_matches_reference(model, np.zeros(0), batches_of(9, rng)) > 0

    def test_no_impressions(self):
        model = DspChoiceModel(dsp_instance(np.random.default_rng(7), 0, 2, 3))
        assert_kernel_matches_reference(model, np.ones(model.n_constraints), [])

    def test_zero_bids_are_positive_zeros(self):
        # A NaN composite and one with phi <= 0 <= psi both bid +0.0.
        instance = dsp_instance(np.random.default_rng(8), 1, 3, 0)
        model = set_composite(instance, [math.nan, -1.0, 0.0], [1.0, 0.0, -0.0])
        bp, score = model.item_best(0, np.zeros(0))
        assert bits(bp) == bits(np.zeros(3))
        assert model.decide_rows(np.zeros(0)).ad[0] == -1
        assert_kernel_matches_reference(model, np.zeros(0), [np.array([0])])

    def test_nan_score_at_a_positive_bid_gets_no_bid(self):
        # (-inf, inf) bids the cap and scores -inf * prob + inf * cost = NaN.
        instance = dsp_instance(np.random.default_rng(9), 1, 2, 1)
        model = set_composite(instance, [-math.inf, 1.0], [math.inf, -2.0])
        with np.errstate(invalid="ignore"):
            bp, score = model.item_best(0, np.zeros(1))
            assert bp[0] == model.instance.bid_cap and math.isnan(score[0])
            assert model.decide_rows(np.zeros(1)).ad[0] == -1
            assert assert_kernel_matches_reference(model, np.zeros(1), [np.array([0])]) == 0
