"""`sgd_solve` on DSP instances against a reference copy of its mini-batch loop.

The reference walks the same permutations in batches of `BATCH_SIZE`, with the
step size step0 / sqrt(1 + t/N), the projection onto alpha >= 0, the best
epoch-end iterate and the tail average, and takes the batch consumption as a
parameter. Given the model's own `batch_consumption` it must reproduce the
solve bit for bit; given the base-class per-item loop it must agree with the
solve to rounding.

`ParentKernel` writes out the DSP batch step and dual pass as they were
before the model kept its dual pass for the next step: every row's
composite from gathered PPIs and prior columns, a fresh kernel run per call,
the first-max pick and four `bincount`s per batch. Driving the reference
loop, it must give the solve's alpha, dual trace and item count bit for bit.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualbid import landscape
from dualbid.dsp import Ad, DspChoiceModel, Impression
from dualbid.landscape import LandscapePrior
from dualbid.mmkp import BATCH_SIZE, ChoiceModel, dual_objective, sgd_solve
from dualbid.utility import (
    AdEconomics,
    ConstraintKind,
    ConstraintSpec,
    ObjectiveKind,
    ObjectiveSpec,
    PaymentMode,
    best_bids,
    constraint_limit,
    encode_constraint,
    encode_objective,
)
from instance_rows import rows_instance, with_rows


def reference_sgd_solve(model, step, step0=0.1, epochs=200, shuffle_seed=0, alpha0=1.0):
    """The mini-batch loop of `sgd_solve`, with the batch consumption passed in.

    Returns the chosen alpha, the item visits, the dual trace and the alpha trace.
    """
    n_items = model.n_items
    k = model.n_constraints
    alpha = np.full(k, float(alpha0)) if np.ndim(alpha0) == 0 else np.asarray(alpha0, dtype=float)
    if n_items == 0:
        alpha = np.zeros(k)
    rng = np.random.default_rng(shuffle_seed)
    trace = [dual_objective(model, alpha)]
    alpha_trace = [alpha.copy()]
    best_alpha, best_value = alpha.copy(), trace[0]
    b_over_n = model.budgets / max(n_items, 1)
    t = 0
    for _ in range(epochs):
        order = rng.permutation(n_items)
        for start in range(0, n_items, BATCH_SIZE):
            rows = order[start : start + BATCH_SIZE]
            eta = step0 / math.sqrt(1.0 + t / max(n_items, 1))
            alpha = np.maximum(0.0, alpha - eta * (len(rows) * b_over_n - step(rows, alpha)))
            t += len(rows)
        value = dual_objective(model, alpha)
        trace.append(value)
        alpha_trace.append(alpha.copy())
        if value < best_value:
            best_alpha, best_value = alpha.copy(), value
    tail = alpha_trace[max(1, len(alpha_trace) - max(1, epochs // 4)) :]
    if tail:
        averaged = np.mean(tail, axis=0)
        value = dual_objective(model, averaged)
        if value < best_value:
            trace.append(value)
            alpha_trace.append(averaged.copy())
            best_alpha = averaged
    return best_alpha, t, trace, alpha_trace


def base_loop(model):
    """The base class's batch step: `item_best`, first argmax, `> 0`, `consumption`."""
    return lambda rows, alpha: ChoiceModel.batch_consumption(model, rows, alpha)


def assert_same_solve(model, **kwargs):
    """`sgd_solve` matches the reference loop; returns the solve."""
    state = sgd_solve(model, **kwargs)
    alpha, iteration, trace, _ = reference_sgd_solve(model, model.batch_consumption, **kwargs)
    assert state.alpha.tobytes() == alpha.tobytes()
    assert state.iteration == iteration
    assert np.asarray(state.dual_value_trace).tobytes() == np.asarray(trace).tobytes()

    alpha, iteration, trace, _ = reference_sgd_solve(model, base_loop(model), **kwargs)
    assert state.iteration == iteration
    np.testing.assert_allclose(state.alpha, alpha, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(state.dual_value_trace, trace, rtol=1e-9)
    return state


def dsp_instance(rng, n, m, k, mode=PaymentMode.P4P, objective=ObjectiveKind.REVENUE, bid_cap=1e4):
    """Random ads, K constraints of random kinds and scopes, and PPIs with some zeros."""
    if mode is PaymentMode.P4P:
        ads = [Ad(f"ad{j}", AdEconomics(cpp=rng.uniform(0.5, 3.0))) for j in range(m)]
    else:
        ads = [Ad(f"ad{j}", AdEconomics(cr=rng.uniform(0.05, 0.5))) for j in range(m)]
    ids = [ad.id for ad in ads]
    kinds = list(ConstraintKind)
    constraints = []
    for _ in range(k):
        kind = kinds[rng.integers(len(kinds))]
        scope = frozenset(rng.choice(ids, size=rng.integers(1, m + 1), replace=False).tolist())
        bound = rng.uniform(0.5, 5.0) if kind is ConstraintKind.BUDGET else rng.uniform(0.2, 4.0)
        constraints.append(ConstraintSpec(kind, mode, bound, scope))
    ppi = rng.uniform(0.0, 0.2, (n, m))
    ppi[rng.uniform(size=(n, m)) < 0.15] = 0.0
    impressions = [
        Impression(i, LandscapePrior(rng.uniform(-3.0, 0.0), rng.uniform(0.3, 1.2)), tuple(ppi[i]))
        for i in range(n)
    ]
    return rows_instance(
        mode, ObjectiveSpec(mode, objective), ads, constraints, impressions, bid_cap=bid_cap
    )


class TestDspInstances:
    def test_negative_zero_start(self):
        # N = 70 walks batches of 64 and 6 rows.
        rng = np.random.default_rng(4)
        model = DspChoiceModel(dsp_instance(rng, 70, 3, 5))
        state = assert_same_solve(model, epochs=6, alpha0=np.full(5, -0.0))
        scalar = sgd_solve(model, epochs=6, alpha0=0.0)
        assert state.dual_value_trace == scalar.dual_value_trace
        assert np.array_equal(state.alpha, scalar.alpha)

    def test_binding_bid_cap(self):
        rng = np.random.default_rng(6)
        model = DspChoiceModel(dsp_instance(rng, 70, 3, 4, bid_cap=0.02))
        capped = sum(
            int(np.any(model.item_best(i, np.full(4, 0.1))[0] == 0.02)) for i in range(70)
        )
        assert capped > 0
        assert_same_solve(model, epochs=10, alpha0=0.1)

    @pytest.mark.parametrize("k", [0, 10])
    def test_k_extremes(self, k):
        rng = np.random.default_rng(50 + k)
        model = DspChoiceModel(dsp_instance(rng, 25, 4, k))
        assert_same_solve(model, epochs=10)

    @pytest.mark.parametrize("prior", [LandscapePrior(-1.0, 40.0), LandscapePrior(710.0, 1.0)],
                             ids=["sigma-40", "mean-overflows"])
    def test_overflowing_mean(self, prior):
        # Both priors overflow exp(mu + sigma^2/2), so the cost is formed in
        # log space.
        rng = np.random.default_rng(12)
        instance = dsp_instance(rng, 16, 3, 4)
        instance = with_rows(instance, [
            dataclasses.replace(imp, prior=prior) if i % 2 else imp
            for i, imp in enumerate(instance.impressions)
        ])
        assert landscape.mean(prior) == math.inf
        model = DspChoiceModel(instance)
        assert_same_solve(model, epochs=10)

    def test_zero_ppi(self):
        rng = np.random.default_rng(13)
        instance = dsp_instance(rng, 10, 2, 3)
        instance = with_rows(instance, [
            dataclasses.replace(imp, ppi=(0.0, 0.0)) for imp in instance.impressions
        ])
        model = DspChoiceModel(instance)
        assert_same_solve(model, epochs=5)
        # Nothing is ever allocated, so no step raises a price.
        rows = np.arange(model.n_items)
        _, _, _, alpha_trace = reference_sgd_solve(model, model.batch_consumption, epochs=5)
        for before, after in zip(alpha_trace, alpha_trace[1:]):
            assert not np.any(model.batch_consumption(rows, before))
            assert np.all(after <= before)

    def test_large_prices(self):
        rng = np.random.default_rng(14)
        model = DspChoiceModel(dsp_instance(rng, 20, 3, 4))
        assert_same_solve(model, epochs=5, alpha0=1e6)

    def test_kernel_steps_match(self):
        # Per one-row batch, at random prices and caps: the model's step
        # equals the base-class loop's.
        rng = np.random.default_rng(15)
        allocated = 0
        for m in range(1, 9):
            k = int(rng.integers(0, 11))
            cap = float(rng.choice([0.05, 1e4]))
            model = DspChoiceModel(dsp_instance(rng, 10, m, k, bid_cap=cap))
            step = base_loop(model)
            for i in range(model.n_items):
                alpha = rng.uniform(0.0, 3.0, k)
                rows = np.array([i])
                got, want = model.batch_consumption(rows, alpha), step(rows, alpha)
                assert got.shape == want.shape == (k,)
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
                allocated += int(model.decide_rows(alpha).ad[i] >= 0)
        assert 20 <= allocated <= 60


class ParentKernel:
    """The DSP model's batch step and dual pass, one fresh kernel run per call.

    The card is encoded from the instance as the model does; each call
    gathers the PPIs and the prior columns of its rows and runs the whole
    kernel, with no state kept between calls.
    """

    def __init__(self, instance):
        self.instance = instance
        m, k = instance.n_ads, instance.n_constraints
        self.card = np.empty((2, 2, m, k + 1))
        for j, ad in enumerate(instance.ads):
            intercept, at_one = (self.encode(ad, ppi) for ppi in (0.0, 1.0))
            self.card[:, 0, j], self.card[:, 1, j] = at_one - intercept, intercept
        self.budgets = np.array([constraint_limit(s) for s in instance.constraints])
        self.n_items, self.n_constraints = len(instance.ids), k
        *self.prior, self.tail = landscape.prior_arrays(instance.mu, instance.sigma)

    def encode(self, ad, ppi):
        coeffs = [encode_objective(self.instance.objective, ad.economics, ppi)]
        coeffs += [encode_constraint(s, ad.id, ad.economics, ppi)[0] for s in self.instance.constraints]
        return np.array([[c.phi for c in coeffs], [c.psi for c in coeffs]])

    def composite(self, rows, alpha):
        prices = np.concatenate(([1.0], -np.asarray(alpha, dtype=float)))
        ppi = self.instance.ppi[rows]
        priced = self.card.reshape(-1, prices.size) @ prices
        priced = priced.reshape(2, 2, *[1] * (ppi.ndim - 1), ppi.shape[-1])
        return ppi * priced[:, 0] + priced[:, 1]

    def respond(self, rows, alpha):
        c = self.composite(rows, alpha)
        tail = None if self.tail is None else self.tail[rows]
        out = np.zeros((4, *c.shape[1:]))
        best_bids(*c, self.instance.bid_cap, out[0])
        landscape.win_prob_cost(out[0], *(a[rows] for a in self.prior), tail, out[1:3])
        np.add(*(c * out[1:3]), out=out[3])
        return out

    @staticmethod
    def first_max(responses):
        _, n, m = responses.shape
        if m == 0:
            return np.full(n, -1), np.repeat([[0.0], [0.0], [0.0], [-np.inf]], n, 1), np.zeros(n, bool)
        ad = responses[3].argmax(axis=1)
        picked = responses.reshape(4, n * m).take(np.arange(0, n * m, m) + ad, axis=1)
        return ad, picked, (picked[3] >= 0.0) & (picked[0] > 0.0)

    def totals(self, rows, ad, prob, cost):
        ppi, m = self.instance.ppi[rows, ad], self.instance.n_ads
        sums = [np.bincount(ad, w, minlength=m) for w in (prob * ppi, prob, cost * ppi, cost)]
        return np.concatenate(sums) @ self.card.reshape(4 * m, self.n_constraints + 1)

    def batch_consumption(self, rows, alpha):
        ad, picked, bids = self.first_max(self.respond(rows, alpha))
        prob, cost = picked[1:3].compress(bids, axis=1)
        return self.totals(rows[bids], ad[bids], prob, cost)[1:]

    def beta_sum(self, alpha):
        score = self.respond(slice(None), alpha)[3]
        if score.shape[1] == 0:
            return 0.0
        return float(np.maximum(score.max(axis=1), 0.0).sum())


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([0, 1, 40, 63, 64, 65, 200]),
    m=st.sampled_from([0, 1, 8]),
    k=st.sampled_from([0, 10]),
    sigma_forty=st.booleans(),
    zero_ppi=st.booleans(),
    bid_cap=st.sampled_from([0.02, 1e4]),
    starts=st.lists(st.sampled_from([-0.0, 0.1, 1.0]), min_size=2, max_size=2),
    epochs=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
)
def test_solves_match_the_parent_kernel(n, m, k, sigma_forty, zero_ppi, bid_cap, starts, epochs, seed):
    # Without ads no constraint has a scope, so K is 0 there. `sigma_forty`
    # gives every third row sigma 40, whose landscape mean overflows;
    # `zero_ppi` zeroes every fourth row's PPIs; a cap of 0.02 binds. Two
    # solves run on one model, so the second starts where the first left it.
    rng = np.random.default_rng(seed)
    instance = dsp_instance(rng, n, m, k if m else 0, bid_cap=bid_cap)
    impressions = instance.impressions
    for i, imp in enumerate(impressions):
        if sigma_forty and i % 3 == 0:
            impressions[i] = imp = dataclasses.replace(imp, prior=LandscapePrior(imp.prior.mu, 40.0))
        if zero_ppi and i % 4 == 1:
            impressions[i] = dataclasses.replace(imp, ppi=(0.0,) * m)
    instance = with_rows(instance, impressions)
    model, parent = DspChoiceModel(instance), ParentKernel(instance)
    for shuffle_seed, start in enumerate(starts):
        alpha0 = np.full(instance.n_constraints, start)
        state = sgd_solve(model, epochs=epochs, shuffle_seed=shuffle_seed, alpha0=alpha0)
        alpha, iteration, trace, _ = reference_sgd_solve(
            parent, parent.batch_consumption, epochs=epochs, shuffle_seed=shuffle_seed, alpha0=alpha0
        )
        assert state.alpha.tobytes() == alpha.tobytes()
        assert state.iteration == iteration
        assert np.asarray(state.dual_value_trace).tobytes() == np.asarray(trace).tobytes()
