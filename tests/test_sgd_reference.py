"""The float SGD step against a reference copy of the numpy step it replaced.

`sgd_solve` runs its update on Python floats, and `DspChoiceModel` answers the
step from stacked coefficient tensors with one matrix-vector product. Both
must give the bits of the array step below: `np.maximum(0.0, alpha - eta *
grad)` over numpy vectors, and a fused kernel that prices the composite as two
separate `phi_V - phi_W @ alpha` and `psi_V - psi_W @ alpha` products and
returns the consumption as an array.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtr

from dualbid import landscape
from dualbid.dsp import Ad, DspChoiceModel, DspInstance, Impression, _best_bid
from dualbid.landscape import LandscapePrior, partial_moment
from dualbid.mmkp import dual_objective, sgd_solve
from dualbid.utility import (
    AdEconomics,
    ConstraintKind,
    ConstraintSpec,
    ObjectiveKind,
    ObjectiveSpec,
    PaymentMode,
)

from toy_models import FixedChoiceModel


class ReferenceKernel:
    """The array-era fused step over contiguous copies of the model's tensors."""

    def __init__(self, model: DspChoiceModel):
        (phi_v, psi_v), (phi_w, psi_w) = model.objective_coeffs, model.constraint_coeffs
        self.phi_v, self.psi_v = np.ascontiguousarray(phi_v), np.ascontiguousarray(psi_v)
        self.phi_w, self.psi_w = np.ascontiguousarray(phi_w), np.ascontiguousarray(psi_w)
        impressions = model.instance.impressions
        self.mu = np.array([imp.prior.mu for imp in impressions])
        self.sigma = np.array([imp.prior.sigma for imp in impressions])
        self.mean = np.array([landscape.mean(imp.prior) for imp in impressions])
        self.cap = model.instance.bid_cap

    def __call__(self, i, alpha):
        phi_f = self.phi_v[i] - self.phi_w[i] @ alpha
        psi_f = self.psi_v[i] - self.psi_w[i] @ alpha
        mu, sigma, mean = self.mu.item(i), self.sigma.item(i), self.mean.item(i)
        cap = float(self.cap)
        best, chosen = 0.0, None
        for j, (phi, psi) in enumerate(zip(phi_f.tolist(), psi_f.tolist())):
            bp = _best_bid(phi, psi, cap)
            if bp > 0.0:
                z = (np.log(bp) - mu) / sigma
                prob = ndtr(z)
                cost = mean * ndtr(z - sigma) if mean < math.inf else partial_moment(mu, sigma, z)
            else:
                prob = cost = 0.0
            score = phi * prob + psi * cost
            if score > best:
                best, chosen = score, (j, prob, cost)
            elif score != score:
                return None
        if chosen is None:
            return None
        j, prob, cost = chosen
        return self.phi_w[i, j] * prob + self.psi_w[i, j] * cost


def generic_kernel(model):
    """The array-era base-class step: `item_best`, first argmax, `consumption`."""

    def step(i, alpha):
        subs, scores = model.item_best(i, alpha)
        if scores.size:
            j = int(np.argmax(scores))
            if scores[j] > 0.0:
                return model.consumption(i, j, float(subs[j]))
        return None

    return step


def reference_sgd_solve(model, kernel, step0=0.1, epochs=200, shuffle_seed=0, alpha0=1.0):
    """The array-era `sgd_solve` loop, with the step's kernel passed in."""
    n_items = model.n_items
    k = model.n_constraints
    alpha = np.full(k, float(alpha0)) if np.ndim(alpha0) == 0 else np.asarray(alpha0, dtype=float)
    rng = np.random.default_rng(shuffle_seed)
    trace = [dual_objective(model, alpha)]
    alpha_trace = [alpha.copy()]
    best_alpha, best_value, best_epoch = alpha.copy(), trace[0], 0
    b_over_n = model.budgets / max(n_items, 1)
    t = 0
    for epoch in range(epochs):
        for i in rng.permutation(n_items).tolist():
            eta = step0 / math.sqrt(1.0 + t / max(n_items, 1))
            used = kernel(i, alpha)
            grad = b_over_n if used is None else b_over_n - used
            alpha = np.maximum(0.0, alpha - eta * grad)
            t += 1
        value = dual_objective(model, alpha)
        trace.append(value)
        alpha_trace.append(alpha.copy())
        if value < best_value:
            best_alpha, best_value, best_epoch = alpha.copy(), value, epoch + 1
    tail = alpha_trace[max(1, len(alpha_trace) - max(1, epochs // 4)) :]
    if tail:
        averaged = np.mean(tail, axis=0)
        value = dual_objective(model, averaged)
        if value < best_value:
            trace.append(value)
            alpha_trace.append(averaged.copy())
            best_alpha, best_value, best_epoch = averaged, value, len(trace) - 1
    return best_alpha, t, trace, alpha_trace, best_epoch


def assert_same_solve(model, kernel, **kwargs):
    """`sgd_solve` and the reference loop agree bit for bit; returns the reference trace."""
    state = sgd_solve(model, **kwargs)
    alpha, iteration, trace, alpha_trace, best_epoch = reference_sgd_solve(model, kernel, **kwargs)
    assert state.alpha.tobytes() == alpha.tobytes()
    assert state.iteration == iteration
    assert np.asarray(state.dual_value_trace).tobytes() == np.asarray(trace).tobytes()
    assert len(state.alpha_trace) == len(alpha_trace)
    for got, want in zip(state.alpha_trace, alpha_trace):
        assert got.tobytes() == want.tobytes()
    assert state.best_epoch == best_epoch
    return alpha_trace


def assert_same_step(model, reference, i, alpha):
    """One fused step returns the reference array's bits as a list of K floats.

    Returns whether the step allocates.
    """
    got, want = model.dominant_consumption(i, alpha), reference(i, alpha)
    if want is None:
        assert got is None
        return False
    assert isinstance(got, list) and len(got) == model.n_constraints
    assert np.asarray(got).tobytes() == want.tobytes()
    return True


def binds(alpha_trace):
    """Whether the projection onto alpha >= 0 held some coordinate at zero."""
    return any(np.any(a == 0.0) for a in alpha_trace[1:])


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
    return DspInstance(
        mode, ObjectiveSpec(mode, objective), ads, constraints, impressions, bid_cap=bid_cap
    )


class TestToyModels:
    """Fixed single-option pairs; negative consumptions make the projection bind."""

    @staticmethod
    def model(rng, n=12, m=3, k=3):
        gains = rng.uniform(-0.5, 2.0, (n, m))
        consumptions = rng.uniform(-1.0, 1.5, (n, m, k))
        return FixedChoiceModel(gains, consumptions, rng.uniform(0.5, 4.0, k))

    def test_random_models(self):
        bound = 0
        for seed in range(8):
            rng = np.random.default_rng(seed)
            model = self.model(rng, m=1 + seed % 3, k=1 + seed % 4)
            alpha_trace = assert_same_solve(
                model, generic_kernel(model), epochs=30, shuffle_seed=seed, step0=0.5
            )
            bound += binds(alpha_trace)
        assert bound >= 4

    @pytest.mark.parametrize("zero", [0.0, -0.0], ids=["zero", "negative-zero"])
    def test_zero_start(self, zero):
        model = self.model(np.random.default_rng(9))
        alpha0 = np.full(model.n_constraints, zero)
        assert_same_solve(model, generic_kernel(model), epochs=20, alpha0=alpha0, step0=0.3)

    def test_nothing_allocated(self):
        # Every gain is negative, so no step sees a consumption.
        model = FixedChoiceModel(-np.ones((4, 2)), np.ones((4, 2, 2)), [1.0, 2.0])
        assert_same_solve(model, generic_kernel(model), epochs=10, alpha0=0.5)

    def test_consumption_of_the_wrong_length_raises(self):
        class ShortStep(FixedChoiceModel):
            def dominant_consumption(self, i, alpha):
                return [1.0]

        model = ShortStep(np.ones((2, 1)), np.ones((2, 1, 2)), [1.0, 1.0])
        with pytest.raises(ValueError):
            sgd_solve(model, epochs=1)

    def test_negative_zero_price_survives_a_zero_step(self):
        # A zero budget and no allocation step by -0.0 - eta * 0.0 = -0.0,
        # which `np.maximum(0.0, x)` keeps as -0.0.
        model = FixedChoiceModel(-np.ones((3, 1)), np.ones((3, 1, 2)), [0.0, 1.0])
        alpha_trace = assert_same_solve(
            model, generic_kernel(model), epochs=3, alpha0=np.full(2, -0.0)
        )
        assert all(math.copysign(1.0, a[0]) == -1.0 for a in alpha_trace)


class TestDspInstances:
    @pytest.mark.parametrize("mode", list(PaymentMode))
    @pytest.mark.parametrize("objective", list(ObjectiveKind))
    def test_random_shapes(self, mode, objective):
        rng = np.random.default_rng(
            [list(PaymentMode).index(mode), list(ObjectiveKind).index(objective)]
        )
        bound = 0
        for m in range(1, 9):
            k = int(rng.integers(0, 11))
            model = DspChoiceModel(dsp_instance(rng, 20, m, k, mode, objective))
            alpha0 = float(rng.choice([0.0, 0.5, 1.0, 3.0]))
            alpha_trace = assert_same_solve(
                model, ReferenceKernel(model), epochs=8, shuffle_seed=m, alpha0=alpha0
            )
            bound += binds(alpha_trace)
        assert bound > 0

    @pytest.mark.parametrize("k", [0, 10])
    def test_k_extremes(self, k):
        rng = np.random.default_rng(50 + k)
        model = DspChoiceModel(dsp_instance(rng, 25, 4, k))
        assert_same_solve(model, ReferenceKernel(model), epochs=10)

    def test_negative_zero_start(self):
        rng = np.random.default_rng(4)
        model = DspChoiceModel(dsp_instance(rng, 20, 3, 5))
        alpha0 = np.full(5, -0.0)
        assert_same_solve(model, ReferenceKernel(model), epochs=6, alpha0=alpha0)

    def test_binding_bid_cap(self):
        rng = np.random.default_rng(6)
        model = DspChoiceModel(dsp_instance(rng, 30, 3, 4, bid_cap=0.02))
        capped = sum(
            int(np.any(model.item_best(i, np.full(4, 0.1))[0] == 0.02)) for i in range(30)
        )
        assert capped > 0
        assert_same_solve(model, ReferenceKernel(model), epochs=10, alpha0=0.1)

    @pytest.mark.parametrize("prior", [LandscapePrior(-1.0, 40.0), LandscapePrior(710.0, 1.0)],
                             ids=["sigma-40", "mean-overflows"])
    def test_overflowing_mean(self, prior):
        # Both priors overflow exp(mu + sigma^2/2), so the cost goes through
        # `partial_moment`'s log-space branch.
        rng = np.random.default_rng(12)
        instance = dsp_instance(rng, 16, 3, 4)
        instance.impressions = [
            dataclasses.replace(imp, prior=prior) if i % 2 else imp
            for i, imp in enumerate(instance.impressions)
        ]
        assert landscape.mean(prior) == math.inf
        model = DspChoiceModel(instance)
        assert_same_solve(model, ReferenceKernel(model), epochs=10)

    def test_zero_ppi(self):
        rng = np.random.default_rng(13)
        instance = dsp_instance(rng, 10, 2, 3)
        instance.impressions = [
            dataclasses.replace(imp, ppi=(0.0, 0.0)) for imp in instance.impressions
        ]
        model = DspChoiceModel(instance)
        assert_same_solve(model, ReferenceKernel(model), epochs=5)

    def test_large_prices(self):
        rng = np.random.default_rng(14)
        model = DspChoiceModel(dsp_instance(rng, 20, 3, 4))
        assert_same_solve(model, ReferenceKernel(model), epochs=5, alpha0=1e6)

    def test_kernel_steps_match(self):
        # Per call, at random prices: the list the model returns holds the
        # reference array's bits.
        rng = np.random.default_rng(15)
        allocated = 0
        for m in range(1, 9):
            k = int(rng.integers(0, 11))
            cap = float(rng.choice([0.05, 1e4]))
            model = DspChoiceModel(dsp_instance(rng, 10, m, k, bid_cap=cap))
            reference = ReferenceKernel(model)
            for i in range(model.n_items):
                alpha = rng.uniform(0.0, 3.0, k)
                allocated += assert_same_step(model, reference, i, alpha)
        assert 20 <= allocated <= 60

    def test_no_bid_ad_with_a_nan_score(self):
        # ad1's budget row priced at 1e308 overflows its composite phi to
        # -inf, so its bid is 0 and its score -inf * 0.0 is NaN. The rule
        # (`np.argmax` takes the first NaN) then allocates nothing, although
        # ad0 scores above zero.
        budget = ConstraintSpec(ConstraintKind.BUDGET, PaymentMode.P4P, 1.0, frozenset(["ad1"]))
        ads = [Ad("ad0", AdEconomics(cpp=1.0)), Ad("ad1", AdEconomics(cpp=100.0))]
        revenue = ObjectiveSpec(PaymentMode.P4P, ObjectiveKind.REVENUE)
        impressions = [Impression(0, LandscapePrior(0.0, 1.0), (0.1, 0.1))]
        model = DspChoiceModel(DspInstance(PaymentMode.P4P, revenue, ads, [budget], impressions))
        alpha = np.full(1, 1e308)
        with np.errstate(over="ignore"):
            phi, _ = model.composite(0, alpha)
            assert phi[1] == -math.inf and phi[0] > 0.0
            assert not assert_same_step(model, ReferenceKernel(model), 0, alpha)
        assert model.dominant_consumption(0, np.zeros(1)) is not None


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 8),
    k=st.integers(0, 10),
    scale=st.sampled_from([0.0, 1e-3, 1.0, 1e6]),
)
def test_composite_equals_separate_products(seed, m, k, scale):
    rng = np.random.default_rng(seed)
    model = DspChoiceModel(dsp_instance(rng, 5, m, k))
    alpha = scale * rng.uniform(0.0, 2.0, k)
    (phi_v, psi_v), (phi_w, psi_w) = model.objective_coeffs, model.constraint_coeffs
    phi_all, psi_all = model.composite(slice(None), alpha)
    for i in range(model.n_items):
        phi_ref = phi_v[i] - np.ascontiguousarray(phi_w[i]) @ alpha
        psi_ref = psi_v[i] - np.ascontiguousarray(psi_w[i]) @ alpha
        phi, psi = model.composite(i, alpha)
        for got in (phi, phi_all[i]):
            assert got.tobytes() == phi_ref.tobytes()
        for got in (psi, psi_all[i]):
            assert got.tobytes() == psi_ref.tobytes()
