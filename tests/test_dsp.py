import csv
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from dualbid import dsp
from dualbid.dsp import (
    Ad,
    BidDecision,
    DECISION_CSV_HEADER,
    DspChoiceModel,
    DspInstance,
    Impression,
    bid_decision,
    compose_coeffs,
    write_decisions_csv,
)
from dualbid.landscape import LandscapePrior, expected_cost, pdf, win_prob
from dualbid.mmkp import ChoiceModel, beta_value, sgd_solve
from dualbid.utility import (
    AdEconomics,
    ConstraintKind,
    ConstraintSpec,
    ModeMismatchError,
    ObjectiveKind,
    ObjectiveSpec,
    PaymentMode,
    UtilityCoeffs,
    argmax_bid,
    encode_constraint,
    encode_objective,
    evaluate,
)
from instance_rows import row_columns, rows_instance, with_rows

STANDARD = LandscapePrior(0.0, 1.0)


def p4p_instance(
    cpps=(1.0, 2.0),
    constraints=None,
    impressions=None,
    objective=ObjectiveKind.REVENUE,
    bid_cap=1e4,
):
    ads = [Ad(f"ad{j + 1}", AdEconomics(cpp=c)) for j, c in enumerate(cpps)]
    everyone = frozenset(ad.id for ad in ads)
    if constraints is None:
        constraints = [ConstraintSpec(ConstraintKind.DSP_ROI, PaymentMode.P4P, 2.0, everyone)]
    if impressions is None:
        impressions = [Impression(0, STANDARD, tuple(0.1 for _ in cpps))]
    return rows_instance(
        PaymentMode.P4P, ObjectiveSpec(PaymentMode.P4P, objective), ads, constraints, impressions,
        bid_cap=bid_cap,
    )


def random_instance(rng, n=6, m=2, with_budgets=True):
    ads = [Ad(f"ad{j + 1}", AdEconomics(cpp=rng.uniform(0.5, 3.0))) for j in range(m)]
    everyone = frozenset(ad.id for ad in ads)
    constraints = [ConstraintSpec(ConstraintKind.DSP_ROI, PaymentMode.P4P, rng.uniform(1.2, 3.0), everyone)]
    if with_budgets:
        constraints += [
            ConstraintSpec(ConstraintKind.BUDGET, PaymentMode.P4P, rng.uniform(5.0, 20.0), frozenset([ad.id]))
            for ad in ads
        ]
        constraints.append(
            ConstraintSpec(ConstraintKind.ADVERTISER_ROI, PaymentMode.P4P, rng.uniform(0.2, 0.45), everyone)
        )
    impressions = [
        Impression(
            i,
            LandscapePrior(rng.uniform(-3.0, 0.0), rng.uniform(0.3, 1.2)),
            tuple(rng.uniform(0.0, 0.2, m)),
        )
        for i in range(n)
    ]
    return rows_instance(
        PaymentMode.P4P, ObjectiveSpec(PaymentMode.P4P, ObjectiveKind.REVENUE), ads, constraints,
        impressions,
    )


class TestComposeCoeffs:
    def test_single_global_roi(self):
        # One DSP-ROI constraint: phi = (1 + a) cpi, psi = -a roi.
        instance = p4p_instance(cpps=(1.5,), impressions=[Impression(0, STANDARD, (0.2,))])
        for a in (0.0, 0.7, 3.0):
            coeffs = compose_coeffs(instance, 0, 0, np.asarray([a]))
            assert coeffs.phi == pytest.approx((1.0 + a) * 1.5 * 0.2)
            assert coeffs.psi == pytest.approx(-a * 2.0)

    def test_zero_prices_reduce_to_objective(self):
        rng = np.random.default_rng(0)
        instance = random_instance(rng)
        for i, imp in enumerate(instance.impressions):
            for j in range(instance.n_ads):
                coeffs = compose_coeffs(instance, i, j, np.zeros(instance.n_constraints))
                expected = encode_objective(instance.objective, instance.ads[j].economics, imp.ppi[j])
                assert coeffs == expected

    def test_budget_plus_roi_hand_expansion(self):
        cpp, ppi, roi = 1.3, 0.4, 2.5
        ads = [Ad("a", AdEconomics(cpp=cpp))]
        instance = rows_instance(
            PaymentMode.P4P,
            ObjectiveSpec(PaymentMode.P4P, ObjectiveKind.REVENUE),
            ads,
            [
                ConstraintSpec(ConstraintKind.BUDGET, PaymentMode.P4P, 20.0, frozenset(["a"])),
                ConstraintSpec(ConstraintKind.DSP_ROI, PaymentMode.P4P, roi, frozenset(["a"])),
            ],
            [Impression(0, STANDARD, (ppi,))],
        )
        a_b, a_r = 0.3, 0.9
        coeffs = compose_coeffs(instance, 0, 0, np.asarray([a_b, a_r]))
        assert coeffs.phi == pytest.approx(cpp * ppi * (1.0 - a_b + a_r))
        assert coeffs.psi == pytest.approx(-a_r * roi)

    def test_composite_membership(self):
        """The composite evaluates exactly as V - sum_k alpha_k W_k, term by term."""
        rng = np.random.default_rng(1)
        for _ in range(20):
            instance = random_instance(rng)
            i = int(rng.integers(len(instance.impressions)))
            j = int(rng.integers(instance.n_ads))
            alpha = rng.uniform(0.0, 2.0, instance.n_constraints)
            bp = float(rng.uniform(0.01, 3.0))
            imp, ad = instance.impressions[i], instance.ads[j]
            composite = compose_coeffs(instance, i, j, alpha)
            direct = evaluate(composite, imp.prior, bp)
            gain = evaluate(encode_objective(instance.objective, ad.economics, imp.ppi[j]), imp.prior, bp)
            priced = sum(
                alpha[k] * evaluate(
                    encode_constraint(spec, ad.id, ad.economics, imp.ppi[j])[0], imp.prior, bp
                )
                for k, spec in enumerate(instance.constraints)
            )
            assert direct == pytest.approx(gain - priced, rel=1e-10, abs=1e-12)


class TestOptimalBid:
    def test_single_roi_reduction(self):
        # cpi 0.7, roi 3.5, alpha 1 -> (cpi/roi)(1 + 1/alpha) = 0.4
        coeffs = UtilityCoeffs((1.0 + 1.0) * 0.7, -1.0 * 3.5)
        assert argmax_bid(coeffs).bp == pytest.approx(0.4)

    def test_ratio(self):
        assert argmax_bid(UtilityCoeffs(0.2, -0.1)).bp == pytest.approx(2.0)

    def test_expensive_constraint_limit(self):
        # alpha -> inf: bid approaches cpi / roi.
        cpi, roi = 0.7, 3.5
        for a in (1e3, 1e6):
            coeffs = UtilityCoeffs((1.0 + a) * cpi, -a * roi)
            assert argmax_bid(coeffs).bp == pytest.approx(cpi / roi, rel=2e-3 / a * 1e3)


class TestScore:
    def test_matches_quadrature(self):
        coeffs = UtilityCoeffs(1.0, -1.0)
        oracle, _ = quad(
            lambda x: (1.0 - x) * pdf(STANDARD, x), 0.0, 1.0, epsabs=1e-13, epsrel=1e-11
        )
        assert evaluate(coeffs, STANDARD, 1.0) == pytest.approx(oracle, abs=1e-10)
        assert oracle == pytest.approx(0.2384, abs=5e-4)

    def test_zero_bid_zero_score(self):
        assert evaluate(UtilityCoeffs(2.0, -3.0), STANDARD, 0.0) == 0.0

    def test_pure_probability_saturates(self):
        assert evaluate(UtilityCoeffs(1.0, 0.0), STANDARD, 1e12) == pytest.approx(1.0)


class TestBidDecision:
    def test_shared_psi_prefers_larger_cpi(self):
        instance = p4p_instance(cpps=(1.0, 1.0))
        imp = Impression(0, STANDARD, (0.7, 0.9))
        decision = bid_decision(instance, imp, np.asarray([1.0]))
        assert decision.chosen_ad == "ad2"

    def test_zero_ppi_means_no_bid(self):
        instance = p4p_instance()
        imp = Impression(0, STANDARD, (0.0, 0.0))
        decision = bid_decision(instance, imp, np.asarray([1.0]))
        assert decision.chosen_ad is None and decision.bid_price is None
        assert decision.best_score <= 0.0

    def test_matches_brute_force_grid(self):
        rng = np.random.default_rng(2)
        mismatches = 0
        for _ in range(60):
            instance = random_instance(rng, n=1, m=2)
            imp = instance.impressions[0]
            alpha = rng.uniform(0.05, 1.5, instance.n_constraints)
            decision = bid_decision(instance, imp, alpha)
            best_value, best_ad = -np.inf, None
            grid = np.linspace(1e-6, 4.0, 10000)
            for j in range(instance.n_ads):
                coeffs = compose_coeffs(instance, 0, j, alpha)
                values = evaluate(coeffs, imp.prior, grid)
                if values.max() > best_value:
                    best_value, best_ad = float(values.max()), j
            grid_choice = instance.ads[best_ad].id if best_value >= 0 else None
            if grid_choice != decision.chosen_ad:
                mismatches += 1
            if decision.chosen_ad is not None:
                assert decision.best_score >= best_value - 1e-9
        assert mismatches == 0

    def test_prior_swap_invariance_with_shared_psi(self):
        """With one shared ROI price, the chosen ad cannot depend on the prior."""
        rng = np.random.default_rng(3)
        instance = p4p_instance(cpps=(1.0, 2.0))
        for _ in range(40):
            ppi = tuple(rng.uniform(0.0, 0.3, 2))
            alpha = np.asarray([rng.uniform(0.1, 3.0)])
            chosen = {
                bid_decision(
                    instance, Impression(0, LandscapePrior(mu, sigma), ppi), alpha
                ).chosen_ad
                for mu, sigma in [(-2.0, 0.4), (0.0, 1.0), (1.5, 0.2)]
            }
            assert len(chosen) == 1

    def test_money_scale_consistency(self):
        """ROI-only composites have money-dimension phi, so bids scale with money."""
        rng = np.random.default_rng(4)
        lam = 3.7
        base = random_instance(rng, n=4, m=2, with_budgets=False)
        scaled = dataclasses.replace(
            base,
            ads=[Ad(ad.id, AdEconomics(cpp=ad.economics.cpp * lam)) for ad in base.ads],
            bid_cap=base.bid_cap * lam,
        )
        alpha = np.asarray([0.8])
        for imp in base.impressions:
            d0 = bid_decision(base, imp, alpha)
            d1 = bid_decision(scaled, imp, alpha)
            assert d0.chosen_ad == d1.chosen_ad
            if d0.bid_price is not None:
                assert d1.bid_price == pytest.approx(lam * d0.bid_price, rel=1e-12)


class TestGradientRule:
    def test_matches_consumption_at_dominating_positive_score(self):
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(40):
            instance = random_instance(rng, n=1, m=2)
            model = DspChoiceModel(instance)
            alpha = rng.uniform(0.1, 1.2, instance.n_constraints)
            subs, scores = model.item_best(0, alpha)
            j = int(np.argmax(scores))
            runner_up = np.partition(scores, -1)[-2] if scores.size > 1 else -np.inf
            # Sample away from kinks: clear winner with a clearly positive score.
            if scores[j] < 1e-3 or scores[j] - runner_up < 1e-3 * (1.0 + abs(scores[j])):
                continue
            expected = -model.consumption(0, j, float(subs[j]))
            h = 1e-6
            for k in range(instance.n_constraints):
                up, down = alpha.copy(), alpha.copy()
                up[k] += h
                down[k] -= h
                fd = (beta_value(model, 0, up) - beta_value(model, 0, down)) / (2.0 * h)
                assert fd == pytest.approx(expected[k], rel=1e-3, abs=1e-8)
            checked += 1
        assert checked >= 20

    def test_zero_when_nothing_allocated(self):
        # Zero ppi: every composite is nonpositive, no bid, flat beta.
        instance = p4p_instance(impressions=[Impression(0, STANDARD, (0.0, 0.0))])
        model = DspChoiceModel(instance)
        alpha = np.asarray([1.0])
        h = 1e-6
        fd = (beta_value(model, 0, alpha + h) - beta_value(model, 0, alpha - h)) / (2.0 * h)
        assert fd == pytest.approx(0.0, abs=1e-12)


def base_loop(model, rows, alpha):
    """The base class's `batch_consumption`: `item_best`, first argmax, `> 0`, `consumption`."""
    return ChoiceModel.batch_consumption(model, rows, alpha)


def assert_matches_base_loop(model, alpha):
    """The kernel's batch consumption equals the base-class loop's.

    Checks every one-row batch and one batch of all N rows in shuffled order.
    Returns the number of impressions that get a bid.
    """
    batches = [np.array([i]) for i in range(model.n_items)]
    batches.append(np.random.default_rng(model.n_items).permutation(model.n_items))
    for rows in batches:
        got, want = model.batch_consumption(rows, alpha), base_loop(model, rows, alpha)
        assert got.shape == want.shape == (model.n_constraints,)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    return int(np.sum(model.decide_rows(alpha).ad >= 0))


def nan_score_model():
    """ad1's budget row priced at 1e308 overflows its composite phi to -inf.

    Its bid is then 0 and its score -inf * 0.0 is NaN; `np.argmax` takes the
    first NaN, so the impression gets no bid although ad0 scores above zero.
    """
    budget = ConstraintSpec(ConstraintKind.BUDGET, PaymentMode.P4P, 1.0, frozenset(["ad1"]))
    ads = [Ad("ad0", AdEconomics(cpp=1.0)), Ad("ad1", AdEconomics(cpp=100.0))]
    revenue = ObjectiveSpec(PaymentMode.P4P, ObjectiveKind.REVENUE)
    impressions = [Impression(0, STANDARD, (0.1, 0.1))]
    model = DspChoiceModel(rows_instance(PaymentMode.P4P, revenue, ads, [budget], impressions))
    return model, np.full(1, 1e308)


class TestBatchConsumption:
    """The SGD step's array kernel against the base-class per-item loop."""

    @pytest.mark.parametrize("mode", list(PaymentMode))
    @pytest.mark.parametrize("objective", list(ObjectiveKind))
    def test_random_shapes(self, mode, objective):
        rng = np.random.default_rng(
            [list(PaymentMode).index(mode), list(ObjectiveKind).index(objective)]
        )
        kinds = list(ConstraintKind)
        bidding = 0
        for m in range(1, 9):
            picked = [kinds[c] for c in rng.integers(0, len(kinds), size=rng.integers(0, 11))]
            model = DspChoiceModel(mixed_instance(rng, mode, objective, 20, m, picked))
            scale = float(rng.choice([0.0, 0.5, 1.0, 3.0]))
            bidding += assert_matches_base_loop(
                model, scale * rng.uniform(0.0, 2.0, model.n_constraints)
            )
        assert 0 < bidding < 8 * 20

    def test_random_instances(self):
        rng = np.random.default_rng(17)
        bidding = 0
        for draw in range(60):
            m = 1 + draw % 4
            model = DspChoiceModel(random_instance(rng, n=4, m=m, with_budgets=draw % 3 != 0))
            bidding += assert_matches_base_loop(model, rng.uniform(0.0, 8.0, model.n_constraints))
        assert 100 <= bidding < 240  # some rows bid and some do not

    @pytest.mark.parametrize("k", [0, 10])
    def test_k_extremes(self, k):
        rng = np.random.default_rng(50 + k)
        kinds = list(ConstraintKind)
        picked = [kinds[c] for c in rng.integers(0, len(kinds), size=k)]
        model = DspChoiceModel(
            mixed_instance(rng, PaymentMode.P4P, ObjectiveKind.REVENUE, 25, 4, picked)
        )
        assert assert_matches_base_loop(model, rng.uniform(0.0, 0.02, k)) > 0

    def test_single_ad(self):
        model = DspChoiceModel(random_instance(np.random.default_rng(3), n=8, m=1))
        assert assert_matches_base_loop(model, np.full(model.n_constraints, 0.2)) > 0

    def test_no_constraints(self):
        impressions = [Impression(i, STANDARD, (0.05 * i, 0.1)) for i in range(4)]
        model = DspChoiceModel(p4p_instance(constraints=[], impressions=impressions))
        assert assert_matches_base_loop(model, np.zeros(0)) == 4

    def test_zero_ppi(self):
        instance = p4p_instance(impressions=[Impression(i, STANDARD, (0.0, 0.0)) for i in range(3)])
        model = DspChoiceModel(instance)
        for a in (0.0, 0.5, 3.0):
            assert assert_matches_base_loop(model, np.asarray([a])) == 0

    def test_bids_clipped_at_cap(self):
        rng = np.random.default_rng(11)
        instance = random_instance(rng, n=12, m=3)
        instance.bid_cap = 0.02
        model = DspChoiceModel(instance)
        alpha = rng.uniform(0.0, 0.5, instance.n_constraints)
        assert assert_matches_base_loop(model, alpha) > 0
        assert np.any(model.decide_rows(alpha).bp == 0.02)

    def test_zero_and_large_prices(self):
        model = DspChoiceModel(random_instance(np.random.default_rng(23), n=10, m=3))
        k = model.n_constraints
        assert assert_matches_base_loop(model, np.zeros(k)) == 10
        assert_matches_base_loop(model, np.full(k, 1e6))

    def test_bid_logs_follow_numpy(self):
        # One ad with its ROI row priced at 1 bids exactly its ppi.
        ppis = np.random.default_rng(31).uniform(0.5, 2.0, 3000)
        impressions = [Impression(i, STANDARD, (p,)) for i, p in enumerate(ppis.tolist())]
        model = DspChoiceModel(p4p_instance(cpps=(1.0,), impressions=impressions))
        assert assert_matches_base_loop(model, np.ones(1)) == 3000

    def test_tie_goes_to_the_first_ad(self):
        # Twin ads tie on score; only ad1 consumes the (unpriced) budget row.
        budget = ConstraintSpec(ConstraintKind.BUDGET, PaymentMode.P4P, 5.0, frozenset(["ad1"]))
        model = DspChoiceModel(p4p_instance(cpps=(1.0, 1.0), constraints=[budget]))
        scores = model.item_best(0, np.zeros(1))[1]
        assert scores[0] == scores[1] > 0.0
        assert assert_matches_base_loop(model, np.zeros(1)) == 1
        assert model.batch_consumption(np.arange(1), np.zeros(1))[0] > 0.0

    @pytest.mark.parametrize(
        "prior", [LandscapePrior(-1.0, 40.0), LandscapePrior(710.0, 1.0)],
        ids=["sigma-40", "mean-overflows"],
    )
    def test_overflowing_mean(self, prior):
        # Both priors overflow exp(mu + sigma^2/2), so the cost is formed in
        # log space.
        rng = np.random.default_rng(12)
        instance = random_instance(rng, n=16, m=3)
        instance = with_rows(instance, [
            dataclasses.replace(imp, prior=prior) if i % 2 else imp
            for i, imp in enumerate(instance.impressions)
        ])
        model = DspChoiceModel(instance)
        assert assert_matches_base_loop(model, rng.uniform(0.0, 1.0, model.n_constraints)) > 0

    def test_no_bid_ad_with_a_nan_score(self):
        model, alpha = nan_score_model()
        with np.errstate(over="ignore", invalid="ignore"):
            phi, _ = model.composite(0, alpha)
            assert phi[1] == -math.inf and phi[0] > 0.0
            assert math.isnan(model.item_best(0, alpha)[1][1])
            assert assert_matches_base_loop(model, alpha) == 0
        assert np.any(model.batch_consumption(np.arange(1), np.zeros(1)) != 0.0)


class _BaseLoopModel(DspChoiceModel):
    def batch_consumption(self, rows, alpha):
        return base_loop(self, rows, alpha)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sgd_matches_base_class_step(seed):
    # N = 150 walks batches of 64, 64 and 22 rows.
    instance = random_instance(np.random.default_rng(40 + seed), n=150, m=2)
    kernel = sgd_solve(DspChoiceModel(instance), epochs=20, shuffle_seed=seed)
    loop = sgd_solve(_BaseLoopModel(instance), epochs=20, shuffle_seed=seed)
    assert len(set(kernel.dual_value_trace)) > 2
    np.testing.assert_allclose(kernel.alpha, loop.alpha, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(kernel.dual_value_trace, loop.dual_value_trace, rtol=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 8),
    k=st.integers(0, 10),
    scale=st.sampled_from([0.0, 1e-3, 1.0, 1e6]),
)
def test_composite_is_the_priced_card(seed, m, k, scale):
    # The card is priced once, `card @ [1, -alpha]`, and each row's composite
    # is `ppi * slope + intercept` of it, bit for bit, whether the row is
    # selected by index, slice or index array.
    rng = np.random.default_rng(seed)
    kinds = list(ConstraintKind)
    picked = [kinds[c] for c in rng.integers(0, len(kinds), size=k)]
    model = DspChoiceModel(mixed_instance(rng, PaymentMode.P4P, ObjectiveKind.REVENUE, 5, m, picked))
    alpha = scale * rng.uniform(0.0, 2.0, k)
    prices = np.concatenate(([1.0], -alpha))
    slope, intercept = (model._card.reshape(-1, k + 1) @ prices).reshape(2, 2, m).swapaxes(0, 1)
    phi_all, psi_all = model.composite(slice(None), alpha)
    order = rng.permutation(model.n_items)
    phi_some, psi_some = model.composite(order, alpha)
    for i in range(model.n_items):
        phi_ref, psi_ref = model.instance.ppi[i] * slope + intercept
        phi, psi = model.composite(i, alpha)
        at = int(np.flatnonzero(order == i)[0])
        for got in (phi, phi_all[i], phi_some[at]):
            assert got.tobytes() == phi_ref.tobytes()
        for got in (psi, psi_all[i], psi_some[at]):
            assert got.tobytes() == psi_ref.tobytes()


def scalar_reference(model, phi, psi, prior):
    """Per-ad scalar path: `argmax_bid` and `evaluate` on each ad's composite."""
    cap = model.instance.bid_cap
    bids, scores = [], []
    for p, q in zip(phi.tolist(), psi.tolist()):
        coeffs = UtilityCoeffs(p, q)
        bp = argmax_bid(coeffs, cap).bp
        bids.append(bp)
        scores.append(evaluate(coeffs, prior, bp))
    return np.array(bids), np.array(scores)


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


def assert_kernel_matches_reference(model, alpha):
    """`decide_rows` and `item_best` equal the scalar path bit for bit on every row.

    Returns the number of impressions that get a bid.
    """
    decisions = model.decide_rows(alpha)
    assert all(a.shape == (model.n_items,) for a in decisions)
    phi_all, psi_all = model.composite(slice(None), alpha)
    # `impressions` builds every row view, so it is read once.
    for i, imp in enumerate(model.instance.impressions):
        phi, psi = model.composite(i, alpha)
        assert bits(phi) == bits(phi_all[i]) and bits(psi) == bits(psi_all[i])
        ref_bp, ref_scores = scalar_reference(model, phi, psi, imp.prior)
        bp, scores = model.item_best(i, alpha)
        assert bits(bp) == bits(ref_bp) and bits(scores) == bits(ref_scores)

        j, best = None, -math.inf
        for a, s in enumerate(ref_scores.tolist()):
            if s > best:  # the first maximum wins
                j, best = a, s
        if j is not None and best >= 0.0 and ref_bp[j] > 0.0:
            bid = float(ref_bp[j])
            expected = (j, bid, best, win_prob(imp.prior, bid), expected_cost(imp.prior, bid))
        else:
            expected = (-1, 0.0, best, 0.0, 0.0)
        ad, *values = (a[i] for a in decisions)
        assert ad == expected[0]
        assert [bits(v) for v in values] == [bits(v) for v in expected[1:]]
    return int(np.sum(decisions.ad >= 0))


class TestDecideRows:
    """The array kernel against the per-ad scalar path, on TestBatchConsumption's cases."""

    def test_random_instances(self):
        rng = np.random.default_rng(17)
        bidding = 0
        for draw in range(60):
            m = 1 + draw % 4
            model = DspChoiceModel(random_instance(rng, n=4, m=m, with_budgets=draw % 3 != 0))
            bidding += assert_kernel_matches_reference(
                model, rng.uniform(0.0, 8.0, model.n_constraints)
            )
        assert 100 <= bidding < 240  # some rows bid and some do not

    def test_single_ad(self):
        model = DspChoiceModel(random_instance(np.random.default_rng(3), n=8, m=1))
        assert assert_kernel_matches_reference(model, np.full(model.n_constraints, 0.2)) > 0

    def test_no_constraints(self):
        impressions = [Impression(i, STANDARD, (0.05 * i, 0.1)) for i in range(4)]
        model = DspChoiceModel(p4p_instance(constraints=[], impressions=impressions))
        assert assert_kernel_matches_reference(model, np.zeros(0)) == 4

    def test_zero_ppi(self):
        model = DspChoiceModel(p4p_instance(impressions=[Impression(0, STANDARD, (0.0, 0.0))]))
        for a in (0.0, 0.5, 3.0):
            assert assert_kernel_matches_reference(model, np.asarray([a])) == 0

    def test_bids_clipped_at_cap(self):
        rng = np.random.default_rng(11)
        instance = random_instance(rng, n=12, m=3)
        instance.bid_cap = 0.02
        model = DspChoiceModel(instance)
        alpha = rng.uniform(0.0, 0.5, instance.n_constraints)
        assert assert_kernel_matches_reference(model, alpha) > 0
        assert np.any(model.decide_rows(alpha).bp == 0.02)

    def test_zero_and_large_prices(self):
        model = DspChoiceModel(random_instance(np.random.default_rng(23), n=10, m=3))
        k = model.n_constraints
        assert assert_kernel_matches_reference(model, np.zeros(k)) == 10
        assert_kernel_matches_reference(model, np.full(k, 1e6))

    def test_bid_logs_follow_numpy(self):
        ppis = np.random.default_rng(31).uniform(0.5, 2.0, 3000)
        impressions = [Impression(i, STANDARD, (p,)) for i, p in enumerate(ppis.tolist())]
        model = DspChoiceModel(p4p_instance(cpps=(1.0,), impressions=impressions))
        assert assert_kernel_matches_reference(model, np.ones(1)) == 3000
        assert model.decide_rows(np.ones(1)).bp.tobytes() == ppis.tobytes()

    def test_tie_goes_to_the_first_ad(self):
        budget = ConstraintSpec(ConstraintKind.BUDGET, PaymentMode.P4P, 5.0, frozenset(["ad1"]))
        model = DspChoiceModel(p4p_instance(cpps=(1.0, 1.0), constraints=[budget]))
        assert assert_kernel_matches_reference(model, np.zeros(1)) == 1
        assert model.decide_rows(np.zeros(1)).ad[0] == 0

    def test_sigma_forty_prior(self):
        rng = np.random.default_rng(29)
        instance = random_instance(rng, n=10, m=2)
        instance = with_rows(instance, [
            dataclasses.replace(imp, prior=LandscapePrior(imp.prior.mu, 40.0))
            for imp in instance.impressions
        ])
        model = DspChoiceModel(instance)
        alpha = rng.uniform(0.0, 1.0, model.n_constraints)
        assert assert_kernel_matches_reference(model, alpha) > 0

    def test_scalar_forms_are_the_kernel(self):
        # At each row's decided bid (0 for a row without a bid), the scalar
        # `win_prob` and `expected_cost` give `decide_rows`' prob and cost bit
        # for bit, on means that overflow and bids at the cap too.
        rng = np.random.default_rng(43)
        seen = {"no bid": 0, "at cap": 0, "overflowed mean": 0}
        for draw in range(40):
            instance = random_instance(rng, n=12, m=1 + draw % 3)
            instance.bid_cap = (0.02, 1e4)[draw % 2]
            instance = with_rows(instance, [
                imp if i % 3 else dataclasses.replace(imp, prior=LandscapePrior(imp.prior.mu, 40.0))
                for i, imp in enumerate(instance.impressions)
            ])
            rows = DspChoiceModel(instance).decide_rows(rng.uniform(0.0, 8.0, len(instance.constraints)))
            for i, imp in enumerate(instance.impressions):
                bp = float(rows.bp[i])
                assert bits(win_prob(imp.prior, bp)) == bits(rows.prob[i]), (draw, i)
                assert bits(expected_cost(imp.prior, bp)) == bits(rows.cost[i]), (draw, i)
                seen["no bid"] += int(rows.ad[i] < 0)
                seen["at cap"] += int(bp == instance.bid_cap)
                seen["overflowed mean"] += int(rows.ad[i] >= 0 and i % 3 == 0)
        assert all(seen.values()), seen

    def test_no_impressions(self):
        model = DspChoiceModel(p4p_instance(impressions=[]))
        decisions = model.decide_rows(np.ones(1))
        assert all(a.shape == (0,) for a in decisions)
        assert model.beta_sum(np.ones(1)) == 0.0

    def test_no_ads(self):
        impressions = [Impression(i, STANDARD, ()) for i in range(3)]
        model = DspChoiceModel(p4p_instance(cpps=(), constraints=[], impressions=impressions))
        assert assert_kernel_matches_reference(model, np.zeros(0)) == 0
        assert np.all(model.decide_rows(np.zeros(0)).score == -np.inf)
        assert model.beta_sum(np.zeros(0)) == 0.0
        decision = bid_decision(model.instance, impressions[0], np.zeros(0))
        assert decision.chosen_ad is None and decision.best_score == -math.inf

    def test_beta_sum_adds_item_best_row_maxima(self):
        # Small instances, so that a last-bit difference in one row's score
        # is not rounded away in the sum.
        rng = np.random.default_rng(60)
        for _ in range(200):
            model = DspChoiceModel(random_instance(rng, n=2, m=3))
            alpha = rng.uniform(0.0, 2.0, model.n_constraints)
            row_max = [model.item_best(i, alpha)[1].max() for i in range(model.n_items)]
            assert bits(model.beta_sum(alpha)) == bits(np.sum(np.maximum(row_max, 0.0)))

    def test_beta_sum_is_the_decided_score_sum(self):
        def assert_same(model, alpha):
            want = np.sum(np.maximum(model.decide_rows(alpha).score, 0.0))
            assert bits(model.beta_sum(alpha)) == bits(want)

        rng = np.random.default_rng(61)
        for draw in range(40):
            model = DspChoiceModel(random_instance(rng, n=1 + draw, m=1 + draw % 4))
            assert_same(model, rng.uniform(0.0, 3.0, model.n_constraints))
        single = DspChoiceModel(random_instance(rng, n=9, m=1))
        assert_same(single, rng.uniform(0.0, 1.0, single.n_constraints))
        impressions = [Impression(i, STANDARD, (0.05 * i, 0.1)) for i in range(4)]
        unpriced = DspChoiceModel(p4p_instance(constraints=[], impressions=impressions))
        assert_same(unpriced, np.zeros(0))
        model, alpha = nan_score_model()
        with np.errstate(over="ignore", invalid="ignore"):
            assert math.isnan(model.beta_sum(alpha))
            assert_same(model, alpha)

    def test_bid_decision_is_a_row_of_the_kernel(self):
        rng = np.random.default_rng(41)
        instance = random_instance(rng, n=30, m=3)
        # Every third impression has zero PPI, so it gets no bid.
        instance = with_rows(instance, [
            imp if i % 3 else dataclasses.replace(imp, ppi=(0.0, 0.0, 0.0))
            for i, imp in enumerate(instance.impressions)
        ])
        model = DspChoiceModel(instance)
        alpha = rng.uniform(0.0, 1.0, model.n_constraints)
        rows = model.decide_rows(alpha)
        assert 0 < np.count_nonzero(rows.ad >= 0) < model.n_items
        for i, imp in enumerate(model.instance.impressions):
            decision = bid_decision(model.instance, imp, alpha)
            j = int(rows.ad[i])
            assert decision.impression_id == imp.id
            assert bits(decision.best_score) == bits(rows.score[i])
            if j < 0:
                assert decision.chosen_ad is None and decision.bid_price is None
            else:
                assert decision.chosen_ad == model.instance.ads[j].id
                assert bits(decision.bid_price) == bits(rows.bp[i])


def value_reference(model, i, j, sub_choice, column):
    """`DspChoiceModel._value` as it was written with one prior and two kernel runs."""
    prior = LandscapePrior(model.instance.mu[i].item(), model.instance.sigma[i].item())
    prob, cost = win_prob(prior, sub_choice), expected_cost(prior, sub_choice)
    phi, psi = model.coeffs(i, j, column)
    return phi * prob + psi * cost


def test_gain_and_consumption_read_the_row_table():
    # Half the draws put sigma 36-40 on every other row: means above 1 (a tail
    # column), finite but with Phi(z - sigma) underflowing, and overflowed.
    rng = np.random.default_rng(53)
    bids = [0.0, 1e-300, 1e-30, 1e-3, 0.05, 1.0, 1e4]
    tails = 0
    for draw in range(40):
        instance = random_instance(rng, n=10, m=1 + draw % 3)
        if draw % 2:
            sigmas = (36.0, 37.0, 37.5, 38.5, 40.0)
            instance = with_rows(instance, [
                dataclasses.replace(imp, prior=LandscapePrior(imp.prior.mu, sigmas[i % 5])) if i % 2 else imp
                for i, imp in enumerate(instance.impressions)
            ])
        model = DspChoiceModel(instance)
        tails += model._tail
        for _ in range(100):
            i, j = int(rng.integers(model.n_items)), int(rng.integers(instance.n_ads))
            bid = bids[rng.integers(len(bids))] if rng.random() < 0.5 else math.exp(rng.uniform(-30, 10))
            gain = model.gain(i, j, bid)
            assert isinstance(gain, float)
            assert bits(gain) == bits(value_reference(model, i, j, bid, 0)), (draw, i, j, bid)
            assert raw_bits(model.consumption(i, j, bid)) == raw_bits(
                value_reference(model, i, j, bid, slice(1, None))
            ), (draw, i, j, bid)
    assert 20 <= tails < 40  # some tables carry the tail column and some do not


def raw_bits(result):
    """Dtype, shape and bytes of a kernel result, field by field for `RowDecisions`."""
    fields = result if isinstance(result, tuple) else (result,)
    return [(a.dtype.str, a.shape, a.tobytes()) for a in map(np.asarray, fields)]


def held_bytes(model):
    """Bytes of the arrays a model holds, in attributes or in tuples of them."""
    held = [v for value in vars(model).values() for v in (value if isinstance(value, tuple) else (value,))]
    return sum(a.nbytes for a in held if isinstance(a, np.ndarray))


class TestDualPassReuse:
    """`beta_sum` keeps its pass for the next `batch_consumption` or `decide_rows`."""

    def setup_method(self):
        rng = np.random.default_rng(71)
        instance = random_instance(rng, n=150, m=3)
        self.instance = with_rows(instance, [
            dataclasses.replace(imp, prior=LandscapePrior(imp.prior.mu, 40.0)) if i % 5 == 0 else imp
            for i, imp in enumerate(instance.impressions)
        ])
        k = self.instance.n_constraints
        self.a1, self.a2 = rng.uniform(0.0, 0.5, k), rng.uniform(0.0, 0.5, k)
        self.a1[0] = 0.0
        self.rows = rng.permutation(150)[:64]

    def fresh(self, name, *args):
        """`name(*args)` on a new model, which has kept no pass."""
        return getattr(DspChoiceModel(self.instance), name)(*args)

    def assert_calls_match_fresh(self, model, calls):
        for name, *args in calls:
            assert raw_bits(getattr(model, name)(*args)) == raw_bits(self.fresh(name, *args)), name

    def test_interleaved_calls(self):
        a1, a2, rows = self.a1, self.a2, self.rows
        self.assert_calls_match_fresh(DspChoiceModel(self.instance), [
            ("beta_sum", a1), ("batch_consumption", rows, a2), ("batch_consumption", rows, a1),
            ("decide_rows", a1), ("beta_sum", a1), ("decide_rows", a1),
            ("beta_sum", a1), ("batch_consumption", rows, a1), ("batch_consumption", rows, a1),
            ("beta_sum", a2), ("decide_rows", a1), ("beta_sum", a2), ("batch_consumption", rows, a2),
            ("beta_sum", a1), ("beta_sum", a2), ("decide_rows", a2),
        ])

    def test_zero_signs_and_lists(self):
        # -0.0 and 0.0 are different prices to the memo; a list is read as its array.
        negative_zero = self.a1.copy()
        negative_zero[0] = -0.0
        rows = self.rows
        self.assert_calls_match_fresh(DspChoiceModel(self.instance), [
            ("beta_sum", self.a1), ("batch_consumption", rows, negative_zero),
            ("beta_sum", negative_zero), ("decide_rows", self.a1),
            ("beta_sum", self.a1.tolist()), ("batch_consumption", rows, self.a1.tolist()),
            ("beta_sum", self.a1.tolist()), ("decide_rows", self.a1),
        ])

    def test_a_read_at_the_same_prices_runs_no_kernel(self, monkeypatch):
        model = DspChoiceModel(self.instance)
        runs = []
        respond = model._respond
        monkeypatch.setattr(model, "_respond", lambda *args: runs.append(1) or respond(*args))
        model.beta_sum(self.a1)
        model.batch_consumption(self.rows, self.a1.tolist())
        assert len(runs) == 1
        model.beta_sum(self.a1)
        model.decide_rows(self.a1)
        assert len(runs) == 2

    def test_a_read_lets_the_pass_go(self):
        model = DspChoiceModel(self.instance)
        empty = held_bytes(model)
        for read in (
            lambda: model.batch_consumption(self.rows, self.a1),
            lambda: model.batch_consumption(self.rows, self.a2),
            lambda: model.decide_rows(self.a1),
            lambda: model.decide_rows(self.a2),
        ):
            model.beta_sum(self.a1)
            assert held_bytes(model) >= empty + 5 * 150 * 3 * 8
            read()
            assert held_bytes(model) == empty


def card_tolerance(spec, econ, ppi):
    """How far `ppi * slope + intercept` may lie from an encoder's own phi.

    Only the P4P advertiser-ROI row, cpp * ppi * bound - ppi, rounds
    differently: its slope is cpp * bound - 1, and the two forms agree within
    6 ulp of the larger term (see `test_utility.TestCardPremise`). Every
    other coefficient is c * ppi or a constant, which the card gives exactly,
    zero signs included.
    """
    if spec is not None and (spec.kind, spec.mode) == (ConstraintKind.ADVERTISER_ROI, PaymentMode.P4P):
        return 6 * np.spacing(max(econ.cpp * ppi * spec.bound, ppi))
    return 0.0


def assert_card_matches_encoders(instance):
    """Each (impression, ad, column) of the card equals the scalar encoder call at its PPI."""
    model = DspChoiceModel(instance)
    specs = [None, *instance.constraints]
    for i, imp in enumerate(instance.impressions):
        for j, ad in enumerate(instance.ads):
            ppi = imp.ppi[j]
            want = [encode_objective(instance.objective, ad.economics, ppi)]
            want += [encode_constraint(s, ad.id, ad.economics, ppi)[0] for s in instance.constraints]
            got = model.coeffs(i, j, slice(None))
            assert got.shape == (2, len(specs))
            for spec, (phi, psi), w in zip(specs, got.T.tolist(), want):
                tol = card_tolerance(spec, ad.economics, ppi)
                assert abs(phi - w.phi) <= tol if tol else bits(phi) == bits(w.phi)
                assert bits(psi) == bits(w.psi)
    return model


def mixed_instance(rng, mode, objective, n, m, constraint_kinds):
    """Random ads, scopes and PPIs in `mode`; some scopes leave ads out, some PPIs are 0."""
    if mode is PaymentMode.P4P:
        ads = [Ad(f"ad{j}", AdEconomics(cpp=rng.uniform(0.5, 3.0))) for j in range(m)]
    else:
        ads = [Ad(f"ad{j}", AdEconomics(cr=rng.uniform(0.0, 0.5))) for j in range(m)]
    ids = [ad.id for ad in ads]
    constraints = [
        ConstraintSpec(
            kind, mode, rng.uniform(0.2, 20.0),
            frozenset(rng.choice(ids, size=rng.integers(1, m + 1), replace=False).tolist()),
        )
        for kind in constraint_kinds
    ]
    ppi = rng.uniform(0.0, 0.2, (n, m))
    ppi[rng.uniform(size=(n, m)) < 0.2] = 0.0
    impressions = [
        Impression(i, LandscapePrior(rng.uniform(-3.0, 0.0), rng.uniform(0.3, 1.2)), tuple(ppi[i]))
        for i in range(n)
    ]
    return rows_instance(mode, ObjectiveSpec(mode, objective), ads, constraints, impressions)


class TestArrayBuild:
    """The rate card against one scalar encoder call per (impression, ad, column)."""

    @pytest.mark.parametrize("mode", list(PaymentMode))
    @pytest.mark.parametrize("objective", list(ObjectiveKind))
    def test_random_instances(self, mode, objective):
        rng = np.random.default_rng(71)
        kinds = list(ConstraintKind)
        for n, m in [(0, 2), (1, 1), (9, 1), (9, 3), (40, 4)]:
            for k in range(5):
                picked = [kinds[c] for c in rng.integers(0, len(kinds), size=k)]
                assert_card_matches_encoders(mixed_instance(rng, mode, objective, n, m, picked))

    def test_encoder_calls_do_not_grow_with_n(self, monkeypatch):
        calls = []
        for name in ("encode_objective", "encode_constraint"):
            encode = getattr(dsp, name)
            monkeypatch.setattr(dsp, name, lambda *a, _f=encode: calls.append(1) or _f(*a))
        for n in (0, 1, 50):
            calls.clear()
            instance = random_instance(np.random.default_rng(8), n=n, m=3)
            DspChoiceModel(instance)
            assert len(calls) == 2 * instance.n_ads * (instance.n_constraints + 1), n

    def test_all_ppi_zero(self):
        instance = p4p_instance(
            constraints=[
                ConstraintSpec(kind, PaymentMode.P4P, 2.0, frozenset(["ad1"]))
                for kind in ConstraintKind
            ],
            impressions=[Impression(i, STANDARD, (0.0, 0.0)) for i in range(4)],
        )
        assert_card_matches_encoders(instance)

    def test_memory_grows_as_n_times_m(self):
        # Per impression the model holds its M PPIs and its prior, not one
        # coefficient per (ad, column): 8 ads and 10 rows would be 176 doubles.
        def nbytes(n):
            rng = np.random.default_rng(9)
            kinds = [ConstraintKind.BUDGET] * 8 + [ConstraintKind.DSP_ROI, ConstraintKind.ADVERTISER_ROI]
            instance = mixed_instance(rng, PaymentMode.P4P, ObjectiveKind.PERFORMANCE, n, 8, kinds)
            model = DspChoiceModel(instance)
            return sum(a.nbytes for a in vars(model).values() if isinstance(a, np.ndarray))

        per_impression = (nbytes(400) - nbytes(100)) / 300
        assert 0 < per_impression <= 8 * (8 + 4)

    def test_shared_arrays_are_read_only(self):
        rng = np.random.default_rng(5)
        instance = random_instance(rng, n=5, m=3)
        assert instance.ppi.tolist() == [list(imp.ppi) for imp in instance.impressions]
        assert instance.mu.tolist() == [imp.prior.mu for imp in instance.impressions]
        assert instance.sigma.tolist() == [imp.prior.sigma for imp in instance.impressions]
        for shared in (instance.ppi, instance.mu, instance.sigma):
            with pytest.raises(ValueError, match="read-only"):
                shared[0] = 1.0

    def test_columns_are_borrowed_then_stacked_once(self):
        instance = random_instance(np.random.default_rng(5), n=7, m=3)
        columns = (instance.ppi, instance.mu, instance.sigma)
        # `solve --bid-cap` replaces the cap; the new instance keeps the same arrays.
        capped = dataclasses.replace(instance, bid_cap=0.5)
        assert all(a is b for a, b in zip((capped.ppi, capped.mu, capped.sigma), columns))
        # The model holds one per-impression array, a read-only table whose
        # leading columns are the PPIs, mu and sigma.
        model = DspChoiceModel(capped)
        held = [a for a in vars(model).values() if isinstance(a, np.ndarray) and a.shape[0] == 7]
        assert len(held) == 1 and not held[0].flags.writeable
        table = held[0]
        assert bits(table[:, :5]) == bits(np.column_stack(columns))

    @pytest.mark.parametrize("n", [0, 3])
    def test_p4p_ad_without_cpp_fails_at_build(self, n):
        # Raised at any N, including N = 0: the card is built per ad.
        ads = [Ad("a", AdEconomics(cpp=1.0)), Ad("b", AdEconomics(cr=0.1))]
        impressions = [Impression(i, STANDARD, (0.1, 0.1)) for i in range(n)]
        revenue = ObjectiveSpec(PaymentMode.P4P, ObjectiveKind.REVENUE)
        with pytest.raises(ModeMismatchError):
            DspChoiceModel(rows_instance(PaymentMode.P4P, revenue, ads, [], impressions))
        # A PPI-only objective needs no CPP; a constraint over the ad does.
        performance = ObjectiveSpec(PaymentMode.P4P, ObjectiveKind.PERFORMANCE)
        budget_b = ConstraintSpec(ConstraintKind.BUDGET, PaymentMode.P4P, 5.0, frozenset(["b"]))
        with pytest.raises(ModeMismatchError):
            DspChoiceModel(rows_instance(PaymentMode.P4P, performance, ads, [budget_b], impressions))
        # Out of the constraint's scope, the ad consumes nothing and needs no CPP.
        budget_a = ConstraintSpec(ConstraintKind.BUDGET, PaymentMode.P4P, 5.0, frozenset(["a"]))
        assert_card_matches_encoders(
            rows_instance(PaymentMode.P4P, performance, ads, [budget_a], impressions)
        )


class TestInstanceValidation:
    def test_mode_mismatch(self):
        with pytest.raises(ValueError, match="objective mode"):
            DspInstance(
                mode=PaymentMode.P4P,
                objective=ObjectiveSpec(PaymentMode.P4U, ObjectiveKind.REVENUE),
                ads=[Ad("a", AdEconomics(cpp=1.0))],
                constraints=[],
                **row_columns([], 0),
            )

    def test_scope_must_reference_known_ads(self):
        with pytest.raises(ValueError, match="unknown ads"):
            p4p_instance(
                constraints=[
                    ConstraintSpec(ConstraintKind.BUDGET, PaymentMode.P4P, 5.0, frozenset(["nope"]))
                ]
            )

    def test_ppi_length(self):
        with pytest.raises(ValueError, match="ppi entries"):
            p4p_instance(impressions=[Impression(0, STANDARD, (0.1,))])

    def test_duplicate_ad_ids(self):
        with pytest.raises(ValueError, match="unique"):
            DspInstance(
                mode=PaymentMode.P4P,
                objective=ObjectiveSpec(PaymentMode.P4P, ObjectiveKind.REVENUE),
                ads=[Ad("a", AdEconomics(cpp=1.0)), Ad("a", AdEconomics(cpp=2.0))],
                constraints=[],
                **row_columns([], 0),
            )


def test_decisions_csv(tmp_path):
    instance = p4p_instance()
    model = DspChoiceModel(instance)
    path = tmp_path / "decisions.csv"
    write_decisions_csv(path, instance, model.decide_rows(np.asarray([1.0])))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ",".join(DECISION_CSV_HEADER)
    assert len(lines) == 1 + len(instance.impressions)


def reference_decisions_csv(path, model, alpha):
    """The former writer: one `BidDecision` per impression, then one CSV row per decision."""
    rows = model.decide_rows(alpha)
    decisions = [
        BidDecision(imp.id, None, None, score)
        if j < 0
        else BidDecision(imp.id, model.instance.ads[j].id, bp, score)
        for imp, j, bp, score in zip(
            model.instance.impressions, rows.ad.tolist(), rows.bp.tolist(), rows.score.tolist()
        )
    ]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(DECISION_CSV_HEADER)
        for d in decisions:
            writer.writerow(
                [
                    d.impression_id,
                    d.chosen_ad or "",
                    "" if d.bid_price is None else repr(d.bid_price),
                    repr(d.best_score),
                ]
            )


def decisions_csv_cases():
    """(label, model, alpha) for each branch of the writer and each kind of id and score."""
    rng = np.random.default_rng(42)
    plain = random_instance(rng, n=40, m=3)
    names = ["a,b", 'q"t', " s", "imp"] * 10
    named = dataclasses.replace(plain, ids=names)
    capped = dataclasses.replace(random_instance(rng, n=12, m=3), bid_cap=0.02)
    no_ads = p4p_instance(
        cpps=(), constraints=[], impressions=[Impression(i, STANDARD, ()) for i in range(3)]
    )
    nan_model, nan_alpha = nan_score_model()
    return [
        ("int-ids", DspChoiceModel(plain), rng.uniform(0.0, 1.0, plain.n_constraints)),
        ("string-ids", DspChoiceModel(named), rng.uniform(0.0, 1.0, named.n_constraints)),
        ("bids-at-cap", DspChoiceModel(capped), rng.uniform(0.0, 0.5, capped.n_constraints)),
        ("nan-score", nan_model, nan_alpha),
        ("no-ads", DspChoiceModel(no_ads), np.zeros(0)),
    ]


def test_decisions_csv_matches_the_bid_decision_writer(tmp_path):
    seen = set()
    for label, model, alpha in decisions_csv_cases():
        with np.errstate(over="ignore", invalid="ignore"):
            rows = model.decide_rows(alpha)
            reference_decisions_csv(tmp_path / f"{label}.want", model, alpha)
        write_decisions_csv(tmp_path / f"{label}.got", model.instance, rows)
        got = (tmp_path / f"{label}.got").read_bytes()
        assert got == (tmp_path / f"{label}.want").read_bytes(), label
        hits = {
            "bid": rows.ad >= 0,
            "no-bid": rows.ad < 0,
            "cap": rows.bp == model.instance.bid_cap,
            "nan": np.isnan(rows.score),
            "-inf": rows.score == -np.inf,
        }
        seen |= {name for name, hit in hits.items() if hit.any()}
    assert seen == {"bid", "no-bid", "cap", "nan", "-inf"}
