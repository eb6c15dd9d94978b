import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from dualbid.dsp import (
    Ad,
    DECISION_CSV_HEADER,
    DspChoiceModel,
    DspInstance,
    Impression,
    bid_decision,
    compose_coeffs,
    write_decisions_csv,
)
from dualbid.landscape import LandscapePrior, expected_cost, pdf, win_prob
from dualbid.mmkp import ChoiceModel, beta_value, decide, sgd_solve
from dualbid.utility import (
    AdEconomics,
    ConstraintKind,
    ConstraintSpec,
    ObjectiveKind,
    ObjectiveSpec,
    PaymentMode,
    UtilityCoeffs,
    argmax_bid,
    encode_constraint,
    encode_objective,
    evaluate,
)

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
    return DspInstance(
        mode=PaymentMode.P4P,
        objective=ObjectiveSpec(PaymentMode.P4P, objective),
        ads=ads,
        constraints=constraints,
        impressions=impressions,
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
    return DspInstance(
        mode=PaymentMode.P4P,
        objective=ObjectiveSpec(PaymentMode.P4P, ObjectiveKind.REVENUE),
        ads=ads,
        constraints=constraints,
        impressions=impressions,
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
        for i in range(len(instance.impressions)):
            for j in range(instance.n_ads):
                coeffs = compose_coeffs(instance, i, j, np.zeros(instance.n_constraints))
                expected = encode_objective(
                    instance.objective, instance.ads[j].economics, instance.impressions[i].ppi[j]
                )
                assert coeffs == expected

    def test_budget_plus_roi_hand_expansion(self):
        cpp, ppi, roi = 1.3, 0.4, 2.5
        ads = [Ad("a", AdEconomics(cpp=cpp))]
        instance = DspInstance(
            mode=PaymentMode.P4P,
            objective=ObjectiveSpec(PaymentMode.P4P, ObjectiveKind.REVENUE),
            ads=ads,
            constraints=[
                ConstraintSpec(ConstraintKind.BUDGET, PaymentMode.P4P, 20.0, frozenset(["a"])),
                ConstraintSpec(ConstraintKind.DSP_ROI, PaymentMode.P4P, roi, frozenset(["a"])),
            ],
            impressions=[Impression(0, STANDARD, (ppi,))],
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
        scaled = DspInstance(
            mode=base.mode,
            objective=base.objective,
            ads=[Ad(ad.id, AdEconomics(cpp=ad.economics.cpp * lam)) for ad in base.ads],
            constraints=base.constraints,
            impressions=base.impressions,
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


def generic_step(model, i, alpha):
    return ChoiceModel.dominant_consumption(model, i, alpha)


def assert_same_step(model, i, alpha):
    """The fused kernel returns the generic path's consumption bit for bit."""
    fused, generic = model.dominant_consumption(i, alpha), generic_step(model, i, alpha)
    if generic is None:
        assert fused is None
        return False
    assert fused is not None
    assert fused.dtype == generic.dtype and fused.shape == generic.shape
    assert fused.tobytes() == generic.tobytes()
    return True


class TestDominantConsumption:
    def test_random_instances(self):
        rng = np.random.default_rng(17)
        allocated = skipped = 0
        for draw in range(60):
            m = 1 + draw % 4
            instance = random_instance(rng, n=4, m=m, with_budgets=draw % 3 != 0)
            model = DspChoiceModel(instance)
            for i in range(model.n_items):
                alpha = rng.uniform(0.0, 8.0, instance.n_constraints)
                if assert_same_step(model, i, alpha):
                    allocated += 1
                else:
                    skipped += 1
        assert allocated >= 100 and skipped >= 10

    def test_single_ad(self):
        model = DspChoiceModel(random_instance(np.random.default_rng(3), n=8, m=1))
        hits = [assert_same_step(model, i, np.full(model.n_constraints, 0.2)) for i in range(8)]
        assert any(hits)

    def test_no_constraints(self):
        impressions = [Impression(i, STANDARD, (0.05 * i, 0.1)) for i in range(4)]
        model = DspChoiceModel(p4p_instance(constraints=[], impressions=impressions))
        for i in range(4):
            assert assert_same_step(model, i, np.zeros(0))
            assert model.dominant_consumption(i, np.zeros(0)).shape == (0,)

    def test_zero_ppi(self):
        instance = p4p_instance(impressions=[Impression(0, STANDARD, (0.0, 0.0))])
        model = DspChoiceModel(instance)
        for a in (0.0, 0.5, 3.0):
            assert not assert_same_step(model, 0, np.asarray([a]))

    def test_bids_clipped_at_cap(self):
        rng = np.random.default_rng(11)
        instance = random_instance(rng, n=12, m=3)
        instance.bid_cap = 0.02
        model = DspChoiceModel(instance)
        clipped = 0
        for i in range(model.n_items):
            alpha = rng.uniform(0.0, 0.5, instance.n_constraints)
            clipped += int(np.any(model.item_best(i, alpha)[0] == instance.bid_cap))
            assert_same_step(model, i, alpha)
        assert clipped > 0

    def test_zero_and_large_prices(self):
        model = DspChoiceModel(random_instance(np.random.default_rng(23), n=10, m=3))
        k = model.n_constraints
        assert all(assert_same_step(model, i, np.zeros(k)) for i in range(10))
        for i in range(10):
            assert_same_step(model, i, np.full(k, 1e6))

    def test_bid_logs_follow_numpy(self):
        # One ad with its ROI row priced at 1 bids exactly its ppi. For a few
        # such bids `math.log` and numpy's vectorized log differ in the last
        # bit on some CPUs; the kernel must take numpy's, as `item_best` does.
        ppis = np.random.default_rng(31).uniform(0.5, 2.0, 3000)
        impressions = [Impression(i, STANDARD, (p,)) for i, p in enumerate(ppis.tolist())]
        model = DspChoiceModel(p4p_instance(cpps=(1.0,), impressions=impressions))
        alpha = np.ones(1)
        for i, ppi in enumerate(ppis.tolist()):
            assert model.item_best(i, alpha)[0][0] == ppi
            assert assert_same_step(model, i, alpha)

    def test_tie_goes_to_the_first_ad(self):
        # Twin ads tie on score; only ad1 consumes the (unpriced) budget row.
        budget = ConstraintSpec(ConstraintKind.BUDGET, PaymentMode.P4P, 5.0, frozenset(["ad1"]))
        model = DspChoiceModel(p4p_instance(cpps=(1.0, 1.0), constraints=[budget]))
        scores = model.item_best(0, np.zeros(1))[1]
        assert scores[0] == scores[1] > 0.0
        assert assert_same_step(model, 0, np.zeros(1))
        assert model.dominant_consumption(0, np.zeros(1))[0] > 0.0

    def test_sigma_forty_prior(self):
        rng = np.random.default_rng(29)
        instance = random_instance(rng, n=10, m=2)
        instance.impressions = [
            dataclasses.replace(imp, prior=LandscapePrior(imp.prior.mu, 40.0))
            for imp in instance.impressions
        ]
        model = DspChoiceModel(instance)
        hits = [
            assert_same_step(model, i, rng.uniform(0.0, 1.0, model.n_constraints))
            for i in range(10)
        ]
        assert any(hits)


class _GenericStepModel(DspChoiceModel):
    def dominant_consumption(self, i, alpha):
        return generic_step(self, i, alpha)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sgd_matches_generic_step_bit_for_bit(seed):
    instance = random_instance(np.random.default_rng(40 + seed), n=40, m=2)
    fused = sgd_solve(DspChoiceModel(instance), epochs=20, shuffle_seed=seed)
    generic = sgd_solve(_GenericStepModel(instance), epochs=20, shuffle_seed=seed)
    assert len(set(fused.dual_value_trace)) > 2
    assert fused.alpha.tobytes() == generic.alpha.tobytes()
    assert fused.dual_value_trace == generic.dual_value_trace
    assert fused.best_epoch == generic.best_epoch


def scalar_reference(model, phi, psi, i):
    """Per-ad scalar path: `argmax_bid` and `evaluate` on each ad's composite."""
    prior, cap = model.instance.impressions[i].prior, model.instance.bid_cap
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
    for i in range(model.n_items):
        phi, psi = model.composite(i, alpha)
        assert bits(phi) == bits(phi_all[i]) and bits(psi) == bits(psi_all[i])
        ref_bp, ref_scores = scalar_reference(model, phi, psi, i)
        bp, scores = model.item_best(i, alpha)
        assert bits(bp) == bits(ref_bp) and bits(scores) == bits(ref_scores)

        j, best = None, -math.inf
        for a, s in enumerate(ref_scores.tolist()):
            if s > best:  # the first maximum wins
                j, best = a, s
        prior = model.instance.impressions[i].prior
        if j is not None and best >= 0.0 and ref_bp[j] > 0.0:
            bid = float(ref_bp[j])
            expected = (j, bid, best, win_prob(prior, bid), expected_cost(prior, bid))
        else:
            expected = (-1, 0.0, best, 0.0, 0.0)
        ad, *values = (a[i] for a in decisions)
        assert ad == expected[0]
        assert [bits(v) for v in values] == [bits(v) for v in expected[1:]]
    return int(np.sum(decisions.ad >= 0))


class TestDecideRows:
    """The array kernel against the per-ad scalar path, on TestDominantConsumption's cases."""

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
        instance.impressions = [
            dataclasses.replace(imp, prior=LandscapePrior(imp.prior.mu, 40.0))
            for imp in instance.impressions
        ]
        model = DspChoiceModel(instance)
        alpha = rng.uniform(0.0, 1.0, model.n_constraints)
        assert assert_kernel_matches_reference(model, alpha) > 0

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

    def test_bid_decision_is_a_row_of_the_kernel(self):
        rng = np.random.default_rng(41)
        model = DspChoiceModel(random_instance(rng, n=30, m=3))
        alpha = rng.uniform(0.0, 1.0, model.n_constraints)
        assert model.bid_decisions(alpha) == [
            bid_decision(model.instance, imp, alpha) for imp in model.instance.impressions
        ]


class TestInstanceValidation:
    def test_mode_mismatch(self):
        with pytest.raises(ValueError, match="objective mode"):
            DspInstance(
                mode=PaymentMode.P4P,
                objective=ObjectiveSpec(PaymentMode.P4U, ObjectiveKind.REVENUE),
                ads=[Ad("a", AdEconomics(cpp=1.0))],
                constraints=[],
                impressions=[],
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
                impressions=[],
            )


def test_decisions_csv(tmp_path):
    instance = p4p_instance()
    decisions = [
        bid_decision(instance, imp, np.asarray([1.0])) for imp in instance.impressions
    ]
    path = tmp_path / "decisions.csv"
    write_decisions_csv(path, decisions)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ",".join(DECISION_CSV_HEADER)
    assert len(lines) == 1 + len(decisions)
