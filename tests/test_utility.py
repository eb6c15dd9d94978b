import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import quad

from dualbid.landscape import LandscapePrior, pdf
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
    constraint_limit,
    derivative,
    encode_constraint,
    encode_objective,
    evaluate,
)

STANDARD = LandscapePrior(0.0, 1.0)


def quad_utility(coeffs, prior, bp):
    value, _ = quad(
        lambda x: (coeffs.phi + coeffs.psi * x) * pdf(prior, x),
        0.0,
        bp,
        epsabs=1e-13,
        epsrel=1e-11,
        limit=200,
    )
    return value


class TestEvaluate:
    def test_pure_probability_saturates(self):
        assert evaluate(UtilityCoeffs(1.0, 0.0), STANDARD, 1e12) == pytest.approx(1.0, rel=1e-12)

    def test_pure_cost_reaches_mean(self):
        assert evaluate(UtilityCoeffs(0.0, 1.0), STANDARD, 1e12) == pytest.approx(
            math.exp(0.5), rel=1e-12
        )

    def test_mixed_matches_quadrature(self):
        coeffs = UtilityCoeffs(1.0, -1.0)
        assert evaluate(coeffs, STANDARD, 1.0) == pytest.approx(
            quad_utility(coeffs, STANDARD, 1.0), abs=1e-10
        )

    def test_coefficients_must_be_finite(self):
        with pytest.raises(ValueError):
            UtilityCoeffs(math.inf, 0.0)


class TestDerivative:
    def test_root_at_sign_change(self):
        assert derivative(UtilityCoeffs(3.0, -1.0), STANDARD, 3.0) == pytest.approx(0.0, abs=1e-15)

    def test_matches_finite_difference(self):
        h = 1e-5
        for coeffs, bp in [(UtilityCoeffs(1.0, 0.0), 1.0), (UtilityCoeffs(0.0, 2.0), 2.0)]:
            fd = (evaluate(coeffs, STANDARD, bp + h) - evaluate(coeffs, STANDARD, bp - h)) / (2 * h)
            assert derivative(coeffs, STANDARD, bp) == pytest.approx(fd, rel=1e-7)
        assert derivative(UtilityCoeffs(0.0, 2.0), STANDARD, 2.0) == pytest.approx(
            4.0 * pdf(STANDARD, 2.0), rel=1e-12
        )


@given(
    phi=st.floats(-2.0, 2.0),
    psi=st.floats(-2.0, 2.0),
    mu=st.floats(-1.5, 1.5),
    sigma=st.floats(0.2, 1.2),
    bp=st.floats(0.05, 8.0),
)
@settings(max_examples=200, deadline=None)
def test_derivative_matches_central_difference(phi, psi, mu, sigma, bp):
    coeffs = UtilityCoeffs(phi, psi)
    prior = LandscapePrior(mu, sigma)
    h = 1e-5 * max(bp, 1.0)
    fd = (evaluate(coeffs, prior, bp + h) - evaluate(coeffs, prior, bp - h)) / (2 * h)
    exact = derivative(coeffs, prior, bp)
    assert exact == pytest.approx(fd, rel=1e-4, abs=1e-9)


class TestArgmax:
    def test_interior_maximum(self):
        result = argmax_bid(UtilityCoeffs(3.0, -1.0), cap=100.0)
        assert result.bp == 3.0 and not result.unbounded

    def test_interior_clipped_by_cap(self):
        result = argmax_bid(UtilityCoeffs(300.0, -1.0), cap=100.0)
        assert result.bp == 100.0 and not result.unbounded

    def test_nondecreasing_hits_cap(self):
        result = argmax_bid(UtilityCoeffs(2.0, 0.0), cap=100.0)
        assert result.bp == 100.0 and result.unbounded

    def test_nonincreasing_stays_home(self):
        result = argmax_bid(UtilityCoeffs(-1.0, -2.0), cap=100.0)
        assert result.bp == 0.0 and not result.unbounded

    def test_zero_utility(self):
        assert argmax_bid(UtilityCoeffs(0.0, 0.0), cap=100.0).bp == 0.0

    def test_dip_then_rise_flagged(self):
        result = argmax_bid(UtilityCoeffs(-1.0, 2.0), cap=100.0)
        assert result.bp == 100.0 and result.unbounded

    def test_cap_must_be_positive(self):
        with pytest.raises(ValueError):
            argmax_bid(UtilityCoeffs(1.0, -1.0), cap=0.0)

    @given(phi=st.floats(0.05, 5.0), psi=st.floats(-5.0, -0.05))
    @settings(max_examples=200, deadline=None)
    def test_argmax_beats_grid(self, phi, psi):
        coeffs = UtilityCoeffs(phi, psi)
        best = argmax_bid(coeffs, cap=1e9)
        grid = np.linspace(0.0, 4.0 * (-phi / psi), 1000)
        values = evaluate(coeffs, STANDARD, grid)
        assert evaluate(coeffs, STANDARD, best.bp) >= values.max() - 1e-12


class TestComparison:
    @given(
        phi_f=st.floats(0.05, 5.0),
        phi_g=st.floats(0.05, 5.0),
        psi=st.floats(-4.0, -0.1),
        mu=st.floats(-1.0, 1.0),
        sigma=st.floats(0.2, 1.2),
    )
    @settings(max_examples=200, deadline=None)
    def test_max_order_tracks_phi(self, phi_f, phi_g, psi, mu, sigma):
        # Coefficients a few ulps apart evaluate to identical maxima in double
        # precision; the order equivalence needs a resolvable separation.
        assume(abs(phi_g - phi_f) > 1e-9 * max(phi_f, phi_g))
        prior = LandscapePrior(mu, sigma)
        f, g = UtilityCoeffs(phi_f, psi), UtilityCoeffs(phi_g, psi)
        max_f = evaluate(f, prior, argmax_bid(f).bp)
        max_g = evaluate(g, prior, argmax_bid(g).bp)
        assert (max_g >= max_f) == (phi_g >= phi_f)


class TestObjectiveEncoding:
    def test_p4p_revenue(self):
        coeffs = encode_objective(
            ObjectiveSpec(PaymentMode.P4P, ObjectiveKind.REVENUE), AdEconomics(cpp=2.0), ppi=0.1
        )
        assert coeffs == UtilityCoeffs(0.2, 0.0)

    def test_p4p_performance(self):
        spec = ObjectiveSpec(PaymentMode.P4P, ObjectiveKind.PERFORMANCE)
        assert encode_objective(spec, AdEconomics(cpp=1.0), ppi=0.4) == UtilityCoeffs(0.4, 0.0)
        assert encode_objective(spec, AdEconomics(cpp=1.0), ppi=0.0) == UtilityCoeffs(0.0, 0.0)

    def test_p4u_revenue(self):
        coeffs = encode_objective(
            ObjectiveSpec(PaymentMode.P4U, ObjectiveKind.REVENUE), AdEconomics(cr=0.1), ppi=0.3
        )
        assert coeffs.phi == 0.0
        assert coeffs.psi == pytest.approx(1.1)

    def test_p4u_performance(self):
        spec = ObjectiveSpec(PaymentMode.P4U, ObjectiveKind.PERFORMANCE)
        assert encode_objective(spec, AdEconomics(cr=0.2), ppi=0.25) == UtilityCoeffs(0.25, 0.0)

    def test_mode_mismatch(self):
        with pytest.raises(ModeMismatchError):
            encode_objective(
                ObjectiveSpec(PaymentMode.P4P, ObjectiveKind.REVENUE), AdEconomics(cr=0.1), ppi=0.1
            )
        with pytest.raises(ModeMismatchError):
            encode_objective(
                ObjectiveSpec(PaymentMode.P4U, ObjectiveKind.REVENUE), AdEconomics(cpp=1.0), ppi=0.1
            )


def _spec(kind, mode, bound, scope=("a",)):
    return ConstraintSpec(kind, mode, bound, frozenset(scope))


class TestConstraintEncoding:
    def test_p4p_budget(self):
        coeffs, limit = encode_constraint(
            _spec(ConstraintKind.BUDGET, PaymentMode.P4P, 20.0), "a", AdEconomics(cpp=1.0), 0.5
        )
        assert coeffs == UtilityCoeffs(0.5, 0.0) and limit == 20.0

    def test_p4p_dsp_roi(self):
        coeffs, limit = encode_constraint(
            _spec(ConstraintKind.DSP_ROI, PaymentMode.P4P, 2.0), "a", AdEconomics(cpp=1.0), 0.5
        )
        assert coeffs == UtilityCoeffs(-0.5, 2.0) and limit == 0.0

    def test_p4p_advertiser_roi(self):
        coeffs, limit = encode_constraint(
            _spec(ConstraintKind.ADVERTISER_ROI, PaymentMode.P4P, 0.5), "a", AdEconomics(cpp=2.0), 0.3
        )
        assert coeffs.phi == pytest.approx(2.0 * 0.3 * 0.5 - 0.3)
        assert coeffs.psi == 0.0 and limit == 0.0

    def test_p4u_budget(self):
        coeffs, limit = encode_constraint(
            _spec(ConstraintKind.BUDGET, PaymentMode.P4U, 10.0), "a", AdEconomics(cr=0.1), 0.3
        )
        assert coeffs.phi == 0.0 and coeffs.psi == pytest.approx(1.1) and limit == 10.0

    def test_p4u_dsp_roi(self):
        coeffs, limit = encode_constraint(
            _spec(ConstraintKind.DSP_ROI, PaymentMode.P4U, 2.0), "a", AdEconomics(cr=0.1), 0.3
        )
        assert coeffs.phi == 0.0 and coeffs.psi == pytest.approx(2.0 - 1.1) and limit == 0.0

    def test_p4u_advertiser_roi(self):
        coeffs, limit = encode_constraint(
            _spec(ConstraintKind.ADVERTISER_ROI, PaymentMode.P4U, 0.5), "a", AdEconomics(cr=0.1), 0.3
        )
        assert coeffs.phi == pytest.approx(-0.3)
        assert coeffs.psi == pytest.approx(0.55)
        assert limit == 0.0

    def test_out_of_scope_is_null(self):
        coeffs, limit = encode_constraint(
            _spec(ConstraintKind.BUDGET, PaymentMode.P4P, 20.0, scope=("other",)),
            "a",
            AdEconomics(cpp=1.0),
            0.5,
        )
        assert coeffs == UtilityCoeffs(0.0, 0.0) and limit == 20.0

    def test_constraint_limit(self):
        assert constraint_limit(_spec(ConstraintKind.BUDGET, PaymentMode.P4P, 20.0)) == 20.0
        assert constraint_limit(_spec(ConstraintKind.DSP_ROI, PaymentMode.P4P, 2.0)) == 0.0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            _spec(ConstraintKind.BUDGET, PaymentMode.P4P, 0.0)
        with pytest.raises(ValueError):
            _spec(ConstraintKind.BUDGET, PaymentMode.P4P, 5.0, scope=())

    @given(
        cpp=st.floats(0.2, 5.0),
        ppi=st.floats(0.01, 1.0),
        roi=st.floats(0.2, 5.0),
        mu=st.floats(-1.0, 1.0),
        sigma=st.floats(0.2, 1.2),
        bp=st.floats(0.05, 6.0),
    )
    # Cost 3.6e-12: the row, +6.7e-13, lies under an absolute slack of 1e-12.
    @example(cpp=0.5, ppi=0.125, roi=0.5, mu=-0.25, sigma=0.203125, bp=0.203125)
    @settings(max_examples=200, deadline=None)
    def test_dsp_roi_round_trip(self, cpp, ppi, roi, mu, sigma, bp):
        """The rewritten row is nonpositive exactly when revenue/cost clears the floor."""
        prior = LandscapePrior(mu, sigma)
        coeffs, _ = encode_constraint(
            _spec(ConstraintKind.DSP_ROI, PaymentMode.P4P, roi), "a", AdEconomics(cpp=cpp), ppi
        )
        from dualbid.landscape import expected_cost, win_prob

        cost = expected_cost(prior, bp)
        revenue = cpp * ppi * win_prob(prior, bp)
        row_value = evaluate(coeffs, prior, bp)
        if cost > 1e-12:
            # The row is roi * cost - revenue, so the ratio's relative slack of
            # 1e-9 is a slack of 1e-9 * roi * cost on the row.
            assert (row_value <= 1e-9 * roi * cost) == (revenue / cost >= roi * (1.0 - 1e-9))
