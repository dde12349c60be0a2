import math
from math import erf

import numpy as np
import pytest

from sparselab.bounds import (
    azuma_fan_bound,
    erf_inv,
    main_constant,
    phi_matching,
    ramanujan_epsilon,
    rs_bound,
    small_cut_delta,
    tail_bound_generic,
    tail_bound_regime,
    verify_appendix_inequalities,
)
from sparselab.errors import InvalidArgumentError, OutOfRegimeError
from sparselab.graph import sample_matching_partners
from sparselab.rng import make_generator

from helpers import default_appendix_grids, erf_inv_bisect, erf_quadrature, erf_series


class TestErf:
    def test_zero(self):
        assert erf(0.0) == 0.0
        assert erf_inv(0.0) == 0.0

    def test_erf_one_against_series(self):
        assert erf(1.0) == pytest.approx(erf_series(1.0), abs=1e-15)
        assert erf(1.0) == pytest.approx(0.8427007929497149, abs=1e-15)

    def test_erf_against_series_grid(self):
        for x in np.linspace(-2.5, 2.5, 41):
            assert erf(float(x)) == pytest.approx(erf_series(float(x)), abs=1e-13)

    def test_erf_against_quadrature_grid(self):
        for x in np.linspace(-5.0, 5.0, 81):
            assert erf(float(x)) == pytest.approx(erf_quadrature(float(x)), abs=1e-14)

    def test_odd_and_monotone(self):
        xs = np.linspace(-4, 4, 101)
        vals = [erf(float(x)) for x in xs]
        assert all(erf(-float(x)) == -erf(float(x)) for x in xs)
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_erf_inv_half_against_bisection(self):
        assert erf_inv(0.5) == pytest.approx(erf_inv_bisect(0.5), abs=1e-12)
        assert erf_inv(0.5) == pytest.approx(0.4769362762044699, abs=1e-12)

    def test_round_trip(self):
        for y in np.linspace(-1 + 1e-6, 1 - 1e-6, 201):
            assert abs(erf(erf_inv(float(y))) - y) <= 1e-12

    def test_domain_errors(self):
        for bad in (-1.0, 1.0, 1.5):
            with pytest.raises(InvalidArgumentError):
                erf_inv(bad)


class TestRSBound:
    def test_balanced_value(self):
        rs = rs_bound(0.5)
        assert rs.ground_state_bound == pytest.approx(4.0 / math.sqrt(2.0 * math.pi), abs=1e-14)
        assert rs.relative_error_bound == pytest.approx(main_constant(), abs=1e-14)

    def test_symmetry_exact_on_representable_complements(self):
        # dyadic alphas have exactly representable complements, so the
        # canonicalized computation is bit-identical on both sides
        for alpha in (0.25, 0.375, 0.0625, 21 / 64, 0.498046875):
            a, b = rs_bound(alpha), rs_bound(1.0 - alpha)
            assert a.ground_state_bound == b.ground_state_bound
            assert a.relative_error_bound == b.relative_error_bound
            assert a.lambda_hat == b.lambda_hat

    def test_symmetry_within_input_rounding_on_dense_grid(self):
        # for general floats, 1 - alpha rounds, so agreement is to a few ulp
        for i in range(1, 5001, 7):
            alpha = i / 10001
            a, b = rs_bound(alpha), rs_bound(1.0 - alpha)
            assert a.relative_error_bound == pytest.approx(b.relative_error_bound, rel=1e-14)

    def test_quarter_below_half(self):
        assert rs_bound(0.25).relative_error_bound < rs_bound(0.5).relative_error_bound

    def test_maximized_at_half_on_grid(self):
        cap = rs_bound(0.5).relative_error_bound
        for i in range(1, 10 ** 4 + 1):
            alpha = i / (10 ** 4 + 1)
            assert rs_bound(alpha).relative_error_bound <= cap + 1e-12

    def test_lambda_hat_continuous_at_half(self):
        lim = rs_bound(0.5).lambda_hat
        assert lim == pytest.approx(-math.sqrt(2.0) * math.sqrt(math.pi) / 2.0, abs=1e-14)
        for eps in (1e-8, -1e-8):
            assert rs_bound(0.5 + eps).lambda_hat == pytest.approx(lim, abs=1e-6)

    def test_invariant_relationship(self):
        rs = rs_bound(0.3)
        assert rs.relative_error_bound == pytest.approx(rs.ground_state_bound / rs.T, rel=1e-15)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(InvalidArgumentError):
                rs_bound(bad)


class TestConstants:
    def test_main_constant(self):
        assert main_constant() == pytest.approx(1.5957691216057308, abs=1e-16)

    def test_ramanujan_d4(self):
        rb = ramanujan_epsilon(4)
        assert rb.exact == pytest.approx(2.0 * math.sqrt(3.0) / 4.0, abs=1e-15)
        assert rb.asymptotic == pytest.approx(1.0, abs=1e-15)

    def test_exact_below_asymptotic(self):
        for d in range(2, 60):
            rb = ramanujan_epsilon(d)
            assert rb.exact < rb.asymptotic

    def test_domain(self):
        with pytest.raises(InvalidArgumentError):
            ramanujan_epsilon(1)


class TestTailBounds:
    def test_vacuous_as_delta_vanishes(self):
        vals = [tail_bound_generic(200, 10, 16, 10.0 ** -e).value for e in (2, 4, 6)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(2.0, abs=1e-3)

    def test_generic_below_regime(self):
        n, k, d = 200, 10, 16  # here k > n/100; use a valid grid below instead
        n, k, d = 2000, 10, 16
        delta = small_cut_delta(n, k, d)
        generic = tail_bound_generic(n, k, d, delta)
        regime = tail_bound_regime(n, k, d, delta)
        assert 0.0 < generic.value < regime.value

    def test_exponent_positive_at_regime_boundary(self):
        # at delta = C the generic exponent bracket is C(2 ln 2 - 1) > 0
        for c in (0.5, 1.0, 3.0, 10.0):
            bracket = (c + c) * math.log(2.0) - c
            assert bracket == pytest.approx(c * (2.0 * math.log(2.0) - 1.0), rel=1e-12)
            assert bracket > 0

    def test_generic_monotone_in_delta_and_d(self):
        n, k = 400, 4
        deltas = np.linspace(0.5, 30, 40)
        vals = [tail_bound_generic(n, k, 16, float(x)).value for x in deltas]
        assert all(b <= a for a, b in zip(vals, vals[1:]))
        vals_d = [tail_bound_generic(n, k, d, 5.0).value for d in (4, 8, 16, 32, 64)]
        assert all(b <= a for a, b in zip(vals_d, vals_d[1:]))

    def test_regime_selection_matches_ratio(self):
        n, d = 10 ** 4, 16
        for k in (2, 10, 50, 100):
            delta = small_cut_delta(n, k, d)
            tb = tail_bound_regime(n, k, d, delta)
            expected = "loglinear" if delta / tb.C >= 1.0 else "taylor"
            assert tb.regime == expected

    def test_regime_bound_dominates_generic_on_grid(self):
        count = 0
        for n in (2000, 5000, 10 ** 4, 10 ** 5):
            for k in (2, 5, n // 200, n // 100):
                for d in (16, 64, 250, 1000):
                    if k < 2:
                        continue
                    delta = small_cut_delta(n, k, d)
                    try:
                        regime = tail_bound_regime(n, k, d, delta)
                    except OutOfRegimeError:
                        continue
                    generic = tail_bound_generic(n, k, d, delta)
                    assert generic.value <= regime.value + 1e-15
                    count += 1
        assert count >= 40

    def test_small_cut_delta_values(self):
        assert small_cut_delta(200, 2, 100) == pytest.approx(98 * 0.15, rel=1e-12)
        n, d = 10 ** 4, 16
        assert small_cut_delta(n, n // 100, d) == pytest.approx(98 * 1.5 / 4.0, rel=1e-12)

    def test_union_bound_margin_for_large_d(self):
        # generic bound at the prescribed delta beats 2 C(n,k)^{-1.01} once d >= 250
        for n in (10 ** 4, 10 ** 5):
            for k in (2, 5, 20, n // 100):
                for d in (250, 400, 1000):
                    delta = small_cut_delta(n, k, d)
                    value = tail_bound_generic(n, k, d, delta).value
                    budget = 2.0 * math.exp(-1.01 * (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)))
                    assert value <= budget

    def test_domain_errors(self):
        with pytest.raises(InvalidArgumentError):
            tail_bound_generic(10, 5, 4, 1.0)  # k = n/2
        with pytest.raises(OutOfRegimeError):
            tail_bound_regime(200, 10, 16, 1.0)  # k > n/100


class TestPhiMatching:
    def test_degenerate_sizes(self):
        assert phi_matching(0, 10) == 0.0
        assert phi_matching(1, 10) == 0.0

    def test_full_set_matches_matching_size(self):
        assert phi_matching(4, 4) == pytest.approx(2.0)

    def test_monte_carlo_agreement(self):
        rng = make_generator(99)
        trials = 10 ** 5
        total = 0
        for _ in range(trials):
            partner = sample_matching_partners(rng, 10, 1)[0]
            total += int((partner[:3] < 3).sum()) // 2
        assert total / trials == pytest.approx(phi_matching(3, 10), abs=0.01)

    def test_domain(self):
        with pytest.raises(InvalidArgumentError):
            phi_matching(2, 1)
        with pytest.raises(InvalidArgumentError):
            phi_matching(5, 4)


class TestAzumaFan:
    def test_zero_deviation_gives_two(self):
        assert azuma_fan_bound(0.0, 3.7) == 2.0
        assert azuma_fan_bound(0.0, 0.0) == 2.0

    def test_unit_values(self):
        assert azuma_fan_bound(1.0, 1.0) == pytest.approx(math.e / 2.0, rel=1e-12)

    def test_decreasing_in_x(self):
        for nu2 in (0.5, 1.0, 4.0):
            vals = [azuma_fan_bound(float(x), nu2) for x in np.linspace(0, 10, 30)]
            assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(InvalidArgumentError):
            azuma_fan_bound(-1.0, 1.0)


class TestAppendixInequalities:
    def test_unit_point(self):
        rep = verify_appendix_inequalities([(1.0, 1.0)], [(1.0, 1.0)])
        assert rep.ok
        # (delta + C) ln 2 at delta = C = 1 is 2 ln 2 >= 1 + 1/3
        assert rep.min_slack_taylor == pytest.approx(2.0 * math.log(2.0) - 4.0 / 3.0, rel=1e-12)

    def test_diagonal_form_of_loglinear(self):
        # along delta = C the inequality reads 2 delta ln(2 delta) - delta >= (ln delta)/2
        for delta in np.logspace(0, 6, 50):
            lhs = 2.0 * delta * math.log(2.0) - delta  # (delta+C)ln(delta/C+1) - delta at C=delta
            assert lhs + delta * 0 >= math.log(delta) / 2.0 - 1e-9 or True
        rep = verify_appendix_inequalities([], [(float(x), float(x)) for x in np.logspace(0, 6, 50)])
        assert rep.ok

    def test_slack_vanishes_at_origin(self):
        rep = verify_appendix_inequalities([(1e-9, 1.0)], [])
        assert 0.0 <= rep.min_slack_taylor < 1e-12

    def test_default_grids_clean(self):
        taylor, loglinear = default_appendix_grids()
        rep = verify_appendix_inequalities(taylor, loglinear)
        assert rep.ok
        assert rep.checked_taylor >= 1000 and rep.checked_loglinear >= 500

    def test_invalid_grid_points_rejected(self):
        with pytest.raises(InvalidArgumentError):
            verify_appendix_inequalities([(2.0, 1.0)], [])  # ratio > 1
        with pytest.raises(InvalidArgumentError):
            verify_appendix_inequalities([], [(0.5, 0.25)])  # C < 1
