import cmath
import math

import numpy as np
import pytest

from nevlab.algebra import (
    RATIONAL_FUNCTION,
    RationalFunction,
)
from nevlab.nevanlinna import (
    Const,
    EntireCurve,
    Exp,
    IdenticallyZero,
    Mul,
    OverflowGuard,
    Pow,
    WindingAmbiguous,
    Z,
    ZeroAtOrigin,
    ZeroList,
    characteristic_T,
    compose_form,
    counting_N,
    curve_residual,
    defect_estimate,
    jensen_check,
    locate_zeros,
    smt_margin,
    sub,
    sweep_data,
)

from helpers import xvar


def exp_curve():
    """(1 : e^z)"""
    return EntireCurve(components=(Const(1), Exp(Z())))


class TestExpressions:
    def test_exp_at_zero(self):
        e = Exp(Z())
        v, dv = e.eval(0j), e.diff().eval(0j)
        assert v == pytest.approx(1) and dv == pytest.approx(1)

    def test_product_rule(self):
        e = Mul(Z(), Exp(Z()))
        v, dv = e.eval(0j), e.diff().eval(0j)
        assert v == pytest.approx(0) and dv == pytest.approx(1)

    def test_chain_rule(self):
        e = Exp(Mul(Const(2), Z()))
        v, dv = e.eval(1 + 0j), e.diff().eval(1 + 0j)
        assert v == pytest.approx(math.e ** 2)
        assert dv == pytest.approx(2 * math.e ** 2)

    def test_pow_derivative(self):
        e = Pow(Z(), 3)
        v, dv = e.eval(2 + 0j), e.diff().eval(2 + 0j)
        assert v == pytest.approx(8) and dv == pytest.approx(12)

    def test_overflow_guard(self):
        with pytest.raises(OverflowGuard):
            Exp(Z()).eval(np.array([800 + 0j]))

    def test_vectorized_evaluation(self):
        zs = np.array([0j, 1j, 2j])
        vals = np.asarray(Exp(Z()).eval(zs))
        assert np.allclose(vals, np.exp(zs))


class TestCharacteristic:
    def test_exponential_closed_form(self):
        f = exp_curve()
        for r in (5, 10, 20):
            t = characteristic_T(f, r)
            assert abs(t - r / math.pi) <= 1e-6 * (r / math.pi)

    def test_rational_curve(self):
        f = EntireCurve(components=(Const(1), Z()))
        assert abs(characteristic_T(f, 100) - math.log(100)) < 1e-3

    def test_constant_direction(self):
        f = EntireCurve(components=(Const(1), Const(1)))
        assert abs(characteristic_T(f, 10)) < 1e-12
        # a common scalar shifts the value but the growth stays zero
        g = EntireCurve(components=(Const(3), Const(3)))
        assert abs(characteristic_T(g, 20) - characteristic_T(g, 5)) < 1e-12

    def test_nondecreasing_in_r(self):
        for f in (exp_curve(),
                  EntireCurve(components=(Const(1), Z())),
                  EntireCurve(components=(Const(1), Exp(Z()),
                                          Exp(Mul(Const(2), Z()))))):
            grid = np.linspace(2, 20, 10)
            values = [characteristic_T(f, r) for r in grid]
            for a, b in zip(values, values[1:]):
                assert b >= a - 1e-7

    def test_radius_precondition(self):
        with pytest.raises(ValueError):
            characteristic_T(exp_curve(), 0.5)


class TestLocateZeros:
    def test_exp_minus_one(self):
        g = sub(Exp(Z()), Const(1))
        zl = locate_zeros(g, 10, tol=1e-10)
        assert zl.total() == 3
        expected = [0j, 2j * math.pi, -2j * math.pi]
        for z, m in zl.zeros:
            assert m == 1
            assert min(abs(z - e) for e in expected) < 1e-9

    def test_double_zero_at_origin(self):
        zl = locate_zeros(Pow(Z(), 2), 1.5, tol=1e-10)
        assert len(zl.zeros) == 1
        z, m = zl.zeros[0]
        assert m == 2 and abs(z) < 1e-9

    def test_nonvanishing(self):
        zl = locate_zeros(Exp(Z()), 5)
        assert zl.zeros == []

    def test_conservation_totals(self):
        # total multiplicity equals the disk winding for a few targets
        g = sub(Exp(Mul(Const(2), Z())), Const(2))
        zl = locate_zeros(g, 7)
        # zeros at (ln 2)/2 + k pi i: k = -2..2 inside |z| < 7
        assert zl.total() == 5

    def test_zero_on_circle_raises(self):
        with pytest.raises(WindingAmbiguous):
            locate_zeros(sub(Z(), Const(2)), 2.0)


class TestCounting:
    def test_exp_minus_one_closed_form(self):
        g = sub(Exp(Z()), Const(1))
        zl = locate_zeros(g, 10, tol=1e-10)
        expected = math.log(10) + 2 * math.log(10 / (2 * math.pi))
        assert abs(counting_N(zl, 10) - expected) < 1e-6

    def test_single_zero_at_origin(self):
        zl = ZeroList(zeros=[(0j, 1)], radius=3.0)
        assert counting_N(zl, math.e) == pytest.approx(1.0)

    def test_no_zeros(self):
        assert counting_N(ZeroList(zeros=[], radius=5.0), 4.0) == 0.0


class TestJensen:
    def test_exp_minus_two(self):
        assert jensen_check(sub(Exp(Z()), Const(2)), 10) < 1e-5

    def test_linear(self):
        # log(10/3) + log 3 = log 10, exactly
        assert jensen_check(sub(Z(), Const(3)), 10) < 1e-6

    def test_nonvanishing_exponential(self):
        assert jensen_check(Exp(Z()), 5) < 1e-9

    def test_zero_at_origin_rejected(self):
        with pytest.raises(ZeroAtOrigin):
            jensen_check(sub(Exp(Z()), Const(1)), 5)

    def test_zero_near_circle_stays_accurate(self):
        # |ln 2 + 2 pi i| = 6.3214 is within 0.022 of the radius 6.3: the
        # smoothed quadrature keeps the residual small anyway.
        g = sub(Exp(Z()), Const(2))
        zl = locate_zeros(g, 9, tol=1e-10)
        assert jensen_check(g, 6.3, zeros=zl) < 1e-5


class TestDefects:
    def test_unit_hyperplane_defect_zero(self):
        # Q = x1 - x0 on (1 : e^z): zeros of e^z - 1, N ~ T, defect ~ 0.
        f = exp_curve()
        Q = (xvar(1, 2) - xvar(0, 2)).over(RATIONAL_FUNCTION)
        grid = np.linspace(5, 30, 11)
        data = sweep_data(f, [Q], grid)
        delta, trace = defect_estimate(data.radii, data.Tf, data.Nf[0], data.degrees[0])
        assert abs(delta) < 0.05
        assert len(trace) == 11

    def test_omitted_targets_have_defect_one(self):
        f = exp_curve()
        grid = np.linspace(5, 20, 6)
        for Q in (xvar(0, 2).over(RATIONAL_FUNCTION),
                  xvar(1, 2).over(RATIONAL_FUNCTION)):
            data = sweep_data(f, [Q], grid)
            delta, _ = defect_estimate(data.radii, data.Tf, data.Nf[0], data.degrees[0])
            assert delta == pytest.approx(1.0)

    def test_identically_zero_rejected(self):
        curve = EntireCurve(components=(Const(1), Exp(Z()),
                                        Exp(Mul(Const(2), Z()))))
        Q = (xvar(0) * xvar(2) - xvar(1) * xvar(1)).over(RATIONAL_FUNCTION)
        with pytest.raises(IdenticallyZero):
            sweep_data(curve, [Q], [5, 10])


class TestCompose:
    def test_polynomial_coefficients_required(self):
        f = exp_curve()
        bad = xvar(0, 2, RATIONAL_FUNCTION).scale(
            RationalFunction((1,), (0, 1)))  # coefficient 1/z
        with pytest.raises(ValueError):
            compose_form(bad, f)

    def test_moving_coefficient_evaluation(self):
        f = exp_curve()
        z = RationalFunction.z()
        Q = xvar(1, 2, RATIONAL_FUNCTION) - xvar(0, 2, RATIONAL_FUNCTION).scale(z)
        g = compose_form(Q, f)
        for point in (0.3 + 0.2j, 1j, -2.0 + 0j):
            assert complex(g.eval(np.asarray(point))) == pytest.approx(
                cmath.exp(point) - point)

    def test_curve_residual_on_variety(self):
        curve = EntireCurve(components=(Const(1), Exp(Z()),
                                        Exp(Mul(Const(2), Z()))))
        g = xvar(0) * xvar(2) - xvar(1) * xvar(1)
        assert curve_residual([g], curve) < 1e-12


class TestSweep:
    def test_degenerate_q_equals_n_plus_one(self):
        # factor q - n - 1 - eps < 0 makes the margin trivially nonnegative
        f = exp_curve()
        z = RationalFunction.z()
        x0 = xvar(0, 2, RATIONAL_FUNCTION)
        x1 = xvar(1, 2, RATIONAL_FUNCTION)
        Qs = [x0, x1 - x0.scale(z)]
        rep = smt_margin(f, Qs, n=1, epsilon=0.5, r_grid=[5, 10, 15],
                         admissibility_checked=True)
        assert rep.violations == []
        assert all(m >= 0 for m in rep.margins)
        assert rep.jensen_max < 1e-5

    def test_unchecked_admissibility_warns(self):
        f = exp_curve()
        Qs = [xvar(0, 2).over(RATIONAL_FUNCTION)]
        rep = smt_margin(f, Qs, n=0, epsilon=0.5, r_grid=[5, 10])
        assert any("admissibility" in w for w in rep.warnings)

    def test_zero_curve_rejected(self):
        with pytest.raises(ValueError):
            EntireCurve(components=(Const(0), Const(0)))

    def test_basis_growth_bound(self):
        # components of the degree-N monomial basis on (1 : e^z) grow
        # exactly like N * T_f
        from nevlab.algebra import MultiPoly
        from nevlab.filtration import build_table, filtration_basis
        from nevlab.gradedgeom import HomogeneousIdeal
        from nevlab.nevanlinna import basis_growth_diagnostic

        line = HomogeneousIdeal(2, [])
        table = build_table(line, [MultiPoly.variable(2, 0)], 4)
        basis = filtration_basis(table)
        diag = basis_growth_diagnostic(basis, exp_curve(), N=4, radii=(5, 10))
        assert diag.bound_holds
        for tf, tF in zip(diag.T_f, diag.T_F):
            assert tF == pytest.approx(4 * tf, rel=1e-6)
        assert all(c >= 0 for c in diag.cartan_sums)

    def test_logarithmic_floor_fit(self):
        # On (1 : e^z) with {x0, x1 - z x0} the diagnostic dips to about
        # -log r at radii passing near zeros of e^z - z, where the surviving
        # target is x0 with ratio 1/||f|| ~ 1/r.  The fitted slope c2 must
        # stay O(1): a pair sharing a zero on V would pull the floor down
        # linearly and blow c2 up to ~ r / log r (about 9 on this grid).
        f = exp_curve()
        z = RationalFunction.z()
        x0 = xvar(0, 2, RATIONAL_FUNCTION)
        x1 = xvar(1, 2, RATIONAL_FUNCTION)
        grid = np.linspace(5, 30, 16)
        rep = smt_margin(f, [x0, x1 - x0.scale(z)], n=1, epsilon=0.5,
                         r_grid=grid, admissibility_checked=True)
        assert rep.floor_fit.holds
        assert rep.floor_fit.c2 <= 1.5
        assert min(rep.floor_values) >= -(rep.floor_fit.c1
                                     + rep.floor_fit.c2 * math.log(30)
                                     + 1e-6)
