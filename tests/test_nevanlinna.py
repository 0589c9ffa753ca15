import cmath
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nevlab.algebra import (
    RATIONAL_FUNCTION,
    RationalFunction,
)
from nevlab import nevanlinna as nev
from nevlab.cli import load_problem, parse_curve_expression
from nevlab.nevanlinna import (
    Add,
    Const,
    EntireCurve,
    Exp,
    IdenticallyZero,
    Mul,
    Neg,
    OverflowGuard,
    Pow,
    Program,
    WindingAmbiguous,
    Z,
    ZeroAtOrigin,
    ZeroList,
    characteristic_T,
    compose_form,
    counting_N,
    curve_residual,
    defect_estimate,
    eval_on,
    jensen_check,
    locate_zeros,
    smt_margin,
    sub,
    sweep_data,
)

from helpers import xvar

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def watch_eval_on(monkeypatch):
    """Sizes of the point sets of every eval_on call from here on."""
    sizes = []
    original = nev.eval_on

    def counted(prog, z):
        sizes.append(np.size(z))
        return original(prog, z)

    monkeypatch.setattr(nev, "eval_on", counted)
    return sizes


def exp_curve():
    """(1 : e^z)"""
    return EntireCurve(components=(Const(1), Exp(Z())))


def value_and_derivative(e, z):
    v, dv = eval_on(Program([e, e.diff()]), z)
    return complex(v), complex(dv)


class TestExpressions:
    def test_exp_at_zero(self):
        v, dv = value_and_derivative(Exp(Z()), 0j)
        assert v == pytest.approx(1) and dv == pytest.approx(1)

    def test_product_rule(self):
        v, dv = value_and_derivative(Mul(Z(), Exp(Z())), 0j)
        assert v == pytest.approx(0) and dv == pytest.approx(1)

    def test_chain_rule(self):
        v, dv = value_and_derivative(Exp(Mul(Const(2), Z())), 1 + 0j)
        assert v == pytest.approx(math.e ** 2)
        assert dv == pytest.approx(2 * math.e ** 2)

    def test_pow_derivative(self):
        v, dv = value_and_derivative(Pow(Z(), 3), 2 + 0j)
        assert v == pytest.approx(8) and dv == pytest.approx(12)

    def test_overflow_guard(self):
        with pytest.raises(OverflowGuard):
            eval_on(Program([Exp(Z())]), np.array([800 + 0j]))

    def test_vectorized_evaluation(self):
        zs = np.array([0j, 1j, 2j])
        (vals,) = eval_on(Program([Exp(Z())]), zs)
        assert np.allclose(vals, np.exp(zs))


def _expr_trees():
    """Trees of the raw node classes, so constant subtrees stay unfolded."""
    consts = st.fractions(min_value=-3, max_value=3, max_denominator=4).map(Const)
    leaves = st.one_of(st.just(Z()), st.just(Z()), consts)  # two z branches: fewer constant trees

    def extend(children):
        pairs = st.tuples(children, children)
        return st.one_of(
            pairs.map(lambda ab: Add(*ab)),
            pairs.map(lambda ab: Mul(*ab)),
            children.map(Neg),
            st.tuples(children, st.integers(0, 3)).map(lambda ak: Pow(*ak)),
            children.map(Exp),
        )

    return extend(st.recursive(leaves, extend, max_leaves=10))


def tree_eval(e, z):
    """Recursive evaluation of a tree: the oracle the Program is checked against."""
    if isinstance(e, Const):
        return complex(e.value)
    if isinstance(e, Z):
        return z
    if isinstance(e, Add):
        return tree_eval(e.a, z) + tree_eval(e.b, z)
    if isinstance(e, Mul):
        return tree_eval(e.a, z) * tree_eval(e.b, z)
    if isinstance(e, Neg):
        return -tree_eval(e.a, z)
    if isinstance(e, Pow):
        return tree_eval(e.a, z) ** e.k
    return nev._guarded_exp(tree_eval(e.a, z))


def tree_on(e, z):
    """tree_eval on an array of points, constant trees broadcast."""
    z = np.asarray(z, dtype=complex)
    return np.broadcast_to(np.asarray(tree_eval(e, z)), z.shape)


def _outcome(fn):
    """fn()'s value, or the message of the OverflowGuard it raises."""
    with np.errstate(all="ignore"):
        try:
            return fn()
        except OverflowGuard as exc:
            return str(exc)


class TestProgram:
    # |z| up to 3, so exp(exp(z)) and deeper nestings can pass the guard
    POINTS = np.array([[0j, 1 + 1j, -2.5 + 0.5j], [3 + 0j, -1j, 0.7 - 2.9j]])

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(_expr_trees())
    def test_matches_tree(self, e):
        de = e.diff()
        want = [_outcome(lambda: tree_on(e, self.POINTS)),
                _outcome(lambda: tree_on(de, self.POINTS))]
        got = _outcome(lambda: eval_on(Program([e, de]), self.POINTS))
        if isinstance(want[0], str) or isinstance(want[1], str):
            # the tree of g runs before the tree of g', as the program's ops do
            assert got == next(w for w in want if isinstance(w, str))
            return
        assert len(got) == 2
        for g, w in zip(got, want):
            assert g.shape == w.shape == self.POINTS.shape
            assert np.array_equal(g, w, equal_nan=True)

    def test_shared_subtrees_computed_once(self):
        e2 = Exp(Mul(Const(2), Z()))
        prog = Program([Add(Exp(Z()), e2), Mul(Const(2), Exp(Mul(Const(2), Z())))])
        # z, 1, 2; exp(z), 2z, exp(2z), the sum, and the product
        assert len(prog._ops) == 5

    def test_first_overflow_message(self):
        e = Add(Exp(Mul(Const(750), Z())), Exp(Mul(Const(800), Z())))
        z = np.array([1 + 0j])
        with pytest.raises(OverflowGuard) as tree:
            tree_on(e, z)
        with pytest.raises(OverflowGuard) as prog:
            eval_on(Program([e, e.diff()]), z)
        assert str(prog.value) == str(tree.value) == (
            "exp argument real part 750.0 exceeds the guard 700.0")

    def test_constant_program_broadcasts(self):
        e = Exp(Add(Const(Fraction(1, 2)), Const(1)))
        got = eval_on(Program([e, e.diff()]), self.POINTS)
        assert [g.shape for g in got] == [self.POINTS.shape] * 2
        assert np.array_equal(got[0], tree_on(e, self.POINTS))
        assert np.all(got[1] == 0)


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

    def test_components_compiled_once(self, monkeypatch):
        # the bench's generated conic curve (1 : g : g^2): the components share g
        g = "exp(z) + 3/2"
        curve = EntireCurve(components=tuple(
            parse_curve_expression(t) for t in ("1", g, f"({g})^2")))
        # exp(z), the sum and the square
        assert len(curve.program._ops) == 3
        sizes = watch_eval_on(monkeypatch)
        assert characteristic_T(curve, 5.0) == 3.6583731946712303
        # one evaluation per sample level (512, 1024), not one per component
        assert len(sizes) == 2


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


class TestZeroFinderWork:
    """Targets are compiled once and winding integrals batched per level."""

    def test_double_zeros_work_and_batch_size(self, monkeypatch):
        # conic.prob target 3 composes to (e^(2z) - 5)^2
        spec = load_problem(str(PROBLEMS / "conic.prob"))
        g = compose_form(spec.hypersurfaces[3], spec.curve)
        sizes = watch_eval_on(monkeypatch)
        zl = locate_zeros(g, 6.0, tol=1e-6)
        expected = [(0.8047191666345593 + 3.139638898158114e-07j, 2),
                    (0.8047191666345593 + 3.1415923990964876j, 2),
                    (0.8047191666345593 - 3.141592500731468j, 2)]
        assert [m for _, m in zl.zeros] == [m for _, m in expected]
        for (z, _), (w, _) in zip(zl.zeros, expected):
            assert abs(z - w) < 1e-12
        # a tree walk per edge and level took 4492 evaluations
        assert len(sizes) <= 449
        assert max(sizes) <= 16385

    def test_capped_levels_stay_within_batch_size(self, monkeypatch):
        # a zero on the circle keeps the disk winding from converging up to
        # 65536 samples; a loop through a zero never snaps and runs to the
        # per-edge cap with all four edges open
        sizes = watch_eval_on(monkeypatch)
        with pytest.raises(WindingAmbiguous):
            locate_zeros(sub(Z(), Const(2)), 2.0)
        g = sub(Z(), Const(1))
        corners = [0j, 2 + 0j, 2 + 2j, 2j]
        assert nev._loop_windings(Program([g, g.diff()]), [corners] * 4) == [None] * 4
        assert max(sizes) == 16385


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
        prog = Program([g])
        for point in (0.3 + 0.2j, 1j, -2.0 + 0j):
            assert complex(eval_on(prog, point)[0]) == pytest.approx(
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
