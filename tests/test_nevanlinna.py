import cmath
import importlib
import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nevlab.algebra import (
    RATIONAL_FUNCTION,
    RationalFunction,
)
from nevlab import nevanlinna as nev
from nevlab.program import rf_to_expr
from nevlab.cli import load_problem, parse_curve_expression, parse_problem
from nevlab.expr import (
    Add,
    Const,
    Exp,
    IdenticallyZero,
    Mul,
    Neg,
    OverflowGuard,
    Pow,
    WindingAmbiguous,
    Z,
    ZeroAtOrigin,
    add,
    mul,
    neg,
    pow_,
    sub,
)
from nevlab.nevanlinna import (
    EntireCurve,
    Program,
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
    sweep_data,
)

from helpers import (
    UNRESOLVED_CLUSTER,
    reference_characteristic_T,
    reference_circle_quadrature,
    reference_circle_winding,
    reference_locate_zeros,
    reference_loop_windings,
    xvar,
)

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "problems"


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


def _oracle_exp(w):
    """exp with the guard written out, so that a change to the program's
    guard cannot move the oracle along with it."""
    mx = np.max(np.real(w))
    if mx > 700.0:
        raise OverflowGuard(f"exp argument real part {mx:.1f} exceeds the guard 700.0")
    return np.exp(w)


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
    return _oracle_exp(tree_eval(e.a, z))


def tree_on(e, z):
    """tree_eval on an array of points, constant trees broadcast."""
    z = np.asarray(z, dtype=complex)
    return np.broadcast_to(np.asarray(tree_eval(e, z)), z.shape)


def _outcome(fn):
    """fn()'s value, or the type and message of the OverflowGuard or
    WindingAmbiguous it raises."""
    with np.errstate(all="ignore"):
        try:
            return fn()
        except (OverflowGuard, WindingAmbiguous) as exc:
            return f"{type(exc).__name__}: {exc}"


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

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(pieces=st.lists(_expr_trees(), min_size=2, max_size=3),
           recipe=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                                     st.sampled_from([Add, Mul]), st.booleans()),
                           min_size=3, max_size=5))
    def test_matches_tree_with_shared_subtrees(self, pieces, recipe):
        # 3 to 5 trees built from the same pieces: a piece's registers are
        # shared across trees and freed after its last use, mid-run
        trees = []
        for i, j, op, wrap in recipe:
            e = op(pieces[i % len(pieces)], pieces[j % len(pieces)])
            trees.append(Exp(e) if wrap else e)
        want = [_outcome(lambda e=e: tree_on(e, self.POINTS)) for e in trees]
        got = _outcome(lambda: eval_on(Program(trees), self.POINTS))
        tripped = [w for w in want if isinstance(w, str)]
        if tripped:
            # the trees run in order, so the first tree past the guard names it
            assert got == tripped[0]
            return
        assert len(got) == len(trees)
        for g, w in zip(got, want):
            assert g.shape == w.shape == self.POINTS.shape
            assert np.array_equal(g, w, equal_nan=True)

    def test_first_overflow_across_trees(self):
        # exp(3z) is shared by all four trees and freed after the last; the
        # second tree is the first past the guard, though the fourth's
        # argument is larger
        shared = Exp(Mul(Const(3), Z()))
        trees = [Add(shared, Z()), Mul(shared, Exp(Mul(Const(750), Z()))),
                 Neg(shared), Add(Exp(Mul(Const(800), Z())), shared)]
        prog = Program(trees)
        assert any(dead for *_, dead in prog._ops[:-1])
        z = np.array([1 + 0j, 0.5 + 0j])
        want = [_outcome(lambda e=e: tree_on(e, z)) for e in trees]
        assert [isinstance(w, str) for w in want] == [False, True, False, True]
        assert want[1] == "OverflowGuard: exp argument real part 750.0 exceeds the guard 700.0"
        assert want[3] == "OverflowGuard: exp argument real part 800.0 exceeds the guard 700.0"
        assert _outcome(lambda: eval_on(prog, z)) == want[1]

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

    def test_varying_outputs_are_returned_as_computed(self):
        # only a constant tree is broadcast (a read-only view); a tree that
        # depends on z is the program's own array
        e = Mul(Exp(Z()), Z())
        got = eval_on(Program([e, Z(), Const(2)]), self.POINTS)
        assert [g.shape for g in got] == [self.POINTS.shape] * 3
        assert got[0].flags.writeable and got[1].flags.writeable
        assert not got[2].flags.writeable
        assert np.array_equal(got[0], tree_on(e, self.POINTS))


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
        # g^2 is the largest component on the whole circle: the kink grid is
        # the trapezoid's first level, and the second level evaluates only
        # its 512 midpoints; one evaluation per level, not one per component
        assert sizes == [512, 512]

    @pytest.mark.parametrize("r", [5, 10, 20, 30, 45])
    def test_kinked_closed_forms_to_rounding(self, r):
        # (1 : e^z : e^2z) has T = 2r/pi and (1 : e^z) has T = r/pi; their
        # kinks at theta = +-pi/2 left the trapezoid 1e-8 short
        conic = EntireCurve(components=(Const(1), Exp(Z()), Exp(mul(Const(2), Z()))))
        assert abs(characteristic_T(conic, r) - 2 * r / math.pi) <= 1e-12
        assert abs(characteristic_T(exp_curve(), r) - r / math.pi) <= 1e-12

    def test_kinked_circle_point_budget(self, monkeypatch):
        curve = load_problem(str(PROBLEMS / "conic.prob")).curve
        sizes = watch_eval_on(monkeypatch)
        characteristic_T(curve, 30.0)
        # the grid, the kinks and the arcs; the trapezoid took 32768 points
        assert sum(sizes) <= 1000


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


def _poly_times(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


@st.composite
def _known_zeros(draw):
    """(g, zeros, floor): g = P(z) exp(b z), where P = prod_k h_k^m_k is
    expanded into one Horner tree, m_k is 1 or 2 and h_k is z - p or the
    real quadratic (z - p)^2 + q^2 of the pair p +- qi; the zeros, with
    multiplicities, are 1/4 or more apart.  floor is the largest
    cancellation floor of a double zero a: P is evaluated with an error of
    about deg P * 2.2e-16 * sum_k |c_k| |a|^k, and |P(z)| ~ |P''(a)/2| |z - a|^2
    drowns in it within sqrt(error / |P''(a)/2|) of a."""
    grid = st.fractions(min_value=-1, max_value=1, max_denominator=4)
    factors = draw(st.lists(st.tuples(grid, st.sampled_from([0, Fraction(1, 2), 1]),
                                      st.sampled_from([1, 2])), min_size=1, max_size=3))
    b = draw(st.fractions(min_value=-1, max_value=1, max_denominator=2))
    poly, zeros = [Fraction(1)], []
    for p, q, m in factors:
        h = [-p, Fraction(1)] if q == 0 else [p * p + q * q, -2 * p, Fraction(1)]
        for _ in range(m):
            poly = _poly_times(poly, h)
        zeros += [(complex(p, y), m) for y in ({q, -q} if q else {0})]
    points = [a for a, _ in zeros]
    assume(all(abs(a - c) >= 0.25 for i, a in enumerate(points) for c in points[:i]))
    floor = 0.0
    for a, m in zeros:
        if m == 2:
            error = len(poly) * 2.2e-16 * sum(abs(float(c)) * abs(a) ** k
                                                for k, c in enumerate(poly))
            curvature = abs(sum(float(c) * k * (k - 1) * a ** (k - 2)
                                for k, c in enumerate(poly) if k >= 2)) / 2
            floor = max(floor, math.sqrt(error / curvature))
    g = Const(poly[-1])
    for c in reversed(poly[:-1]):
        g = add(Const(c), mul(Z(), g))
    return mul(g, Exp(mul(Const(b), Z()))), zeros, floor


class TestPolishedZeros:
    """Zeros of one-cluster boxes sit at certified Newton limits."""

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(_known_zeros())
    def test_zeros_match_the_truth(self, known):
        # simple zeros to about machine precision, double zeros to their
        # cancellation floor.  A floor above tol is out of reach of any
        # finder in double precision (boxes of width tol drown in rounding
        # noise too), so those targets are not drawn
        g, zeros, floor = known
        tol = 1e-6
        assume(floor <= tol)
        zl = locate_zeros(g, 3.0, tol=tol)
        assert sorted(m for _, m in zl.zeros) == sorted(m for _, m in zeros)
        for a, m in zeros:
            err = min(abs(z - a) for z, mz in zl.zeros if mz == m)
            assert err < (1e-9 if m == 1 else 10 * floor + 1e-12)

    def test_unresolved_double_zero_raises(self):
        # the double zeros at 1 +- 0.4i have a cancellation floor above tol:
        # each came back as two simple zeros 8.3e-7 apart, and the total
        # still matched the disk winding
        g = mul(Exp(Z()), rf_to_expr(UNRESOLVED_CLUSTER))
        with pytest.raises(WindingAmbiguous, match="within tol = 1e-06 of each other"):
            locate_zeros(g, 3.4, tol=1e-6)


def _box_loop(x0, x1, y0, y1):
    return nev._Box(x0, x1, y0, y1, 0).corners()


@st.composite
def _zeros_in_middle_half(draw):
    """(g, zeros, corners): a box of sides 1/2 to 3 anywhere in |Re z| <= 30
    across the real axis, and a monic polynomial g whose 1 to 6 zeros (real,
    or pairs p +- qi from real quadratic factors) all lie in the middle half
    of the box in each direction."""
    x0 = draw(st.floats(-30.0, 30.0))
    w, h = draw(st.floats(0.5, 3.0)), draw(st.floats(0.5, 3.0))
    y0 = -h * draw(st.floats(0.3, 0.7))
    ymid = min(-y0, y0 + h) - h / 4  # room for q above and below the real axis
    px = st.floats(0.25, 0.75).map(lambda s: Fraction(x0 + s * w).limit_denominator(10 ** 6))
    real = draw(st.lists(px, max_size=4))
    pairs = draw(st.lists(st.tuples(px, st.floats(0.0, 1.0).map(
        lambda s: Fraction(s * ymid).limit_denominator(10 ** 6))), max_size=2))
    assume(real or pairs)
    g = Const(1)
    for p in real:
        g = mul(g, sub(Z(), Const(p)))
    for p, q in pairs:
        g = mul(g, add(pow_(sub(Z(), Const(p)), 2), Const(q * q)))
    zeros = [complex(p) for p in real] + [complex(p, s * q) for p, q in pairs for s in (1, -1)]
    return g, zeros, _box_loop(x0, x0 + w, y0, y0 + h)


class TestCentroidStart:
    """The first moment of the winding integral places Newton's start."""

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(_zeros_in_middle_half())
    def test_centroid_is_the_mean_of_the_enclosed_zeros(self, drawn):
        # the trapezoid errors of the two integrals cancel up to the spread
        # of the zeros; zeros nearer the edges or just outside the box leave
        # the centroid off by up to about 1e-3 of the width, which only
        # moves Newton's start
        g, zeros, corners = drawn
        prog = Program([g, g.diff()])
        [w], [centroid] = nev._loop_windings(prog, [corners])
        assert w == len(zeros)
        width = max(abs(corners[1] - corners[0]), abs(corners[2] - corners[1]))
        assert abs(centroid - sum(zeros) / len(zeros)) <= 1e-5 * width

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("at", [Fraction(1, 3), Fraction(-41, 10), Fraction(29, 2)])
    def test_one_zero_is_its_own_centroid(self, m, at):
        # (z - a)^m: both integrals are m times the one of z - a, whatever
        # their quadrature error, so the ratio is a to rounding.  The box
        # is off-centre: the zero is 0.1 of its width from the left edge
        g = pow_(sub(Z(), Const(at)), m)
        corners = _box_loop(float(at) - 0.1, float(at) + 0.9, -0.3, 0.7)
        [w], [centroid] = nev._loop_windings(Program([g, g.diff()]), [corners])
        assert w == m
        assert abs(centroid - float(at)) <= 1e-13 * max(1.0, abs(float(at)))

    def test_no_centroid_without_a_nonzero_winding(self):
        # a box holding no zero winds 0; a loop through a zero never closes
        g = sub(Z(), Const(1))
        prog = Program([g, g.diff()])
        loops = [_box_loop(2.0, 3.0, -0.5, 0.5), _box_loop(0.0, 2.0, 0.0, 2.0),
                 _box_loop(0.5, 1.5, -0.5, 0.5)]
        windings, centroids = nev._loop_windings(prog, loops, cap=512)
        assert windings == [0, None, 1]
        assert centroids[:2] == [None, None] and abs(centroids[2] - 1) <= 1e-15

    @pytest.mark.parametrize("centroid", [
        None, complex(math.nan, 0.5), complex(0.5, math.inf), 1.5 + 0.5j,
        -0.5 + 0.5j, 0.5 + 2.0j, 1.0 + 0.5j, 0.5 + 0j])
    def test_start_falls_back_to_the_centre(self, centroid):
        # outside the box, on its edge or not finite
        box = nev._Box(0.0, 1.0, 0.0, 1.0, 1, centroid)
        assert box.start == 0.5 + 0.5j

    def test_start_at_an_inner_centroid(self):
        box = nev._Box(0.0, 1.0, 0.0, 1.0, 2, 0.1 + 0.9j)
        assert box.start == 0.1 + 0.9j

    @pytest.mark.parametrize("r", [6.256, 20.3, 45.3])
    @pytest.mark.parametrize("target, base", [(2, math.log(2) / 2), (3, math.log(5) / 2)])
    def test_double_zeros_to_their_closed_form(self, target, base, r):
        # conic.prob targets 3 and 4 (indices 2 and 3) compose to
        # (e^(2z) - 2)^2 and (e^(2z) - 5)^2, expanded: double zeros at base + k pi i.  Each
        # candidate keeps its smallest |g|, not its last step, so a double
        # zero lands within 2e-8 (the centre start missed by 6e-8 at r = 45.3)
        spec = load_problem(str(PROBLEMS / "conic.prob"))
        zl = locate_zeros(compose_form(spec.hypersurfaces[target], spec.curve), r, tol=1e-6)
        ks = [k for k in range(-20, 21) if abs(base + k * math.pi * 1j) < r]
        assert sorted(m for _, m in zl.zeros) == [2] * len(ks)
        for k in ks:
            assert min(abs(z - (base + k * math.pi * 1j)) for z, _ in zl.zeros) < 2e-8


class TestZeroFinderWork:
    """Targets are compiled once and winding integrals batched per level."""

    def test_double_zeros_work_and_batch_size(self, monkeypatch):
        # conic.prob target 3 composes to the expanded (e^(2z) - 5)^2, with
        # double zeros at ln(5)/2 + k pi i; near them g cancels down to
        # about 1e-14, so Newton settles within ~1e-8 (the cancellation floor)
        spec = load_problem(str(PROBLEMS / "conic.prob"))
        g = compose_form(spec.hypersurfaces[3], spec.curve)
        sizes = watch_eval_on(monkeypatch)
        zl = locate_zeros(g, 6.0, tol=1e-6)
        assert [m for _, m in zl.zeros] == [2, 2, 2]
        for k in (-1, 0, 1):
            w = math.log(5) / 2 + k * math.pi * 1j
            assert min(abs(z - w) for z, _ in zl.zeros) < 1e-8
        # a tree walk per edge and level took 4492 evaluations
        assert len(sizes) <= 449
        assert max(sizes) <= 16385

    def test_settled_candidates_stop(self, monkeypatch):
        # conic.prob target 3 composes to the expanded (e^(2z) - 2)^2.  Newton
        # reaches each double zero in about three steps, after which its
        # steps shrink by only about 0.84 each in rounding noise; a step of at
        # most tol/4 that is more than half the one before is the last.
        # Candidates that ran on to _NEWTON_CAP made 36 eval_on calls here
        spec = load_problem(str(PROBLEMS / "conic.prob"))
        g = compose_form(spec.hypersurfaces[2], spec.curve)
        polishing, calls = [False], []
        original_eval, original_polish = nev.eval_on, nev._polish_boxes

        def recorded_eval(prog, z):
            calls.append(polishing[0])
            return original_eval(prog, z)

        def recorded_polish(*args):
            polishing[0] = True
            try:
                return original_polish(*args)
            finally:
                polishing[0] = False

        monkeypatch.setattr(nev, "eval_on", recorded_eval)
        monkeypatch.setattr(nev, "_polish_boxes", recorded_polish)
        zl = locate_zeros(g, 6.0, tol=1e-6)
        assert [m for _, m in zl.zeros] == [2, 2, 2]
        for k in (-1, 0, 1):
            w = math.log(2) / 2 + k * math.pi * 1j
            assert min(abs(z - w) for z, _ in zl.zeros) < 1e-8
        assert sum(calls) <= 12 and len(calls) <= 24

    def test_capped_levels_stay_within_batch_size(self, monkeypatch):
        # a zero on the circle keeps the disk winding from converging up to
        # 65536 samples; a loop through a zero never snaps and runs to the
        # per-edge cap with all four edges open
        sizes = watch_eval_on(monkeypatch)
        with pytest.raises(WindingAmbiguous):
            locate_zeros(sub(Z(), Const(2)), 2.0)
        g = sub(Z(), Const(1))
        corners = [0j, 2 + 0j, 2 + 2j, 2j]
        windings, centroids = nev._loop_windings(Program([g, g.diff()]), [corners] * 4)
        assert windings == centroids == [None] * 4
        assert max(sizes) == 16385


def _exp_polys():
    """g = sum_k c_k z^p_k exp(a_k z): up to three terms, small rational rates."""
    fracs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    term = st.tuples(fracs.filter(bool), st.integers(0, 3),
                     st.fractions(min_value=-2, max_value=2, max_denominator=3)).map(
        lambda cpa: mul(mul(Const(cpa[0]), pow_(Z(), cpa[1])), Exp(mul(Const(cpa[2]), Z()))))
    return st.lists(term, min_size=1, max_size=3).map(
        lambda ts: sum(ts[1:], ts[0]))


def _with_zero(g, at):
    """(z - at) * g for a real `at`, or g when `at` is None."""
    return g if at is None else mul(sub(Z(), Const(Fraction(at))), g)


def _zeros_or_error(fn):
    """fn()'s zero list, or the name of the OverflowGuard or
    WindingAmbiguous it raises."""
    try:
        return fn().zeros
    except (OverflowGuard, WindingAmbiguous) as exc:
        return type(exc).__name__


_SNAPS = st.sampled_from([0.25, 1e-9, 1e-13])


def _log_abs_on_circle(g, r):
    prog = Program([g])

    def fn(theta):
        return np.log(np.abs(eval_on(prog, r * np.exp(1j * theta))[0]))

    return fn


def _record_eval_on(monkeypatch):
    """Copies of the point sets of every eval_on call from here on."""
    seen = []
    original = nev.eval_on

    def recorded(prog, z):
        seen.append(np.array(z, dtype=complex))
        return original(prog, z)

    monkeypatch.setattr(nev, "eval_on", recorded)
    return seen


class TestNestedLevels:
    """Each sample level keeps the previous level's values and evaluates only
    the new midpoints; the results are those of the re-evaluating references
    in tests/helpers.py, bit for bit.  Snap tolerances near the rounding
    level make a winding depend on the last bits of its sums."""

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(g=_exp_polys(), r=st.floats(0.2, 4.0), on_circle=st.booleans(),
           start=st.sampled_from([1, 2, 3, 5, 7, 12, 31, 64, 512]),
           doublings=st.integers(0, 7), rel_tol=st.sampled_from([1e-8, 1e-5, 1e-12]))
    def test_circle_quadrature_matches_reference(self, g, r, on_circle, start,
                                                 doublings, rel_tol):
        # a zero at z = r is sampled at theta = 0: log 0 raises OverflowGuard
        fn = _log_abs_on_circle(_with_zero(g, r if on_circle else None), r)
        cap = start * 2 ** doublings
        want = _outcome(lambda: reference_circle_quadrature(fn, start, cap, rel_tol))
        assert _outcome(lambda: nev.circle_quadrature(fn, start, cap, rel_tol)) == want

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(g=_exp_polys(), r=st.floats(0.2, 3.0),
           zero=st.sampled_from([None, 0.5, 1.0, 1.0 + 1e-9]), doublings=st.integers(0, 8),
           snap=_SNAPS)
    def test_circle_winding_matches_reference(self, g, r, zero, doublings, snap):
        # a zero at z = r (non-finite sample) or within 1e-9 r of the circle
        # (no convergence) gives None
        g = _with_zero(g, None if zero is None else zero * r)
        prog = Program([g, g.diff()])
        cap = 256 * 2 ** doublings
        want = _outcome(lambda: reference_circle_winding(prog, r, cap=cap, snap=snap))
        assert _outcome(lambda: nev._circle_winding(prog, r, cap=cap, snap=snap)) == want

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(g=_exp_polys(), x0=st.floats(-2.0, 1.0), y0=st.sampled_from([0.0, 1e-9, -0.7, 0.3]),
           w=st.floats(0.05, 2.0), h=st.floats(0.05, 2.0),
           jx=st.floats(-0.3, 0.3), jy=st.floats(-0.3, 0.3),
           zero=st.sampled_from([None, "corner", "edge"]),
           start=st.sampled_from([1, 2, 3, 5, 8, 32]), doublings=st.integers(0, 11),
           snap=_SNAPS)
    def test_loop_windings_match_reference(self, g, x0, y0, w, h, jx, jy, zero,
                                           start, doublings, snap):
        # with y0 = 0 a real zero lies on the box's lower edge (a corner zero
        # is a non-finite sample, so that loop stays open); with y0 = 1e-9 it
        # lies just below the edge and the winding does not converge
        x1, y1 = x0 + w, y0 + h
        mx, my = x0 + w * (0.5 + jx), y0 + h * (0.5 + jy)
        at = {None: None, "corner": x0, "edge": 0.5 * (x0 + mx)}[zero]
        g = _with_zero(g, at)
        prog = Program([g, g.diff()])
        quads = [(x0, mx, y0, my), (mx, x1, y0, my), (x0, mx, my, y1), (mx, x1, my, y1),
                 (x0, x1, y0, y1)]
        loops = [[complex(a, c), complex(b, c), complex(b, d), complex(a, d)]
                 for a, b, c, d in quads]
        cap = min(start * 2 ** doublings, 16384)
        want = _outcome(lambda: reference_loop_windings(prog, loops, start=start, cap=cap,
                                                        snap=snap))
        got = _outcome(lambda: nev._loop_windings(prog, loops, start=start, cap=cap,
                                                  snap=snap)[0])
        assert got == want

    def test_cached_edge_grids_match_linspace(self):
        # every level size _loop_windings requests at its default start
        n = 32
        while n <= nev._LOOP_CAP:
            full = np.linspace(0.0, 1.0, n + 1)
            weights = full.copy()
            weights[-1] = 0.5
            grids = [(nev._edge_level(n, True), full), (nev._edge_level(n, False), full[1::2]),
                     (nev._moment_weights(n), weights)]
            for got, want in grids:
                assert got.flags.c_contiguous and not got.flags.writeable
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
                with pytest.raises(ValueError):
                    got[0] = 1.0
            n *= 2

    def test_cached_circle_midpoints_match_linspace(self):
        # the levels above every start used here and in the library, up to the cap
        for start in (1, 2, 3, 5, 7, 12, 31, 64, 256, 512):
            n = 2 * start
            while n <= nev.QUADRATURE_CAP:
                got = nev._circle_midpoints(n)
                want = np.linspace(0.0, 2 * math.pi, n, endpoint=False)[1::2]
                assert got.flags.c_contiguous and not got.flags.writeable
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
                with pytest.raises(ValueError):
                    got[0] = 1.0
                n *= 2

    def test_circle_quadrature_needs_a_sample(self):
        # with no samples the level would never grow
        with pytest.raises(ValueError, match="at least 1 sample"):
            nev.circle_quadrature(np.cos, start=0)

    @pytest.mark.parametrize("start, cap, rel_tol", [
        (512, 65536, 1e-8), (3, 3 * 2 ** 10, 1e-8), (1, 64, 0.0), (7, 7, 1e-8)])
    def test_circle_quadrature_samples_each_angle_once(self, start, cap, rel_tol):
        integrand = _log_abs_on_circle(sub(Exp(mul(Const(3), Z())), Const(2)), 2.5)
        thetas = {"new": [], "reference": []}

        def watched(log):
            def fn(theta):
                assert theta.flags.c_contiguous
                log.append(theta.copy())
                return integrand(theta)
            return fn

        got = nev.circle_quadrature(watched(thetas["new"]), start, cap, rel_tol)
        want = reference_circle_quadrature(watched(thetas["reference"]), start, cap, rel_tol)
        assert got == want
        final = thetas["reference"][-1]
        assert sum(len(t) for t in thetas["new"]) == len(final)
        assert np.array_equal(np.sort(np.concatenate(thetas["new"])), final)

    @pytest.mark.parametrize("zero", [Fraction(1, 2), Fraction(2)])
    def test_circle_winding_samples_each_point_once(self, zero, monkeypatch):
        # a zero at 2 lies on the circle |z| = 2 and every level runs
        g = mul(sub(Z(), Const(zero)), sub(Exp(Z()), Const(3)))
        prog = Program([g, g.diff()])
        seen = _record_eval_on(monkeypatch)
        got = nev._circle_winding(prog, 2.0)
        new = np.concatenate(seen)
        seen.clear()
        assert got == reference_circle_winding(prog, 2.0)
        final = np.unique(np.concatenate(seen))  # the levels are nested
        assert len(new) == len(final)
        assert np.array_equal(np.sort(new), final)

    @pytest.mark.parametrize("g, corners, cap", [
        (sub(Exp(Z()), Const(2)), [0.1 - 1j, 1.3 - 1j, 1.3 + 1j, 0.1 + 1j], 16384),
        (sub(Z(), Const(1)), [1 + 0j, 2 + 0j, 2 + 1j, 1 + 1j], 512),  # never closes
    ])
    def test_loop_samples_each_point_once(self, g, corners, cap, monkeypatch):
        prog = Program([g, g.diff()])
        seen = _record_eval_on(monkeypatch)
        got, _ = nev._loop_windings(prog, [corners], cap=cap)
        new = [row for z in seen for row in z]
        seen.clear()
        assert got == reference_loop_windings(prog, [corners], cap=cap)
        final = [row for z in seen for row in z][-4:]  # the last level, edge by edge
        assert sum(len(row) for row in new) == sum(len(row) for row in final)
        for edge, want in enumerate(final):
            points = np.concatenate(new[edge::4])
            assert np.array_equal(np.sort(points), np.sort(want))


def _log_max_on_circle(curve, r):
    def fn(theta):
        return curve.log_max_norm(r * np.exp(1j * theta))

    return fn


_GRID = np.linspace(0.0, 2 * math.pi, 512, endpoint=False)


class TestKinkAwareT:
    """characteristic_T against the 2^20-sample trapezoid of tests/helpers.py.

    The oracle's own error at a kink is about 3e-12 times the jump in slope
    there, so 1e-9 relative leaves room for the drawn curves (slopes up to
    about 50 at r = 8); the trapezoid this path replaces stops at a relative
    change of 1e-8 and misses by about that much.  So a draw with a kink on
    the grid that fell back to the trapezoid would fail the bound: none of
    these does (1 of 300 draws did).  max_examples and the draw sizes are
    bounded for time only: one oracle evaluates 2^20 points.
    """

    @settings(derandomize=True, database=None, max_examples=20, deadline=None)
    @given(components=st.lists(_exp_polys(), min_size=2, max_size=3), r=st.floats(1.5, 8.0))
    # a triple crossing at theta = +-pi/2
    @example(components=[Const(1), Exp(Z()), Exp(mul(Const(2), Z()))], r=7.0)
    # g^2 is the largest component on the whole circle
    @example(components=[Const(1), add(Exp(Z()), Const(Fraction(3, 2))),
                         pow_(add(Exp(Z()), Const(Fraction(3, 2))), 2)], r=5.0)
    # equal moduli: exactly, and up to rounding (the argmax then flips
    # between samples at random)
    @example(components=[Const(1), Exp(Z()), neg(Exp(Z()))], r=5.0)
    @example(components=[Const(1), Exp(mul(Const(2), Z())), mul(Exp(Z()), Exp(Z()))], r=5.0)
    def test_matches_fine_trapezoid(self, components, r):
        curve = EntireCurve(components=tuple(components))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = characteristic_T(curve, r)
        top = curve.moduli(r * np.exp(1j * _GRID)).argmax(axis=0)
        if np.all(top == top[0]):
            # no kink on the grid: the trapezoid path, bit for bit
            assert got == reference_circle_quadrature(_log_max_on_circle(curve, r))
        else:
            want = reference_characteristic_T(curve, r)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    def test_hidden_kink_pair_falls_back(self):
        # At r = 2, Re(z - z^2/4) = 2 cos t - cos 2t peaks at 3/2 at t = +-pi/3
        # with second derivative -3, so |f_1| > 1 exactly where |t -+ pi/3| < 0.1:
        # two bumps, each between two samples of a 16-angle grid, and inside
        # the arc (-pi/2, pi/2) between the kinks of e^-z.  That arc reaches
        # its node cap, and the trapezoid takes the circle.
        a = Fraction(math.exp(-1.5 * (1 - 0.1 ** 2)))
        bump = mul(Const(a), Exp(sub(Z(), mul(Const(Fraction(1, 4)), pow_(Z(), 2)))))
        curve = EntireCurve(components=(Const(1), bump, Exp(neg(Z()))))
        trapezoid = reference_circle_quadrature(_log_max_on_circle(curve, 2.0), 16)
        assert characteristic_T(curve, 2.0, samples=16) == trapezoid
        # the default grid sees both bumps, and their four kinks are located
        want = reference_characteristic_T(curve, 2.0)
        assert abs(characteristic_T(curve, 2.0) - want) <= 1e-9 * abs(want)


_JENSEN_TARGETS = [sub(Exp(Z()), Const(2)), sub(Z(), Const(3)),
                   sub(Exp(mul(Const(2), Z())), mul(Z(), Z()))]


class TestRadiusGrid:
    """One call covers a radius grid, and every radius keeps its own samples
    and stopping rules: each value is that of a one-radius call."""

    @settings(derandomize=True, database=None, max_examples=30, deadline=None)
    @given(components=st.lists(_exp_polys(), min_size=2, max_size=3),
           radii=st.lists(st.floats(1.5, 8.0), min_size=1, max_size=6),
           samples=st.sampled_from([64, 512, 1024]))
    def test_characteristic_matches_one_radius_calls(self, components, radii, samples):
        # 2048 // samples radii share a kink grid.  A radius with no kink on
        # its grid is on the trapezoid path, bit for bit; the arcs' dot
        # products may round differently with other radii's arcs beside them
        curve = EntireCurve(components=tuple(components))
        grid = np.linspace(0.0, 2 * math.pi, samples, endpoint=False)
        got = characteristic_T(curve, radii, samples=samples)
        assert isinstance(got, list) and len(got) == len(radii)
        for r, t in zip(radii, got):
            want = characteristic_T(curve, r, samples=samples)
            assert isinstance(want, float)
            top = curve.moduli(r * np.exp(1j * grid)).argmax(axis=0)
            if np.all(top == top[0]):
                assert t == want
            else:
                assert abs(t - want) <= 1e-15 * max(1.0, abs(want))

    def test_fallback_changes_no_other_radius(self):
        # test_hidden_kink_pair_falls_back's curve: on a 16-angle grid the
        # circle r = 2 falls back to the trapezoid, the others take the arcs
        a = Fraction(math.exp(-1.5 * (1 - 0.1 ** 2)))
        bump = mul(Const(a), Exp(sub(Z(), mul(Const(Fraction(1, 4)), pow_(Z(), 2)))))
        curve = EntireCurve(components=(Const(1), bump, Exp(neg(Z()))))
        radii = [1.5, 2.0, 3.0, 6.0]
        got = characteristic_T(curve, radii, samples=16)
        assert got[1] == reference_circle_quadrature(_log_max_on_circle(curve, 2.0), 16)
        for r, t in zip(radii, got):
            want = characteristic_T(curve, r, samples=16)
            assert abs(t - want) <= 1e-15 * max(1.0, abs(want))

    def test_scale_point_and_one_element_grid(self, monkeypatch):
        curve = load_problem(str(PROBLEMS / "conic.prob")).curve
        sizes = watch_eval_on(monkeypatch)
        radii = np.linspace(5, 45, 400).tolist()
        values = characteristic_T(curve, radii)
        assert max(abs(t - 2 * r / math.pi) for r, t in zip(radii, values)) <= 1e-12
        # 4 radii per group, one evaluation for the grid and one per arc level
        assert len(sizes) <= 400 and max(sizes) <= nev._BATCH_POINTS
        assert characteristic_T(curve, [7.5]) == [characteristic_T(curve, 7.5)]

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(gs=st.lists(st.tuples(_exp_polys(), st.floats(0.2, 4.0)), min_size=1, max_size=4),
           start=st.sampled_from([1, 3, 16, 512]), doublings=st.integers(0, 6),
           rel_tol=st.sampled_from([1e-8, 1e-5, 1e-12]))
    def test_quadrature_rows_match_one_row_calls(self, gs, start, doublings, rel_tol):
        # rows of different integrands stop at different levels; each row's
        # mean is the one-row call's, bit for bit, and the rows raise
        # OverflowGuard exactly when some one-row call does
        fns = [_log_abs_on_circle(g, r) for g, r in gs]
        cap = start * 2 ** doublings

        def rows(theta):
            return np.stack([fn(theta) for fn in fns])

        want = [_outcome(lambda fn=fn: nev.circle_quadrature(fn, start, cap, rel_tol))
                for fn in fns]
        got = _outcome(lambda: nev.circle_quadrature(rows, start, cap, rel_tol))
        if any(isinstance(w, str) for w in want):
            assert isinstance(got, str) and got.startswith("OverflowGuard")
        else:
            assert isinstance(got, np.ndarray) and got.tolist() == want

    def test_quadrature_rows_stop_on_their_own(self):
        # a constant row stops at the second level; e^{3 cos t} needs more
        levels = []

        def rows(theta):
            levels.append(len(theta))
            return np.stack([np.ones_like(theta), np.exp(3 * np.cos(theta))])

        got = nev.circle_quadrature(rows, start=4)
        assert got[0] == 1.0
        assert got[1] == nev.circle_quadrature(lambda t: np.exp(3 * np.cos(t)), start=4)
        assert len(levels) > 2

    @pytest.mark.parametrize("g", _JENSEN_TARGETS)
    def test_jensen_is_the_largest_one_radius_residual(self, g, monkeypatch):
        # one call on several targets, g's rows first, is one quadrature
        # whose rows stop at different levels: the zero of z - 8.05 lies
        # outside the disk the zeros are located on, and so close to the
        # circle r = 8 that its row needs thousands of samples.  The call's
        # residual is the largest one-target, one-radius residual, bit for bit
        radii = [2.0, 3.5, 5.0, 8.0]
        gs = ([g] + [t for t in _JENSEN_TARGETS if t is not g]
              + [sub(Z(), Const(Fraction(161, 20)))])
        zls = [locate_zeros(t, 8 * (1 + 1e-3) + 1e-6) for t in gs]
        singles = [[jensen_check(Program([t]), rk, [zl]) for rk in radii]
                   for t, zl in zip(gs, zls)]
        assert jensen_check(Program([g]), radii, zls[:1]) == max(singles[0])
        levels, original = [], nev.circle_quadrature

        def counted(fn, **kwargs):
            def fn_counted(theta):
                levels[-1] += 1
                return fn(theta)
            levels.append(0)
            return original(fn_counted, **kwargs)

        monkeypatch.setattr(nev, "circle_quadrature", counted)
        for t, zl in zip(gs, zls):
            jensen_check(Program([t]), radii, [zl])
        assert len(set(levels)) > 1
        del levels[:]
        assert jensen_check(Program(gs), radii, zls) == max(map(max, singles))
        assert len(levels) == 1

    def test_jensen_groups_give_the_one_quadrature_means(self, monkeypatch):
        # a grid split into one quadrature per radius gives every (target,
        # radius) row's mean of the one quadrature of the grid, bit for bit
        radii = [2.0, 3.5, 5.0, 8.0]
        gs = _JENSEN_TARGETS + [sub(Z(), Const(Fraction(161, 20)))]
        zls = [locate_zeros(t, 8 * (1 + 1e-3) + 1e-6) for t in gs]
        means, original = [], nev.circle_quadrature

        def recorded(fn, **kwargs):
            means.append(original(fn, **kwargs).reshape(len(gs), -1))
            return means[-1]

        monkeypatch.setattr(nev, "circle_quadrature", recorded)
        runs = {}
        for rows in (len(gs), len(gs) * len(radii)):
            monkeypatch.setattr(nev, "_JENSEN_ROWS", rows)
            del means[:]
            residual = jensen_check(Program(gs), radii, zls)
            runs[rows] = (residual, np.hstack(means).tolist(), len(means))
        split, whole = runs[len(gs)], runs[len(gs) * len(radii)]
        assert (split[2], whole[2]) == (len(radii), 1)
        assert split[:2] == whole[:2]


class TestGenerations:
    """Each generation of boxes is split in one batch.  The zeros and the
    error types are those of the depth-first reference in tests/helpers.py;
    an error names the first failure of the first generation that has one."""

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(g=_exp_polys(), r=st.floats(0.5, 5.0),
           zero=st.sampled_from([None, 0.3, 1.0 - 1e-7]),
           tol=st.sampled_from([1e-2, 1e-6, 1e-9]))
    def test_matches_depth_first_reference(self, g, r, zero, tol):
        # a real zero at 1 - 1e-7 of the radius lies within tolerance of the
        # circle or stops the disk winding from converging.  Polished zeros
        # sit at Newton limits, not at box centres: the counts,
        # multiplicities and error types are the reference's, and each zero
        # lies within tol of a reference zero of the same multiplicity
        g = _with_zero(g, None if zero is None else zero * r)
        with np.errstate(all="ignore"):
            want = _zeros_or_error(lambda: reference_locate_zeros(g, r, tol))
        got = _zeros_or_error(lambda: locate_zeros(g, r, tol))
        if isinstance(want, str) or isinstance(got, str):
            assert got == want
            return
        assert sorted(m for _, m in got) == sorted(m for _, m in want)
        unmatched = list(want)
        for z, m in got:
            near = [k for k, (w, mw) in enumerate(unmatched) if mw == m and abs(z - w) < tol]
            assert near, (z, m, want)
            unmatched.pop(near[0])

    def test_split_failure_names_the_depth_first_box(self, monkeypatch):
        # several boxes of one generation fail to split; this one comes first
        # in frontier order, which within a generation is depth-first order
        monkeypatch.syspath_prepend(str(ROOT / "bench"))
        instances = importlib.import_module("instances")
        spec = parse_problem(instances.pool_entry("conic_curve", 0)[1])
        g = compose_form(spec.hypersurfaces[1], spec.curve)
        with pytest.raises(WindingAmbiguous) as exc:
            locate_zeros(g, 20 * 1.001 + 0.25, tol=1e-6)
        assert str(exc.value) == ("could not split box around "
                                  "(5.243852999999997+0.7350109587999984j) (width 13.4)")

    @pytest.mark.parametrize("text, named", [
        # the triple zero at -1 fails to split first, at index 1 of its
        # generation; the double zero at 1/2, which would fail generations
        # later, is never reached
        ("(z^2 - z + 1/4)*(z^3 + 3*z^2 + 3*z + 1)",
         "(-1.0000009783601684-4.405402083239499e-07j) (width 1.9e-05)"),
        # the triple zero at 1/2 fails at index 0 of its generation
        ("(z^3 - 3/2*z^2 + 3/4*z - 1/8)*(z^2 + 2*z + 1)",
         "(0.5000005331756673+5.734521091992428e-07j) (width 1.01e-05)"),
    ], ids=["later-failure-replaces", "later-boxes-dropped"])
    def test_split_failures_follow_depth_first_order(self, text, named):
        # the first failure of the first generation that has one is named
        # (the test ids keep their depth-first names).  Expanded powers:
        # rounding in the sums stops the boxes around the triple zero near
        # width 1e-5 and those around the double zero near 1e-8
        with pytest.raises(WindingAmbiguous) as exc:
            locate_zeros(parse_curve_expression(text), 2.0, tol=1e-9)
        assert str(exc.value) == f"could not split box around {named}"

    def test_no_box_work_after_a_split_failure(self, monkeypatch):
        # the triple zero at -1 fails to split while the boxes around the
        # double zero at 1/2 are still open; none of them is polished or
        # split after that
        calls = []
        for name in ("_polish_boxes", "_split_boxes"):
            def recorded(prog, boxes, *args, _original=getattr(nev, name), _name=name):
                result = _original(prog, boxes, *args)
                calls.append((_name, None in result))
                return result
            monkeypatch.setattr(nev, name, recorded)
        g = parse_curve_expression("(z^2 - z + 1/4)*(z^3 + 3*z^2 + 3*z + 1)")
        with pytest.raises(WindingAmbiguous, match="could not split box"):
            locate_zeros(g, 2.0, tol=1e-9)
        failed = calls.index(("_split_boxes", True))
        assert failed == len(calls) - 1, calls[failed:]

    def test_circle_message_names_the_depth_first_zero(self):
        # all three zeros lie within 10 tol of the circle.  The simple zero
        # at -1.97 is polished first; the pair 0.012 apart at 1.9184 and
        # 1.9304 shares a box of winding 2, where Newton does not settle,
        # until four generations later, when 1.9304 is polished in a box of
        # its own.  The first zero found is named
        g = mul(mul(sub(Z(), Const(Fraction("1.9184"))), sub(Z(), Const(Fraction("1.9304")))),
                sub(Z(), Const(Fraction("-1.97"))))
        with pytest.raises(WindingAmbiguous) as exc:
            locate_zeros(g, 2.0, tol=0.009)
        assert str(exc.value).startswith("zero at (-1.97+0j) ")

    def test_one_winding_call_per_generation(self, monkeypatch):
        # conic.prob's targets hold 2 to 6 zeros at r = 6; with no split
        # retried, each makes one call for the bounding box, one per
        # generation that splits boxes and one per generation that certifies
        # polished zeros.  Newton starts at the centroid of each box's zeros,
        # so boxes certify generations earlier: from the box centre it took
        # [3, 7, 8, 10] calls and 202 evaluations.  A settled candidate
        # stops stepping: with candidates run on to _NEWTON_CAP it took 114
        spec = load_problem(str(PROBLEMS / "conic.prob"))
        calls = []
        original = nev._loop_windings

        def counted(prog, loops, **kwargs):
            calls.append(len(loops))
            return original(prog, loops, **kwargs)

        monkeypatch.setattr(nev, "_loop_windings", counted)
        sizes = watch_eval_on(monkeypatch)
        counts, totals = [], []
        for Q in spec.hypersurfaces:
            calls.clear()
            totals.append(locate_zeros(compose_form(Q, spec.curve), 6.0, tol=1e-6).total())
            counts.append(len(calls))
        assert totals == [2, 5, 6, 6]
        assert counts == [3, 5, 5, 5]
        assert len(sizes) <= 87


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


def _jensen(g, r):
    """jensen_check with the zeros located on a disk a little wider than r."""
    return jensen_check(Program([g]), r, [locate_zeros(g, r * (1 + 1e-3) + 1e-6)])


class TestJensen:
    def test_exp_minus_two(self):
        assert _jensen(sub(Exp(Z()), Const(2)), 10) < 1e-5

    def test_linear(self):
        # log(10/3) + log 3 = log 10, exactly
        assert _jensen(sub(Z(), Const(3)), 10) < 1e-6

    def test_nonvanishing_exponential(self):
        assert _jensen(Exp(Z()), 5) < 1e-9

    def test_zero_at_origin_rejected(self):
        with pytest.raises(ZeroAtOrigin):
            jensen_check(Program([sub(Exp(Z()), Const(1))]), 5, [ZeroList(zeros=[], radius=5.0)])

    def test_zero_near_circle_stays_accurate(self):
        # |ln 2 + 2 pi i| = 6.3214 is within 0.022 of the radius 6.3: the
        # smoothed quadrature keeps the residual small anyway.
        g = sub(Exp(Z()), Const(2))
        zl = locate_zeros(g, 9, tol=1e-10)
        assert jensen_check(Program([g]), 6.3, [zl]) < 1e-5


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
        rep = smt_margin(f, Qs, n=1, epsilon=0.5, r_grid=[5, 10, 15])
        assert rep.violations == []
        assert all(m >= 0 for m in rep.margins)
        assert rep.jensen_max < 1e-5

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
        rep = smt_margin(f, [x0, x1 - x0.scale(z)], n=1, epsilon=0.5, r_grid=grid)
        assert rep.floor_fit.holds
        assert rep.floor_fit.c2 <= 1.5
        assert min(rep.floor_values) >= -(rep.floor_fit.c1
                                     + rep.floor_fit.c2 * math.log(30)
                                     + 1e-6)

    def test_floor_is_the_running_maximum_over_targets(self):
        # the floor reads _log_ratios one circle at a time; on conic.prob's
        # grid it is, bit for bit, the minimum over 2,048 angles of the
        # running maximum of log|g_j| - d_j log||f|| taken target by target
        spec = load_problem(str(PROBLEMS / "conic.prob"))
        curve, degrees = spec.curve, [Q.degree for Q in spec.hypersurfaces]
        prog = Program([compose_form(Q, curve) for Q in spec.hypersurfaces])
        radii = np.linspace(5, 30, 26).tolist()
        theta = np.linspace(0.0, 2 * math.pi, 2048, endpoint=False)
        want = []
        for r in radii:
            z = r * np.exp(1j * theta)
            log_norm = curve.log_max_norm(z)
            best = None
            for gz, d in zip(eval_on(prog, z), degrees):
                vals = np.log(np.abs(gz)) - d * log_norm
                best = vals if best is None else np.maximum(best, vals)
            want.append(float(np.min(best)))
        assert nev._admissibility_floor(curve, prog, degrees, radii) == want
