"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; shared fixtures build the exact tables and the sweep once.
"""

import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from nevlab.cli import load_problem, run_command
from nevlab.filtration import (
    build_table,
    filtration_basis,
    product_decomposition,
    stabilization_scan,
    weighted_sums,
)
from nevlab.gradedgeom import (
    NOT_ADMISSIBLE_EVIDENCE,
    hilbert_function,
    variety_invariants,
)
from nevlab.expr import Const, Exp, Z, sub
from nevlab.nevanlinna import (
    EntireCurve,
    characteristic_T,
    counting_N,
    locate_zeros,
    smt_margin,
)

from helpers import conic_ideal, p1_ideal, specialize_space, xvar

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def _report(num: int, name: str, ok: bool):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


@pytest.fixture(scope="module")
def conic_instances():
    """Filtration tables for (conic, x0^2) at N in {8, 12, 16}, with the scan."""
    start = time.time()
    J = conic_ideal()
    q = xvar(0) * xvar(0)
    scan = stabilization_scan(J, [q], k_max=8, window=3)
    tables = {N: build_table(J, [q], N, n0=scan.n0, kappa=scan.kappa)
              for N in (8, 12, 16)}
    return {"J": J, "q": q, "scan": scan, "tables": tables,
            "elapsed": time.time() - start}


@pytest.fixture(scope="module")
def p1_instances():
    start = time.time()
    J = p1_ideal()
    q = xvar(0, 2)
    scan = stabilization_scan(J, [q], k_max=6, window=3)
    tables = {N: build_table(J, [q], N, n0=scan.n0, kappa=scan.kappa)
              for N in range(1, 11)}
    return {"J": J, "q": q, "scan": scan, "tables": tables,
            "elapsed": time.time() - start}


@pytest.fixture(scope="module")
def conic_sweep():
    """The full pipeline on the shipped conic problem: admissibility + sweep."""
    start = time.time()
    spec = load_problem(str(PROBLEMS / "conic.prob"))
    adm = run_command("admissible", spec, {})
    grid = [float(r) for r in np.linspace(5, 30, 26)]
    sweep = smt_margin(spec.curve, spec.hypersurfaces, spec.n, 0.5, grid)
    return {"spec": spec, "admissible": adm, "sweep": sweep,
            "elapsed": time.time() - start}


def test_criterion_1_hilbert_conic():
    start = time.time()
    J = conic_ideal()
    values_ok = all(hilbert_function(J, N) == 2 * N + 1 for N in range(1, 11))
    invariants_ok = variety_invariants(J) == (1, 2)
    elapsed = time.time() - start
    _report(1, "conic Hilbert function and invariants",
            values_ok and invariants_ok and elapsed < 5.0)


def test_criterion_2_sum_identity(conic_instances, p1_instances):
    ok = True
    for N, table in p1_instances["tables"].items():
        ok = ok and table.total_m() == table.hilbert_value == N + 1
    for N, table in conic_instances["tables"].items():
        ok = ok and table.total_m() == table.hilbert_value == 2 * N + 1
    runtime_ok = conic_instances["elapsed"] + p1_instances["elapsed"] < 120.0
    _report(2, "sum of cell sizes equals the Hilbert value", ok and runtime_ok)


def test_criterion_3_interior_cells(conic_instances, p1_instances):
    ok = True
    for N in (12, 16):
        table = conic_instances["tables"][N]
        assert table.tau0, "scanned tau0 is empty"
        for I in table.tau0:
            ok = ok and table.cells[I].m == 4
    for N, table in p1_instances["tables"].items():
        for I in table.tau:
            ok = ok and table.cells[I].m == 1
    _report(3, "interior cells carry deg V * d^n", ok)


def test_criterion_4_basis_and_specialization(conic_instances, p1_instances):
    ok = True
    for table in list(p1_instances["tables"].values()) + \
            list(conic_instances["tables"].values()):
        products = filtration_basis(table)  # raises BasisDefect on rank defect
        ok = ok and len(products) == table.hilbert_value
    rng = random.Random(41)
    for table in (p1_instances["tables"][6], conic_instances["tables"][12]):
        spaces = [table.ideal.graded_piece(table.N)] + \
                 [table.cells[I].L for I in table.tau]
        for _ in range(5):
            a = rng.randint(-997, 997)
            for W in spaces:
                ok = ok and specialize_space(W, a).dim == W.dim
    _report(4, "basis rank and specialization stability", ok)


def test_criterion_5_weighted_sums(conic_instances, p1_instances):
    ok = True
    for N, table in p1_instances["tables"].items():
        ws = weighted_sums(table, deg_v=1)
        ok = ok and ws.S[0] == N * (N + 1) // 2
        ok = ok and ws.dominated and ws.symmetric and ws.closed_form
    for N, table in conic_instances["tables"].items():
        ws = weighted_sums(table, deg_v=2)
        ok = ok and ws.dominated and ws.symmetric and ws.closed_form
    _report(5, "weighted sums: dominance and closed form", ok)


def test_criterion_6_product_bookkeeping(conic_instances):
    ok = True
    for N, table in conic_instances["tables"].items():
        pd = product_decomposition(table)
        rep_degrees = sum((rep.degree or 0) for I in table.tau
                          for rep in table.cells[I].reps)
        ok = ok and table.d * sum(pd.exponents) + rep_degrees == \
            N * table.hilbert_value
        ratio = pd.leading_ratio(deg_v=2, d=table.d, n=table.n)
        ok = ok and 0.5 <= ratio <= 1.2
    _report(6, "product decomposition bookkeeping and exponent ratio", ok)


def test_criterion_7_admissibility(conic_sweep):
    adm = conic_sweep["admissible"]
    ok = adm.results["all_admissible"]
    for entry in adm.results["subsets"]:
        ok = ok and entry["succeeded"] == 5 == len(entry["s_values"])
        ok = ok and all(s <= 8 for s in entry["s_values"])
    degenerate = load_problem(str(PROBLEMS / "conic_degenerate.prob"))
    rep = run_command("admissible", degenerate, {})
    entry = rep.results["subsets"][0]
    ok = ok and entry["status"] == NOT_ADMISSIBLE_EVIDENCE
    ok = ok and any("heuristic" in w for w in rep.warnings)
    _report(7, "certificates for the 4-tuple, evidence for the degenerate pair", ok)


def test_criterion_8_nevanlinna_numerics(conic_sweep):
    start = time.time()
    f = EntireCurve(components=(Const(1), Exp(Z())))
    ok = True
    for r in (5, 10, 20):
        t = characteristic_T(f, r)
        ok = ok and abs(t - r / math.pi) <= 1e-6 * (r / math.pi)
    g = sub(Exp(Z()), Const(1))
    zl = locate_zeros(g, 10, tol=1e-10)
    ok = ok and zl.total() == 3 and len(zl.zeros) == 3
    expected = [0j, 2j * math.pi, -2j * math.pi]
    for z, m in zl.zeros:
        ok = ok and m == 1 and min(abs(z - e) for e in expected) < 1e-9
    closed_form = math.log(10) + 2 * math.log(10 / (2 * math.pi))
    ok = ok and abs(counting_N(zl, 10) - closed_form) < 1e-6
    # the standing Jensen oracle over every (target, radius) pair of the sweep
    ok = ok and conic_sweep["sweep"].jensen_max < 1e-5
    elapsed = time.time() - start
    _report(8, "characteristic, zero location, counting, Jensen",
            ok and elapsed < 60.0)


def test_criterion_9_main_inequality_sweep(conic_sweep):
    sweep = conic_sweep["sweep"]
    ok = len(sweep.radii) == 26
    ok = ok and sweep.violations == [] and all(m >= 0 for m in sweep.margins)
    ok = ok and sweep.defect_sum <= sweep.n + 1 + 0.1
    ok = ok and all(e <= 0.1 for e in sweep.fmt_excess)
    ok = ok and conic_sweep["elapsed"] < 600.0
    _report(9, "growth inequality margin, defect relation, counting cap", ok)


def test_sweep_admissibility_floor_recorded(conic_sweep):
    # Not a numbered criterion: the per-instance logarithmic floor for the
    # admissibility diagnostic is recorded and must hold with a small slope.
    fit = conic_sweep["sweep"].floor_fit
    assert fit.holds
    assert fit.c2 <= 1.5
