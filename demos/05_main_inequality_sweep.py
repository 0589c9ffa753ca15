"""The full pipeline on the shipped conic instance.

Loads problems/conic.prob, verifies the preconditions (declared dimension,
admissibility with certificates, curve membership), sweeps the growth
inequality

    sum_j N_f(r, Q_j) / d_j  >=  (q - n - 1 - epsilon) * T_f(r)

over the radius grid, and reports defect estimates against the bound n + 1,
the first-main-theorem cap N_f <= d*T_f + C, and the per-radius
admissibility floor.  Writes the sweep as CSV to the working directory.
"""

from pathlib import Path

from nevlab.cli import emit_report, load_problem, run_command

here = Path(__file__).resolve().parent
spec = load_problem(str(here.parent / "problems" / "conic.prob"))

print("== preconditions ==")
adm = run_command("admissible", spec, {})
for entry in adm.results["subsets"]:
    print(f"  subset {entry['subset']}: {entry['status']}, "
          f"certificates at s = {entry['s_values']}")
print("all admissible:", adm.results["all_admissible"])

print()
print("== sweep ==")
report = run_command("smt", spec, {})
res = report.results
print(f"curve residual on V: {res['curve_residual']:.2e}")
print(f"zeros located per target: {res['zero_counts']}")
print(f"defects: {[f'{d:.4f}' for d in res['defects']]}  "
      f"sum = {res['defect_sum']:.4f}  (bound n+1 = {spec.n + 1})")
print(f"margin violations: {res['violations'] or 'none'}")
print(f"max Jensen residual over all (target, radius) pairs: {res['jensen_max']:.2e}")
print(f"counting caps C_j: {[f'{c:.3f}' for c in res['fmt_constants']]}")
print(f"max cap excess:    {[f'{e:.4f}' for e in res['fmt_excess']]}")

header, rows = report.table
print()
print("r, T_f, margin at a few radii:")
for row in rows[::5]:
    print(f"  r = {row[0]:5.1f}   T_f = {row[1]:8.4f}   margin = {row[-2]:8.4f}")

out = Path("sweep_conic.csv").resolve()
out.write_bytes(emit_report(report, "csv"))
print(f"\nfull CSV written to {out}")
