"""Tests of the benchmark's own code: generator, checker, self time, counters.

Run from the repository root:  python3 -m pytest bench/test_bench.py -q
"""

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import check  # noqa: E402
import instances  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


@pytest.mark.parametrize("workload", instances.WORKLOADS)
def test_same_seed_gives_identical_problem_text(workload):
    first = instances.generate(workload, 7)
    second = instances.generate(workload, 7)
    assert first == second
    assert first[0], "every workload draws generated instances"


def test_seeds_choose_different_instances():
    drawn = {tuple(sorted(instances.generate("exact_q", s)[0])) for s in range(1, 11)}
    assert len(drawn) > 1


def test_every_generated_job_has_a_reference():
    with open(run.REFERENCES, encoding="utf-8") as fh:
        refs = json.load(fh)
    for workload in instances.WORKLOADS:
        texts, jobs = instances.all_entries(workload)
        for job in jobs:
            fmt = "json" if job.numeric else "text"
            key = check.job_key(job.command, job.flags, fmt, run._problem_text(job, texts))
            assert key in refs, job.name


def test_checker_rejects_perturbed_exact_report():
    report = "== filtration ==\nsum_m: 25\nhilbert_value: 25\n"
    ref = check.reference_entry("filtration", False, 0, report)
    assert check.check_report("filtration", False, 0, report, None, ref) == []
    perturbed = report.replace("25\n", "26\n", 1)
    assert check.check_report("filtration", False, 0, perturbed, None, ref)
    assert check.check_report("filtration", False, 3, report, None, ref)


def test_checker_enforces_invariants_on_exact_reports():
    report = "== filtration ==\nsum_m: 24\nhilbert_value: 25\n"
    ref = check.reference_entry("filtration", False, 0, report)
    problems = check.check_report("filtration", False, 0, report, None, ref)
    assert any("hilbert_value" in p for p in problems)


def _numeric_report(results):
    return json.dumps({"command": "x", "inputs": {"M": 1}, "results": results,
                       "warnings": []})


def _tf_report(values):
    return _numeric_report({"r": [5.0, 10.0], "Tf": values})


def test_checker_rejects_off_tolerance_numeric_report():
    ref = check.reference_entry("tf", True, 0, _tf_report([5.0, 10.0]))
    near = _tf_report([5.0 * (1 + 1e-9), 10.0])
    far = _tf_report([5.0 * (1 + 1e-5), 10.0])
    assert check.check_report("tf", True, 0, near, None, ref) == []
    assert check.check_report("tf", True, 0, far, None, ref)


SMT_RESULTS = {
    "q": 4, "n": 1, "degrees": [2, 2], "zero_counts": [2, 8], "violations": [],
    "jensen_max": 1e-9, "defects": [0.5, 0.1], "defect_sum": 0.6,
    "curve_residual": 0.0, "fmt_constants": [-1.5, 0.9], "fmt_excess": [0.0, 0.7],
    "floor_fit": {"c1": 0.03, "c2": 0.0, "holds": True}, "epsilon": 0.5,
    "admissibility": {"all_admissible": True, "subsets": [{"status": "ADMISSIBLE"}]},
}


def _smt_rejected(change) -> bool:
    ref = check.reference_entry("smt", True, 0, _numeric_report(SMT_RESULTS))
    assert check.check_report("smt", True, 0, _numeric_report(SMT_RESULTS), None, ref) == []
    worse = copy.deepcopy(SMT_RESULTS)
    change(worse)
    return bool(check.check_report("smt", True, 0, _numeric_report(worse), None, ref))


def test_checker_rejects_new_violation_and_large_jensen_residual():
    assert _smt_rejected(lambda r: r.update(violations=[6.0]))
    assert _smt_rejected(lambda r: r.update(jensen_max=2e-5))


def test_checker_compares_embedded_exact_results_and_fits():
    assert _smt_rejected(lambda r: r["admissibility"]["subsets"][0].update(status="NOT"))
    assert _smt_rejected(lambda r: r["floor_fit"].update(holds=False))
    assert _smt_rejected(lambda r: r["floor_fit"].update(c1=0.04))
    assert _smt_rejected(lambda r: r.update(fmt_excess=[0.0, 0.8]))
    ref = check.reference_entry("smt", True, 0, _numeric_report(SMT_RESULTS))
    warned = json.loads(_numeric_report(SMT_RESULTS))
    warned["warnings"] = ["new warning"]
    assert check.check_report("smt", True, 0, json.dumps(warned), None, ref)


def test_checker_compares_defect_traces():
    results = {"defects": [0.7], "defect_sum": 0.7, "n_plus_1": 2,
               "traces": {"target_1": [[5.0, 0.71], [6.0, 0.7]]}}
    ref = check.reference_entry("defects", True, 0, _numeric_report(results))
    off = copy.deepcopy(results)
    off["traces"]["target_1"][0][1] = 0.72
    assert check.check_report("defects", True, 0, _numeric_report(off), None, ref)


def test_failures_are_counted_and_changed_outcomes_are_wrong():
    guard = "numeric guard: found 2 zeros but the disk winding is 3"
    ref = check.reference_entry("smt", True, 4, "", guard)
    # The captured failure, reproduced: a failed job, but not a wrong outcome.
    assert check.failed("smt", 4)
    assert check.check_report("smt", True, 4, "", guard, ref) == []
    # A different failure, or a failure where the reference succeeded, is wrong.
    assert check.check_report("smt", True, 4, "", "numeric guard: other", ref)
    ok = check.reference_entry("tf", True, 0, _tf_report([5.0, 10.0]))
    assert check.check_report("tf", True, None, "", "WindingAmbiguous: x", ok)
    assert check.failed("tf", None)
    # `admissible` answering "no" with exit 3 is an answer, not a failure.
    assert not check.failed("admissible", 3)
    assert check.failed("filtration", 3)


def test_self_time_on_synthetic_span_tree():
    spans = [
        ["root", 0.0, 10.0, None, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 3.0, 6.0, 0, 0],      # overlaps a: union of children is [1, 6]
        ["a.child", 2.0, 3.0, 1, 0],
        ["c", 8.0, 9.5, 0, 0],
    ]
    assert tracing.self_times(spans) == pytest.approx([3.5, 2.0, 3.0, 1.0, 1.5])


def test_one_traced_pass_is_a_problem():
    one = tracing.Tracer()
    assert run.trace_problems([one], "sweep")
    assert any("two" in p for p in run.trace_problems([one], "sweep"))


def test_nested_operators_count_once():
    modules = run._import_nevlab()
    RF = modules["algebra"].RationalFunction
    z, one = RF.z(), RF.from_fraction(1)
    tracer = tracing.Tracer()
    with tracing.Instrumentation(tracer, modules):
        z - one          # implemented as z + (-one)
        one - 2          # constant operands
        2 / z            # __rtruediv__ calls __truediv__
    assert tracer.counts["algebra.RationalFunction.arith_ops"] == 3
    assert tracer.counts["algebra.RationalFunction.nonconstant_ops"] == 2


def _traced_counts(modules, jobs, paths):
    tracer = tracing.Tracer()
    with tracing.Instrumentation(tracer, modules):
        results = run.run_pass(modules, jobs, paths, tracer)
    assert all(r[0] == 0 and r[2] is None for r in results)
    return tracer.counts, results


def test_counters_repeat_across_traced_runs():
    modules = run._import_nevlab()
    originals = {name: getattr(modules["linear"], name)
                 for name in ("row_reduce", "kernel", "preimage_of_subspace")}
    problems = os.path.join(os.path.dirname(HERE), "problems")
    jobs = [instances.Job("filtration", "conic_exact.prob", ("--N", "4")),
            instances.Job("zeros", "conic.prob", ("--target", "2", "--r", "3"))]
    paths = [os.path.join(problems, j.problem) for j in jobs]
    first, out1 = _traced_counts(modules, jobs, paths)
    second, out2 = _traced_counts(modules, jobs, paths)
    assert first == second
    assert first["linear.row_reduce.calls"] > 0
    assert first["nevanlinna.eval_on.calls"] > 0
    assert run._outputs(out1) == run._outputs(out2)
    assert run._outputs(out1) == run._outputs(run.run_pass(modules, jobs, paths))
    for name, fn in originals.items():
        assert getattr(modules["linear"], name) is fn
