"""nevlab benchmark: seeded workloads through the real CLI, checked and timed.

Run from the root of a source checkout:

    python3 bench/run.py --workload exact_q --seed 1 --seconds 30 --trace 0

One process runs one job at a time (a closed loop with one client).  A job is
an in-process call of ``nevlab.cli.main([...])`` on a problem file written
during set-up.  Passes over the workload's job list repeat until the next
one would overrun ``--seconds``; with ``--trace 1`` each plain pass is
followed by a traced one, and at least two of each run.  Every report of
every pass is checked against the references captured in
``references.json``.  Each job's time is the median over its passes, in
reference seconds (see speed.py); ``wall_s`` and ``cpu_s`` sum these over
the job list and ``job_p50_s`` is their median.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  ``failed`` counts
every job that raised, exited with a code that is not an answer, or gave a
report other than its reference; each is listed above the JSON line.
``correct`` is false when any outcome differs from its reference, or when
the traced checks fail; a job that fails exactly as it did when the
references were captured is counted in ``failed`` but does not make the run
incorrect.

Other modes:
    --capture-references   run every job of every pool entry once and rewrite
                           references.json from the current program
    --series               print the scaling series (filtration N = 8..24 on
                           conic_exact.prob, smt and zeros for r_max = 10..45
                           on conic.prob) as JSON
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
PROBLEMS = os.path.join(ROOT, "problems")
WORK = os.path.join(ROOT, ".bench_work")
REFERENCES = os.path.join(BENCH_DIR, "references.json")
SETUP_REPEATS = 9

sys.path.insert(0, BENCH_DIR)

import check  # noqa: E402
import instances  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _import_nevlab():
    sys.path.insert(0, SRC)
    from nevlab import algebra, cli, filtration, gradedgeom, linear, nevanlinna
    return {"cli": cli, "filtration": filtration, "gradedgeom": gradedgeom,
            "linear": linear, "nevanlinna": nevanlinna, "algebra": algebra}


# ---------------------------------------------------------------------------
# Set-up: what a user pays before the first report.
# ---------------------------------------------------------------------------

def _problem_text(job, texts) -> str:
    generated = texts.get(job.problem[: -len(".prob")])
    if generated is not None:
        return generated
    with open(os.path.join(PROBLEMS, job.problem), encoding="utf-8") as fh:
        return fh.read()


def _path(job, texts, workdir) -> str:
    generated = job.problem[: -len(".prob")] in texts
    return os.path.join(workdir if generated else PROBLEMS, job.problem)


def set_up(workload: str, seed: int, workdir: str):
    """Interpreter start and nevlab import in a fresh process, then instance
    generation and problem files; repeated, with the median reported in
    reference seconds and in measured seconds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    times, scaled = [], []
    for _ in range(SETUP_REPEATS):
        before = speed.calibrate()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import nevlab.cli"], env=env,
                       cwd=ROOT, check=True)
        texts, jobs = instances.generate(workload, seed)
        os.makedirs(workdir, exist_ok=True)
        for name, text in texts.items():
            with open(os.path.join(workdir, name + ".prob"), "w", encoding="utf-8") as fh:
                fh.write(text)
        times.append(time.perf_counter() - t0)
        scaled.append(speed.scaled(times[-1], (before + speed.calibrate()) / 2))
    paths = [_path(j, texts, workdir) for j in jobs]
    return statistics.median(scaled), statistics.median(times), texts, jobs, paths


# ---------------------------------------------------------------------------
# Passes.
# ---------------------------------------------------------------------------

def run_job(cli, job, path):
    """(exit code, stdout, error, wall seconds, cpu seconds) of one CLI call;
    error is the exception a call raised (exit code None), or what a call
    with a nonzero exit code wrote to stderr."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    error = None
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(job.argv(path))
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a job that raises is counted and listed, not fatal
        rc, error = None, f"{type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    if rc != 0 and error is None:
        error = err.getvalue().strip() or None
    return rc, out.getvalue(), error, wall, cpu


def run_pass(modules, jobs, paths, tracer=None):
    """run_job's result for each job, with the calibration time beside it appended."""
    cli = modules["cli"]
    results = []
    before = speed.calibrate()
    for i, (job, path) in enumerate(zip(jobs, paths)):
        if tracer is not None:
            tracer.job = i
        result = run_job(cli, job, path)
        after = speed.calibrate()
        results.append(result + ((before + after) / 2,))
        before = after
    return results


def check_pass(jobs, texts, results, references, problems, failures, tag):
    """Check one pass against the references.  Outcomes that differ from the
    reference go to `problems` (the run is then not correct); failed jobs are
    tallied in the Counter `failures`.  Returns the number of failed jobs."""
    failed = 0
    for job, (rc, report, error, *_) in zip(jobs, results):
        fmt = "json" if job.numeric else "text"
        key = check.job_key(job.command, job.flags, fmt, _problem_text(job, texts))
        wrong = check.check_report(job.command, job.numeric, rc, report, error,
                                   references.get(key))
        if wrong:
            problems.append(f"{tag} {job.name}: {'; '.join(wrong)}")
        if wrong or check.failed(job.command, rc):
            failed += 1
            failures[f"{job.name}: exit {rc}" + (f" ({error})" if error else "")
                     + ("" if wrong else ", as in the reference")] += 1
    return failed


def _median(values):
    return statistics.median(values) if values else 0.0


WALL, CPU, CAL = 3, 4, 5  # fields of a run_pass result


def per_job_median(passes, field, scale=True):
    """Per job, the median over passes of `field` (WALL or CPU), in reference
    seconds unless scale is false."""
    return [_median([speed.scaled(p[j][field], p[j][CAL]) if scale else p[j][field]
                     for p in passes]) for j in range(len(passes[0]))]


def _outputs(results):
    return [(rc, report) for rc, report, *_ in results]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=instances.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--capture-references", action="store_true")
    ap.add_argument("--series", action="store_true")
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "nevlab")) or not os.path.isdir(PROBLEMS):
        return _fail(f"no nevlab source tree (src/nevlab, problems/) under {ROOT}")
    try:
        modules = _import_nevlab()
    except ImportError as exc:
        return _fail(f"cannot import nevlab: {exc}")
    if args.capture_references:
        return capture_references(modules)
    if args.series:
        print(json.dumps(series(modules), indent=2))
        return 0
    if args.workload is None:
        return _fail("--workload is required")
    try:
        with open(REFERENCES, encoding="utf-8") as fh:
            references = json.load(fh)
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read {REFERENCES}: {exc}")
    return measure(modules, references, args.workload, args.seed, args.seconds,
                   bool(args.trace))


def trace_problems(tracers, workload) -> list[str]:
    """Problems with a run's traced passes: fewer than two (so the counters
    could not be compared), counters that differ, or listed functions that
    recorded no call."""
    if len(tracers) < 2:
        return [f"{len(tracers)} traced pass(es); counters need two to be compared"]
    problems = []
    if any(t.counts != tracers[0].counts for t in tracers[1:]):
        problems.append("trace counters differ between traced passes")
    problems += [f"traced run recorded no call of {name}"
                 for name in tracers[0].missing_calls(workload)]
    return problems


def measure(modules, references, workload, seed, seconds, traced) -> int:
    workdir = os.path.join(WORK, f"{workload}-{seed}")
    setup_s, setup_measured, texts, jobs, paths = set_up(workload, seed, workdir)

    # A traced run always makes two traced passes, so its counters can be
    # compared, whatever --seconds allows.
    min_rounds = 2 if traced else 1
    start = time.perf_counter()
    plain, traced_passes, tracers = [], [], []
    problems: list[str] = []
    failures: Counter = Counter()
    attempted = failed = 0
    while True:
        res = run_pass(modules, jobs, paths)
        plain.append(res)
        attempted += len(res)
        failed += check_pass(jobs, texts, res, references, problems, failures,
                             f"pass {len(plain)}")
        if traced:
            tracer = tracing.Tracer()
            with tracing.Instrumentation(tracer, modules):
                res_t = run_pass(modules, jobs, paths, tracer)
            traced_passes.append(res_t)
            tracers.append(tracer)
            attempted += len(res_t)
            failed += check_pass(jobs, texts, res_t, references, problems, failures,
                                 f"traced pass {len(traced_passes)}")
            if _outputs(res_t) != _outputs(res):
                problems.append("traced reports differ from untraced ones")
        elapsed = time.perf_counter() - start
        step = sum(r[WALL] + r[CAL] for r in res + (res_t if traced else []))
        if len(plain) >= min_rounds and elapsed + step > seconds:
            break

    if any(_outputs(p) != _outputs(plain[0]) for p in plain[1:]):
        problems.append("reports differ between passes")

    job_wall = per_job_median(plain, WALL)
    if traced:
        problems += trace_problems(tracers, workload)
        per_pass = [t.metrics() for t in tracers]
        # Counters are identical across traced passes (checked above); times vary.
        values = {k: _median([m[k] for m in per_pass]) if k.endswith("_s") or k.endswith(".s")
                  else per_pass[0][k] for k in per_pass[0]}
        values["trace.overhead_ratio"] = sum(per_job_median(traced_passes, WALL)) / sum(job_wall)
        os.makedirs(WORK, exist_ok=True)
        tracers[0].write_spans(os.path.join(WORK, f"trace-{workload}-{seed}.jsonl"))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in tracing.PER_LAYER}
    else:
        metrics = {
            "wall_s": {"value": sum(job_wall), "unit": "s"},
            "cpu_s": {"value": sum(per_job_median(plain, CPU)), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }

    pass_wall = [sum(r[WALL] for r in p) for p in plain]
    print(f"workload {workload}, seed {seed}: {len(jobs)} jobs per pass, "
          f"{len(plain)} passes{f' + {len(traced_passes)} traced' if traced else ''}; "
          f"measured pass wall s: {' '.join(f'{w:.3f}' for w in pass_wall)}; "
          f"calibration median {1000 * _median([r[CAL] for p in plain for r in p]):.1f} ms "
          f"(reference {1000 * speed.CAL_REF_S:.1f} ms)")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if not traced:
        print(f"  job_p50_s = {_median(job_wall):.6g} s (median of {len(jobs)} per-job medians)")
        print(f"  measured: wall_s = {sum(per_job_median(plain, WALL, False)):.6g} s, "
              f"setup_s = {setup_measured:.6g} s")
    print(f"  failed_ratio = {failed / attempted:.6g} ({failed} of {attempted} jobs)")
    passes = len(plain) + len(traced_passes)
    for line, count in failures.items():
        print(f"  FAILED in {count} of {passes} passes: {line}")
    for line in problems:
        print(f"  WRONG {line}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# References and the scaling series.
# ---------------------------------------------------------------------------

def capture_references(modules) -> int:
    """Run every job of every pool entry once and write references.json."""
    refs = {}
    workdir = os.path.join(WORK, "references")
    os.makedirs(workdir, exist_ok=True)
    for workload in instances.WORKLOADS:
        texts, jobs = instances.all_entries(workload)
        for name, text in texts.items():
            with open(os.path.join(workdir, name + ".prob"), "w", encoding="utf-8") as fh:
                fh.write(text)
        for job in jobs:
            text = _problem_text(job, texts)
            rc, report, error, wall, _ = run_job(modules["cli"], job,
                                                 _path(job, texts, workdir))
            fmt = "json" if job.numeric else "text"
            key = check.job_key(job.command, job.flags, fmt, text)
            refs[key] = {"job": job.name, **check.reference_entry(
                job.command, job.numeric, rc, report, error)}
            status = error or f"exit {rc}"
            print(f"{workload:8s} {wall:7.3f}s {status:8s} {job.name}", flush=True)
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def series(modules) -> dict:
    """Per-job time along N (exact) and r_max (numeric) on shipped problems,
    measured and in reference seconds."""
    cli = modules["cli"]
    points = [("filtration_conic_exact", "N", N, instances.Job(
                  "filtration", "conic_exact.prob", ("--N", str(N))))
              for N in (8, 12, 16, 20, 24)]
    for r in (10, 20, 30, 45):
        points.append(("smt_conic", "r_max", r, instances.Job(
            "smt", "conic.prob", ("--r-max", str(r), "--r-steps", "6"))))
        points.append(("zeros_conic_target2", "r", r, instances.Job(
            "zeros", "conic.prob", ("--target", "2", "--r", str(r)))))
    out: dict[str, list] = {}
    for series_name, key, value, job in points:
        before = speed.calibrate()
        rc, _, error, wall, _ = run_job(cli, job, os.path.join(PROBLEMS, job.problem))
        cal = (before + speed.calibrate()) / 2
        out.setdefault(series_name, []).append(
            {key: value, "s": wall, "ref_s": speed.scaled(wall, cal), "exit": rc,
             "error": error})
    return out


if __name__ == "__main__":
    sys.exit(main())
