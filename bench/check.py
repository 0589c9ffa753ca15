"""Output checker: every report against the reference captured for its job.

Exact reports (text format) must be byte-identical to the reference and
satisfy the paper's invariants (sum of m = H_V(N) for `filtration`, the
degree identity for `product`).  Numeric reports (json format) must match
the reference's integer fields and their exact parts (inputs, warnings, the
embedded exact admissibility results) exactly, and its floats within the
acceptance gate's tolerances.

Two questions are kept apart.  `check_report` asks whether a job's outcome
is the one captured at the reference commit; `failed` asks whether the call
failed as an operation (it raised, or exited with a code that is not an
answer).  A failure that reproduces the reference exactly is still counted
as a failed job; a different outcome is a wrong one.
"""

from __future__ import annotations

import hashlib
import json

TF_REL_TOL = 1e-6       # T_f relative tolerance (acceptance criterion 8)
JENSEN_MAX = 1e-5       # Jensen residual ceiling (acceptance criterion 8)
DEFECT_ABS_TOL = 1e-5   # defects are 1 - N/(dT); N is checked to 1e-6 in the gate
ZERO_ABS_TOL = 1e-5     # zero locations; boxes are 1e-6 wide
EXIT_OK = 0
EXIT_NOT_ADMISSIBLE = 3  # `admissible` answering "no" (any other command: a precondition failure)


def job_key(command: str, flags, fmt: str, problem_text: str) -> str:
    """Reference key: the call and the problem file's content, not its path."""
    blob = json.dumps([command, list(flags), fmt,
                       hashlib.sha256(problem_text.encode()).hexdigest()])
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _text_fields(report: str) -> dict[str, str]:
    fields = {}
    for line in report.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key not in fields:
            fields[key] = value
    return fields


def numeric_fields(command: str, report: str) -> dict:
    """The fields of a json report that the checker compares.

    "exact" is a digest of the parts that must not change at all: the echoed
    inputs, the warnings, and whatever else of the results is not a float.
    """
    doc = json.loads(report)
    res = doc["results"]
    exact = {"inputs": doc["inputs"], "warnings": doc["warnings"]}
    if command == "tf":
        fields = {"r": res["r"], "Tf": res["Tf"]}
    elif command == "zeros":
        exact.update(r=res["r"], target=res["target"])
        fields = {"count": res["count"],
                  "zeros": [[z["re"], z["im"], z["mult"]] for z in res["zeros"]]}
    elif command == "smt":
        keep = ("q", "n", "degrees", "zero_counts", "violations", "jensen_max",
                "defects", "defect_sum", "curve_residual", "fmt_constants",
                "fmt_excess")
        fields = {k: res[k] for k in keep}
        fields["floor_fit"] = [res["floor_fit"]["c1"], res["floor_fit"]["c2"]]
        exact.update(admissibility=res["admissibility"], epsilon=res["epsilon"],
                     floor_holds=res["floor_fit"]["holds"])
    elif command == "defects":
        fields = {k: res[k] for k in ("defects", "defect_sum", "n_plus_1")}
        fields["trace_r"] = {k: [p[0] for p in v] for k, v in res["traces"].items()}
        fields["trace_defects"] = [p[1] for _, v in sorted(res["traces"].items())
                                   for p in v]
    else:
        raise ValueError(f"no numeric fields for command {command!r}")
    fields["exact"] = digest(json.dumps(exact, sort_keys=True))
    return fields


def reference_entry(command: str, numeric: bool, rc, report: str,
                    error: str | None = None) -> dict:
    entry = {"exit": rc, "error": error}
    if numeric and rc == EXIT_OK:
        entry["fields"] = numeric_fields(command, report)
    else:
        entry["sha256"] = digest(report)
    return entry


def failed(command: str, rc) -> bool:
    """Whether a call failed as an operation: it raised (rc is None), or its
    exit code is not an answer (anything but 0, and 3 from `admissible`)."""
    return not (rc == EXIT_OK or (command == "admissible" and rc == EXIT_NOT_ADMISSIBLE))


def _close(a: float, b: float, rel: float = 0.0, abs_: float = 0.0) -> bool:
    return abs(a - b) <= max(abs_, rel * max(abs(a), abs(b)))


def _compare_numeric(command: str, got: dict, ref: dict) -> list[str]:
    problems = []

    def exact(key):
        if got[key] != ref[key]:
            problems.append(f"{key} {got[key]} != reference {ref[key]}")

    def floats(key, rel=0.0, abs_=0.0):
        a, b = got[key], ref[key]
        a, b = (a, b) if isinstance(a, list) else ([a], [b])
        if len(a) != len(b) or not all(_close(x, y, rel, abs_) for x, y in zip(a, b)):
            problems.append(f"{key} outside tolerance of the reference")

    if got["exact"] != ref["exact"]:
        problems.append("inputs, warnings or exact results differ from the reference")
    if command == "tf":
        exact("r")
        floats("Tf", rel=TF_REL_TOL)
    elif command == "zeros":
        exact("count")
        unmatched = list(ref["zeros"])
        for re_, im, mult in got["zeros"]:
            hit = next((z for z in unmatched if z[2] == mult
                        and abs(complex(re_, im) - complex(z[0], z[1])) <= ZERO_ABS_TOL),
                       None)
            if hit is None:
                problems.append(f"zero {re_:+.9f}{im:+.9f}i (mult {mult}) not in reference")
                break
            unmatched.remove(hit)
    elif command == "smt":
        for key in ("q", "n", "degrees", "zero_counts"):
            exact(key)
        new = [r for r in got["violations"] if r not in ref["violations"]]
        if new:
            problems.append(f"new margin violations at r = {new}")
        if not got["jensen_max"] < JENSEN_MAX:
            problems.append(f"jensen_max {got['jensen_max']:.3g} >= {JENSEN_MAX}")
        floats("defects", abs_=DEFECT_ABS_TOL)
        floats("defect_sum", abs_=DEFECT_ABS_TOL)
        # Quantities derived from T_f and N(r).
        for key in ("curve_residual", "fmt_constants", "fmt_excess", "floor_fit"):
            floats(key, rel=TF_REL_TOL, abs_=DEFECT_ABS_TOL)
    elif command == "defects":
        exact("n_plus_1")
        exact("trace_r")
        floats("defects", abs_=DEFECT_ABS_TOL)
        floats("defect_sum", abs_=DEFECT_ABS_TOL)
        floats("trace_defects", abs_=DEFECT_ABS_TOL)
    return problems


def _invariants(command: str, report: str) -> list[str]:
    fields = _text_fields(report)
    if command == "filtration" and fields.get("sum_m") != fields.get("hilbert_value"):
        return [f"sum_m {fields.get('sum_m')} != hilbert_value {fields.get('hilbert_value')}"]
    if command == "product" and fields.get("degree_identity") != "True":
        return ["degree_identity does not hold"]
    return []


def check_report(command: str, numeric: bool, rc, report: str, error: str | None,
                 ref: dict | None) -> list[str]:
    """How one job's outcome differs from its reference; an empty list means
    it is the captured one (which may itself be a failure, see `failed`)."""
    if ref is None:
        return ["no captured reference for this job"]
    if (rc, error) != (ref["exit"], ref["error"]):
        def outcome(code, err):
            return f"exit {code}" + (f" ({err})" if err else "")
        return [f"{outcome(rc, error)}, reference {outcome(ref['exit'], ref['error'])}"]
    if "sha256" in ref:
        problems = [] if digest(report) == ref["sha256"] else [
            "report differs from the reference bytes"]
    else:
        try:
            got = numeric_fields(command, report)
        except (ValueError, KeyError) as exc:
            return [f"unreadable report: {exc!r}"]
        problems = _compare_numeric(command, got, ref["fields"])
    if rc == EXIT_OK and not numeric:
        problems += _invariants(command, report)
    return problems
