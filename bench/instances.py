"""Seeded instance generator and job lists for the three benchmark workloads.

Every generated instance is drawn from a finite pool per family: pool entry i
of a family is built from ``random.Random(f"{family}:{i}")``, so the whole
instance space is enumerable and `references.json` holds a captured report
for each job of each entry.  The workload seed only chooses which entries a
run uses, and in which order (see DRAWS).  No entry is kept or dropped by how nevlab handles it; the only
screening is an exact property of the instance itself (a composed sweep
target must not vanish at z = 0, which Jensen's formula needs).

A job is one CLI call: ``nevlab <command> --input <problem> <flags>``.  The
shipped problems in ``problems/`` are used as they are.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("exact_q", "exact_qz", "sweep")
POOL_SIZE = 8

CONIC = ["x0*x2 - x1^2"]
TWISTED_CUBIC = ["x0*x2 - x1^2", "x1*x3 - x2^2", "x0*x3 - x1*x2"]


@dataclass(frozen=True)
class Job:
    """One CLI call; `problem` is a shipped file name or a generated entry name."""

    command: str
    problem: str
    flags: tuple[str, ...] = ()

    @property
    def name(self) -> str:
        return " ".join((self.command, self.problem) + self.flags)

    @property
    def numeric(self) -> bool:
        return self.command in NUMERIC_COMMANDS

    def argv(self, path: str) -> list[str]:
        fmt = "json" if self.numeric else "text"
        return [self.command, "--input", path, *self.flags, "--format", fmt]


NUMERIC_COMMANDS = ("tf", "zeros", "smt", "defects")


# ---------------------------------------------------------------------------
# Problem text.
# ---------------------------------------------------------------------------

def _zpoly(coeffs) -> str:
    """Polynomial in z from ascending integer coefficients, e.g. [1, 0, -2] -> 1 - 2*z^2."""
    parts = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        mono = "" if k == 0 else ("z" if k == 1 else f"z^{k}")
        if not mono:
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}*{mono}"
        parts.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(parts) or "0"
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _form(terms) -> str:
    """Sum of (coefficient text, monomial text) pairs; coefficients are ints or {z-polys}."""
    out = []
    for coeff, mono in terms:
        if isinstance(coeff, int):
            if coeff == 0:
                continue
            sign = "- " if coeff < 0 else "+ "
            body = mono if abs(coeff) == 1 else f"{abs(coeff)}*{mono}"
        else:
            sign, body = "+ ", f"{{{coeff}}}*{mono}"
        out.append(sign + body)
    text = " ".join(out)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def problem_text(title: str, M: int, n: int, generators, targets, curve,
                 options: dict) -> str:
    lines = [f"# {title}", "", "[variety]", f"M = {M}", f"n = {n}", *generators,
             "", "[hypersurfaces]"]
    lines += [f"degree {d}: {body}" for d, body in targets]
    lines += ["", "[curve]", *curve, "", "[options]"]
    lines += [f"{k} = {v}" for k, v in options.items()]
    return "\n".join(lines) + "\n"


def _nonzero(rng: random.Random, lo: int, hi: int) -> int:
    return rng.choice([c for c in range(lo, hi + 1) if c != 0])


# ---------------------------------------------------------------------------
# Families.  Each family function maps (rng, name) to problem text.
# ---------------------------------------------------------------------------

def conic_fixed(rng: random.Random, name: str) -> str:
    """Three constant quadrics a*x0^2 + b*x0*x1 + c*x1^2 + e*x2^2 on the conic."""
    targets = []
    for _ in range(3):
        targets.append((2, _form([(_nonzero(rng, -2, 2), mono)
                                  for mono in ("x0^2", "x0*x1", "x1^2", "x2^2")])))
    return problem_text(f"{name}: constant quadrics on the conic", 2, 1, CONIC,
                        targets, ["1", "exp(z)", "exp(2*z)"],
                        {"kmax": 8, "window": 2, "seed": rng.randint(1, 99),
                         "smax": 8, "trials": 3})


def _linear(rng: random.Random, nvars: int) -> str:
    """A hyperplane with every coefficient nonzero, so every draw has one shape."""
    return _form([(_nonzero(rng, -2, 2), f"x{i}") for i in range(nvars)])


def cubic_fixed(rng: random.Random, name: str) -> str:
    """Three constant hyperplanes on the twisted cubic in P^3."""
    targets = [(1, _linear(rng, 4)) for _ in range(3)]
    return problem_text(f"{name}: constant hyperplanes on the twisted cubic", 3, 1,
                        TWISTED_CUBIC, targets,
                        ["1", "exp(z)", "exp(2*z)", "exp(3*z)"],
                        {"kmax": 6, "window": 2, "seed": rng.randint(1, 99),
                         "smax": 6, "trials": 3})


def plane_fixed(rng: random.Random, name: str) -> str:
    """Three constant lines in P^2 (V = P^2, n = 2)."""
    targets = [(1, _linear(rng, 3)) for _ in range(3)]
    return problem_text(f"{name}: constant lines in the plane", 2, 2, [], targets,
                        ["1", "exp(z)", "exp(2*z)"],
                        {"kmax": 6, "window": 2, "seed": rng.randint(1, 99),
                         "smax": 4, "trials": 3})


def _moving(rng: random.Random, degree: int) -> str:
    """A polynomial in z of the given degree, every coefficient a nonzero small integer."""
    return _zpoly([_nonzero(rng, -2, 2) for _ in range(degree + 1)])


def conic_moving(rng: random.Random, name: str) -> str:
    """Quadrics whose coefficients depend on z, the first like x2^2 - {z^2}*x0*x2."""
    targets = [(2, _form([(1, "x2^2"), (_zpoly([0, 0, _nonzero(rng, -2, 2)]), "x0*x2")]))]
    for _ in range(2):
        targets.append((2, _form([(_moving(rng, 1), "x0^2"),
                                  (rng.randint(-2, 2), "x1^2"),
                                  (_nonzero(rng, -2, 2), "x2^2")])))
    return problem_text(f"{name}: moving quadrics on the conic", 2, 1, CONIC,
                        targets, ["1", "exp(z)", "exp(2*z)"],
                        {"kmax": 6, "window": 2, "seed": rng.randint(1, 99),
                         "smax": 6, "trials": 3})


def line_moving(rng: random.Random, name: str) -> str:
    """Moving points x1 - {p(z)}*x0 on the projective line, as in p1_line.prob."""
    targets = [(1, _form([(1, "x1"), (_moving(rng, 1), "x0")])),
               (1, _form([(1, "x0"), (_moving(rng, 1), "x1")]))]
    return problem_text(f"{name}: moving points on the line", 1, 1, [], targets,
                        ["1", "exp(z)"],
                        {"kmax": 6, "window": 2, "seed": rng.randint(1, 99),
                         "smax": 4, "trials": 3})


def cubic_moving(rng: random.Random, name: str) -> str:
    """Hyperplanes on the twisted cubic, the first x3 - {p(z)}*x0."""
    targets = [(1, _form([(1, "x3"), (_moving(rng, 1), "x0")])),
               (1, _linear(rng, 4)),
               (1, _form([(_moving(rng, 1), "x1"), (_nonzero(rng, -2, 2), "x2")]))]
    return problem_text(f"{name}: moving hyperplanes on the twisted cubic", 3, 1,
                        TWISTED_CUBIC, targets,
                        ["1", "exp(z)", "exp(2*z)", "exp(3*z)"],
                        {"kmax": 6, "window": 2, "seed": rng.randint(1, 99),
                         "smax": 6, "trials": 3})


def conic_curve(rng: random.Random, name: str) -> str:
    """Curve (1 : g : g^2), g = exp(a*z) + shift, with two quadric targets
    a(z)*x0^2 + b*x0*x1 + c*x2^2 whose coefficients are polynomial in z."""
    a = rng.choice([1, -1])
    shift = rng.choice([Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2),
                        Fraction(5, 2), Fraction(3)])
    g0 = 1 + shift  # g(0)
    targets = []
    while len(targets) < 2:
        p = [rng.randint(-3, 3), _nonzero(rng, -1, 1)]
        b = rng.randint(-2, 2)
        c = _nonzero(rng, -2, 2)
        # Jensen's formula needs the composed target to be nonzero at z = 0.
        if p[0] + b * g0 + c * g0 ** 4 == 0:
            continue
        targets.append((2, _form([(_zpoly(p), "x0^2"), (b, "x0*x1"),
                                  (c, "x2^2")])))
    g = f"exp({'' if a == 1 else '-'}z) + {shift}"
    return problem_text(f"{name}: conic curve (1 : g : g^2), g = {g}", 2, 1,
                        CONIC, targets, ["1", g, f"({g})^2"],
                        {"epsilon": 0.5, "r_min": 2, "r_max": 2.5, "r_steps": 2,
                         "kmax": 6, "window": 2, "seed": rng.randint(1, 99),
                         "smax": 6, "trials": 3})


FAMILIES = {
    "conic_fixed": conic_fixed,
    "cubic_fixed": cubic_fixed,
    "plane_fixed": plane_fixed,
    "conic_moving": conic_moving,
    "line_moving": line_moving,
    "cubic_moving": cubic_moving,
    "conic_curve": conic_curve,
}


def pool_entry(family: str, index: int) -> tuple[str, str]:
    """(entry name, problem text) of one pool entry."""
    name = f"{family}_{index}"
    return name, FAMILIES[family](random.Random(f"{family}:{index}"), name)


# ---------------------------------------------------------------------------
# Job lists.  A job list template names shipped problems by file name and
# generated ones by family; `family` jobs apply to every drawn entry.
# ---------------------------------------------------------------------------

SHIPPED_JOBS = {
    "exact_q": [
        Job("hilbert", "conic_exact.prob"),
        Job("admissible", "conic_exact.prob"),
        Job("filtration", "conic_exact.prob", ("--N", "12")),
        Job("product", "conic_exact.prob", ("--N", "12")),
    ],
    "exact_qz": [
        Job("hilbert", "conic.prob"),
        Job("admissible", "conic.prob"),
        Job("admissible", "p1_line.prob"),
        Job("filtration", "p1_line.prob", ("--N", "8")),
    ],
    "sweep": [
        Job("tf", "conic.prob"),
        Job("zeros", "conic.prob", ("--target", "2", "--r", "6")),
        Job("smt", "p1_line.prob", ("--r-steps", "6")),
        Job("smt", "conic.prob", ("--r-max", "6", "--r-steps", "2")),
        Job("defects", "conic.prob", ("--r-max", "6", "--r-steps", "2")),
    ],
}

FAMILY_JOBS = {
    "exact_q": {
        "conic_fixed": [("admissible", ()), ("filtration", ("--N", "8")),
                        ("basis", ("--N", "6"))],
        "cubic_fixed": [("filtration", ("--N", "4"))],
        "plane_fixed": [("filtration", ("--N", "3"))],
    },
    "exact_qz": {
        "conic_moving": [("admissible", ()), ("filtration", ("--N", "8")),
                         ("basis", ("--N", "6"))],
        "line_moving": [("admissible", ()), ("filtration", ("--N", "8"))],
        "cubic_moving": [("admissible", ()), ("filtration", ("--N", "4"))],
    },
    "sweep": {
        "conic_curve": [("tf", ()), ("smt", ())],
    },
}

# Pool entries drawn per family in one run.  The sweep uses every conic
# curve (the seed only orders them): their smt costs differ by up to 2.5x, so
# with two of eight drawn, wall_s spread 0.10 (IQR/median) over ten seeds.
DRAWS = {"exact_q": 1, "exact_qz": 2, "sweep": POOL_SIZE}


def _job_list(workload: str, indices) -> tuple[dict[str, str], list[Job]]:
    """Problem texts of the chosen pool entries and the workload's job list;
    indices(family) gives the entry indices to use."""
    texts: dict[str, str] = {}
    jobs = list(SHIPPED_JOBS[workload])
    for family, templates in FAMILY_JOBS[workload].items():
        for index in indices(family):
            name, text = pool_entry(family, index)
            texts[name] = text
            jobs += [Job(cmd, name + ".prob", flags) for cmd, flags in templates]
    return texts, jobs


def generate(workload: str, seed: int) -> tuple[dict[str, str], list[Job]]:
    """Generated problem texts by entry name, and the workload's job list.

    The same (workload, seed) always gives the same texts and jobs.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    return _job_list(workload, lambda family: rng.sample(range(POOL_SIZE), DRAWS[workload]))


def all_entries(workload: str) -> tuple[dict[str, str], list[Job]]:
    """Every pool entry of the workload's families with its jobs (for references)."""
    return _job_list(workload, lambda family: range(POOL_SIZE))
