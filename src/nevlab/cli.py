"""Problem-file parsing, command dispatch, and report emission.

One plain-text input format with named sections drives the whole laboratory:

    [variety]         M = ..., n = ..., then one homogeneous generator per line
    [hypersurfaces]   lines `degree <d>: <polynomial>` with Q(z) coefficients
    [curve]           M+1 entire expressions in z, one per line
    [options]         key = value defaults (N, epsilon, r_min, ..., seed)

OPTIONS declares every settable value once: its type, its default, and
whether it is set as a --flag, in [options], or both.  `target` and `r` are
flags only, `residual_tol` is an [options] key only, and any other [options]
key is a parse error, as is a value not of its key's type (an integer, or for
a float key an integer or a finite number).  A flag overrides the file's
value.

Polynomials, their `{...}` coefficients and curve expressions are three uses
of one grammar: `+ -` bind loosest, then products, then `^ nat`, and an atom is
a parenthesised expression, a unary minus, or a leaf.  The uses differ only in
their products and leaves:

    polynomial   *     rationals p/q, x0..xM, `{coefficient}` (targets only)
    coefficient  * /   rationals p/q, z
    curve        *     rationals p/q, z, exp(curve)

Curve expressions have no division because their components are entire.
Parsing builds them as `expr` trees; the numeric commands (tf, zeros, smt,
defects) compile the curve on first use and import nevanlinna, and numpy
with it, only then.  The exact commands never read the curve.

Exit codes: 0 success, 2 parse error (for a numeric command, also a curve
whose components all vanish at the probe points), 3 precondition failure
(e.g. a non-admissible system), 4 numeric guard trip (overflow, ambiguous
winding, a zero cluster that tol cannot resolve).
"""

from __future__ import annotations

import argparse
import io
import json
import math
import re
import sys
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from functools import cache, cached_property
from typing import Callable, NamedTuple

from . import filtration as filt
from . import gradedgeom as gg
from .algebra import (
    RATIONAL,
    RATIONAL_FUNCTION,
    InhomogeneousInput,
    MultiPoly,
    PoleAtPoint,
    RationalFunction,
    normalize_degrees,
)
from .expr import (
    Const,
    DegenerateCurve,
    Exp,
    Expr,
    IdenticallyZero,
    NonPolynomialCoefficient,
    OverflowGuard,
    WindingAmbiguous,
    Z,
    ZeroAtOrigin,
    ZeroCharacteristic,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_NUMERIC = 4


class ProblemSyntaxError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class DegreeMismatchError(ValueError):
    pass


class ArityMismatchError(ValueError):
    pass


class PreconditionError(RuntimeError):
    pass


class UnknownCommand(ValueError):
    pass


class UnsupportedFormat(ValueError):
    pass


# ---------------------------------------------------------------------------
# Tokenizer and recursive-descent parsers.
# ---------------------------------------------------------------------------

@dataclass
class _Token:
    kind: str  # NUM, NAME, or a single symbol
    value: str
    line: int
    col: int


# A natural number, a name, a symbol, or one stray non-space character.
_TOKEN = re.compile(r"(?P<NUM>[0-9]+)|(?P<NAME>[A-Za-z][A-Za-z0-9_]*)|(?P<SYM>[-+*/^(){}])|\S")


def _tokenize(text: str, line_offset: int = 1) -> list[_Token]:
    tokens = []
    for m in _TOKEN.finditer(text):
        start = m.start()
        line = line_offset + text.count("\n", 0, start)
        col = start - text.rfind("\n", 0, start)
        if m.lastgroup is None:
            raise ProblemSyntaxError(f"unexpected character {m[0]!r}", line, col)
        tokens.append(_Token(m[0] if m.lastgroup == "SYM" else m.lastgroup, m[0], line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], end_line: int):
        self.tokens = tokens
        self.pos = 0
        self.end_line = end_line

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise ProblemSyntaxError("unexpected end of input", self.end_line, 1)
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise ProblemSyntaxError(f"expected {kind!r}, found {tok.value!r}",
                                     tok.line, tok.col)
        return tok

    def at(self, kind: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == kind

    def done(self) -> bool:
        return self.pos >= len(self.tokens)

    def error(self, message: str):
        tok = self.peek()
        if tok is None:
            raise ProblemSyntaxError(message, self.end_line, 1)
        raise ProblemSyntaxError(message, tok.line, tok.col)


def _parse_nat(p: _Parser) -> int:
    return int(p.expect("NUM").value)


def _parse_rational(p: _Parser) -> Fraction:
    num = int(p.expect("NUM").value)
    if p.at("/") and p.pos + 1 < len(p.tokens) and p.tokens[p.pos + 1].kind == "NUM":
        p.next()
        den = int(p.expect("NUM").value)
        if den == 0:
            p.error("zero denominator in rational literal")
        return Fraction(num, den)
    return Fraction(num)


# -- one expression grammar ---------------------------------------------------
#
#   expr   := term (("+" | "-") term)*
#   term   := factor (product factor)*
#   factor := atom ("^" nat)?
#   atom   := "(" expr ")" | "-" factor | leaf
#
# Values combine with Python operators, so one chain builds RationalFunction,
# MultiPoly and expr.Expr values alike.

@dataclass(frozen=True)
class _Grammar:
    noun: str
    products: tuple[str, ...]
    leaf: Callable  # (parser, token) -> value, or None if the token is no leaf


def _expr(p: _Parser, g: _Grammar):
    acc = _term(p, g)
    while p.at("+") or p.at("-"):
        op = p.next().kind
        rhs = _term(p, g)
        acc = acc + rhs if op == "+" else acc - rhs
    return acc


def _term(p: _Parser, g: _Grammar):
    acc = _factor(p, g)
    while any(p.at(op) for op in g.products):
        op = p.next().kind
        rhs = _factor(p, g)
        if op == "*":
            acc = acc * rhs
        elif rhs.is_zero:
            p.error(f"division by zero in {g.noun}")
        else:
            acc = acc / rhs
    return acc


def _factor(p: _Parser, g: _Grammar):
    base = _atom(p, g)
    if p.at("^"):
        p.next()
        base = base ** _parse_nat(p)
    return base


def _atom(p: _Parser, g: _Grammar):
    tok = p.peek()
    if tok is None:
        p.error(f"unexpected end of {g.noun}")
    if tok.kind == "(":
        p.next()
        inner = _expr(p, g)
        p.expect(")")
        return inner
    if tok.kind == "-":
        p.next()
        return -_factor(p, g)
    value = g.leaf(p, tok)
    if value is None:
        what = "name" if tok.kind == "NAME" else "token"
        p.error(f"unexpected {what} {tok.value!r} in {g.noun}")
    return value


def _parse(text: str, line: int, g: _Grammar):
    p = _Parser(_tokenize(text, line), line)
    value = _expr(p, g)
    if not p.done():
        p.error(f"trailing input after {g.noun}")
    return value


def _coefficient_leaf(p: _Parser, tok: _Token) -> RationalFunction | None:
    if tok.kind == "NUM":
        return RationalFunction.from_fraction(_parse_rational(p))
    if tok.kind == "NAME":
        if tok.value != "z":
            p.error(f"unexpected name {tok.value!r} in coefficient (only z is allowed)")
        p.next()
        return RationalFunction.z()
    return None


_COEFFICIENT = _Grammar("coefficient", ("*", "/"), _coefficient_leaf)


def parse_polynomial(text: str, nvars: int, ftag: str = RATIONAL_FUNCTION,
                     line: int = 1) -> MultiPoly:
    """Parse one polynomial in x0..x{M}; raises ProblemSyntaxError with position."""

    def leaf(p: _Parser, tok: _Token) -> MultiPoly | None:
        if tok.kind == "NUM":
            return MultiPoly.constant(nvars, _parse_rational(p), ftag)
        if tok.kind == "{":
            if ftag != RATIONAL_FUNCTION:
                p.error("coefficient literals {...} are not allowed here "
                        "(variety generators have rational constant coefficients)")
            p.next()
            value = _expr(p, _COEFFICIENT)
            p.expect("}")
            return MultiPoly.constant(nvars, value, ftag)
        name = tok.value
        if tok.kind == "NAME" and name[:1] == "x" and name[1:].isdigit():
            idx = int(name[1:])
            if idx >= nvars:
                raise ArityMismatchError(
                    f"line {tok.line}, col {tok.col}: variable {name} exceeds "
                    f"the declared M = {nvars - 1}")
            p.next()
            return MultiPoly.variable(nvars, idx, ftag)
        return None

    return _parse(text, line, _Grammar("polynomial", ("*",), leaf))


def _curve_leaf(p: _Parser, tok: _Token) -> Expr | None:
    if tok.kind == "NUM":
        return Const(_parse_rational(p))
    if tok.kind == "NAME" and tok.value == "z":
        p.next()
        return Z()
    if tok.kind == "NAME" and tok.value == "exp":
        p.next()
        p.expect("(")
        inner = _expr(p, _CURVE)
        p.expect(")")
        return Exp(inner)
    return None


_CURVE = _Grammar("curve expression", ("*",), _curve_leaf)


def parse_curve_expression(text: str, line: int = 1) -> Expr:
    return _parse(text, line, _CURVE)


# ---------------------------------------------------------------------------
# Problem files.
# ---------------------------------------------------------------------------

class Option(NamedTuple):
    """One settable value: its type, its default, and where it may be set."""
    type: type
    default: int | float | None
    flag: bool = True     # as --key (underscores become dashes)
    in_file: bool = True  # as `key = value` in [options]


OPTIONS = {
    "N": Option(int, 12),
    "epsilon": Option(float, 0.5),
    "r_min": Option(float, 5.0),
    "r_max": Option(float, 30.0),
    "r_steps": Option(int, 26),
    "kmax": Option(int, 10),
    "window": Option(int, 3),
    "seed": Option(int, 17),
    "samples": Option(int, 512),
    "smax": Option(int, 8),
    "trials": Option(int, 5),
    "target": Option(int, 0, in_file=False),
    "r": Option(float, None, in_file=False),      # zeros radius; r_max when unset
    "tol": Option(float, None),                   # zeros merge radius; zero_tol when unset
    "zero_tol": Option(float, 1e-6),
    "residual_tol": Option(float, 1e-8, flag=False),
}
FILE_KEYS = [key for key, opt in OPTIONS.items() if opt.in_file]


def _option_value(key: str, value: str, lineno: int) -> int | float:
    """The [options] value of key as the type OPTIONS gives it: an integer,
    or for a float key an integer or a finite number, kept as an int where
    it is one.  Anything else is a parse error naming the line, the key and
    the value."""
    kind = OPTIONS[key].type
    try:
        out = int(value)
    except ValueError:
        out = None
    if kind is float:
        try:
            as_float = float(value)
        except ValueError:
            as_float = math.nan
        if math.isfinite(as_float):
            return as_float if out is None else out
    elif out is not None:
        return out
    expected = "an integer" if kind is int else "a finite number"
    raise ProblemSyntaxError(f"[options] {key} must be {expected}, got {value!r}", lineno, 1)


@dataclass
class ProblemSpec:
    M: int
    n: int
    generators: list[MultiPoly]
    hypersurfaces: list[MultiPoly]
    components: tuple[Expr, ...]
    options: dict

    @property
    def nvars(self) -> int:
        return self.M + 1

    @cached_property
    def curve(self):
        """The curve, compiled and probed on first use: only the numeric
        commands read it, so only they import nevanlinna and numpy.  Raises
        DegenerateCurve when every component vanishes at the probe points."""
        from . import nevanlinna as nev
        return nev.EntireCurve(components=self.components)

    @cached_property
    def ideal(self) -> gg.HomogeneousIdeal:
        """The variety ideal, built once so every step shares its normal forms."""
        return gg.HomogeneousIdeal(self.nvars, self.generators)


def parse_problem(text: str) -> ProblemSpec:
    """Parse a problem file; errors carry line/column positions."""
    section = None
    M: int | None = None
    n: int | None = None
    gen_lines: list[tuple[str, int]] = []
    hyp_lines: list[tuple[int, str, int]] = []
    curve_lines: list[tuple[str, int]] = []
    options: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in ("variety", "hypersurfaces", "curve", "options"):
                raise ProblemSyntaxError(f"unknown section [{section}]", lineno, 1)
            continue
        if section is None:
            raise ProblemSyntaxError("content before any [section] header", lineno, 1)
        if section == "variety":
            if "=" in line and line.split("=", 1)[0].strip() in ("M", "n"):
                key, value = (s.strip() for s in line.split("=", 1))
                try:
                    ivalue = int(value)
                except ValueError:
                    raise ProblemSyntaxError(f"{key} must be an integer", lineno, 1)
                if ivalue < 0:
                    raise ProblemSyntaxError(f"{key} must be nonnegative", lineno, 1)
                if key == "M":
                    M = ivalue
                else:
                    n = ivalue
            else:
                gen_lines.append((line, lineno))
        elif section == "hypersurfaces":
            head, sep, body = line.partition(":")
            head = head.strip().lower()
            if not sep or not head.startswith("degree"):
                raise ProblemSyntaxError(
                    "hypersurface lines look like `degree <d>: <polynomial>`",
                    lineno, 1)
            try:
                declared = int(head[len("degree"):].strip())
            except ValueError:
                raise ProblemSyntaxError("bad declared degree", lineno, 1)
            hyp_lines.append((declared, body.strip(), lineno))
        elif section == "curve":
            curve_lines.append((line, lineno))
        elif section == "options":
            if "=" not in line:
                raise ProblemSyntaxError("options are `key = value` lines", lineno, 1)
            key, value = (s.strip() for s in line.split("=", 1))
            if key not in FILE_KEYS:
                raise ProblemSyntaxError(f"unknown [options] key {key!r}; expected one "
                                         f"of {', '.join(FILE_KEYS)}", lineno, 1)
            options[key] = _option_value(key, value, lineno)
    if M is None:
        raise ProblemSyntaxError("missing `M = ...` in [variety]", 1, 1)
    if n is None:
        raise ProblemSyntaxError("missing `n = ...` in [variety]", 1, 1)
    nvars = M + 1

    generators = []
    for text_line, lineno in gen_lines:
        poly = parse_polynomial(text_line, nvars, RATIONAL, line=lineno)
        if poly.is_zero:
            continue
        if not poly.is_homogeneous:
            raise DegreeMismatchError(
                f"line {lineno}: variety generator {text_line!r} is inhomogeneous")
        generators.append(poly)

    hypersurfaces = []
    for declared, body, lineno in hyp_lines:
        poly = parse_polynomial(body, nvars, RATIONAL_FUNCTION, line=lineno)
        d = poly.degree
        if d is None:
            raise DegreeMismatchError(
                f"line {lineno}: hypersurface {body!r} is inhomogeneous")
        if d != declared:
            raise DegreeMismatchError(
                f"line {lineno}: declared degree {declared} but parsed degree {d}")
        hypersurfaces.append(poly)

    if len(curve_lines) != nvars:
        raise ArityMismatchError(
            f"curve needs {nvars} component lines (M+1), found {len(curve_lines)}")
    components = tuple(parse_curve_expression(t, line=ln) for t, ln in curve_lines)

    return ProblemSpec(M=M, n=n, generators=generators,
                       hypersurfaces=hypersurfaces, components=components,
                       options={key: OPTIONS[key].default for key in FILE_KEYS} | options)


def load_problem(path: str) -> ProblemSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_problem(fh.read())


# ---------------------------------------------------------------------------
# Reports.
# ---------------------------------------------------------------------------

@dataclass
class RunReport:
    command: str
    inputs_echo: dict
    results: dict
    warnings: list[str] = dataclass_field(default_factory=list)
    table: tuple[list[str], list[list]] | None = None
    table_sep: str = ","


def _echo(spec: ProblemSpec) -> dict:
    return {
        "M": spec.M,
        "n": spec.n,
        "variety": [str(g) for g in spec.generators],
        "hypersurfaces": [f"degree {q.degree}: {q}" for q in spec.hypersurfaces],
        "curve": [str(c) for c in spec.components],
    }


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _table_text(report: RunReport) -> str:
    header, rows = report.table
    return "".join(report.table_sep.join(map(_fmt, row)) + "\n" for row in [header, *rows])


def emit_report(report: RunReport, fmt: str) -> bytes:
    """Deterministic serialization: json, csv (tabular commands), or text."""
    if fmt == "json":
        payload = {
            "command": report.command,
            "inputs": report.inputs_echo,
            "results": report.results,
            "warnings": report.warnings,
        }
        return (json.dumps(payload, indent=2, default=str, sort_keys=True)
                + "\n").encode()
    if fmt == "csv":
        if report.table is None:
            raise UnsupportedFormat(
                f"command {report.command!r} has no tabular payload; use json or text")
        return _table_text(report).encode()
    if fmt == "text":
        buf = io.StringIO()
        buf.write(f"== {report.command} ==\n")
        for key, value in report.inputs_echo.items():
            buf.write(f"{key}: {value}\n")
        buf.write("--\n")
        for key, value in report.results.items():
            buf.write(f"{key}: {value}\n")
        if report.table is not None:
            buf.write("--\n")
            buf.write(_table_text(report))
        for w in report.warnings:
            buf.write(f"warning: {w}\n")
        return buf.getvalue().encode()
    raise UnsupportedFormat(f"unsupported format {fmt!r}")


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------

def _opt(spec: ProblemSpec, flags: dict, key: str):
    """The value of option key, of the type OPTIONS gives it: the flag, else
    the problem file's [options], else the default."""
    value = flags.get(key)
    if value is None:
        value = spec.options.get(key, OPTIONS[key].default)
        if value is None:
            return None
    out = OPTIONS[key].type(value)
    if not math.isfinite(out):
        raise PreconditionError(f"option {key} must be a finite number, got {value!r}")
    return out


def _positive_opt(spec: ProblemSpec, flags: dict, key: str, *, zero_ok: bool = False):
    """_opt for an option that must be positive (or zero, when zero_ok); any
    other value is a precondition failure."""
    value = _opt(spec, flags, key)
    if not (value > 0 or (zero_ok and value == 0)):
        kind = "nonnegative" if zero_ok else "positive"
        raise PreconditionError(f"{key} must be a {kind} number, got {value}")
    return value


def _kmax_window(spec: ProblemSpec, flags: dict) -> tuple[int, int]:
    """kmax and window: `hilbert` reports H(0..kmax), and the
    stabilization scan looks for a constant tail of `window` values among
    the quotient dimensions up to kmax, so fewer than `window` values can
    never show one."""
    kmax = _positive_opt(spec, flags, "kmax", zero_ok=True)
    window = _positive_opt(spec, flags, "window")
    if kmax + 1 < window:
        raise PreconditionError(
            f"kmax must be at least window - 1 = {window - 1}, got {kmax}")
    return kmax, window


def _radius_grid(spec, flags) -> list[float]:
    r_min = _opt(spec, flags, "r_min")
    r_max = _opt(spec, flags, "r_max")
    steps = _opt(spec, flags, "r_steps")
    if steps < 1 or r_max < r_min or r_min <= 1:
        raise PreconditionError("radius grid needs 1 < r_min <= r_max and steps >= 1")
    import numpy as np
    return [float(r) for r in np.linspace(r_min, r_max, steps)]


def _cross_check_dimension(spec: ProblemSpec):
    dim_v = gg.variety_invariants(spec.ideal)[0]
    if dim_v != spec.n:
        raise PreconditionError(
            f"declared n = {spec.n} but the Hilbert data gives dim V = {dim_v}")


def cmd_hilbert(spec: ProblemSpec, flags: dict) -> RunReport:
    kmax, _ = _kmax_window(spec, flags)
    rec = gg.hilbert_record(spec.ideal, kmax)
    results = {"values": {str(k): v for k, v in sorted(rec.values.items())},
               "n": rec.dim_v, "degV": rec.deg_v}
    warnings = []
    if rec.dim_v != spec.n:
        warnings.append(
            f"declared n = {spec.n} differs from computed dim V = {rec.dim_v}")
    table = (["k", "H"], [[k, rec.values[k]] for k in sorted(rec.values)])
    return RunReport("hilbert", _echo(spec), results, warnings, table)


def cmd_admissible(spec: ProblemSpec, flags: dict) -> RunReport:
    trials = _positive_opt(spec, flags, "trials")
    smax = _positive_opt(spec, flags, "smax")
    seed = _opt(spec, flags, "seed")
    if len(spec.hypersurfaces) < spec.n + 1:
        raise PreconditionError(f"admissibility needs q >= n + 1 = {spec.n + 1} "
                                f"targets, got q = {len(spec.hypersurfaces)}")
    J = spec.ideal
    d, Qs = normalize_degrees(spec.hypersurfaces)
    reports = gg.admissibility_check(J, Qs, spec.n, trials=trials, s_max=smax,
                                     seed=seed)
    rows = []
    warnings = []
    all_admissible = True
    for rep in reports:
        entry = {
            "subset": list(rep.subset),
            "status": rep.status,
            "witnesses": [str(w) for w in rep.witnesses_tried],
            "succeeded": rep.witnesses_succeeded,
            "s_values": [c.s for c in rep.certificates],
        }
        if rep.evidence_value is not None:
            entry["evidence_value"] = rep.evidence_value
        if rep.warning:
            warnings.append(f"subset {rep.subset}: {rep.warning}")
        if rep.status != gg.ADMISSIBLE:
            all_admissible = False
        rows.append(entry)
    results = {"common_degree": d, "subsets": rows, "all_admissible": all_admissible}
    table = (["subset", "status", "succeeded", "s_values"],
             [["|".join(map(str, r["subset"])), r["status"], r["succeeded"],
               "|".join(map(str, r["s_values"]))] for r in rows])
    return RunReport("admissible", _echo(spec), results, warnings, table)


def _scan_and_table(spec: ProblemSpec, flags: dict, N: int):
    kmax, window = _kmax_window(spec, flags)
    if spec.n < 1:
        raise PreconditionError(f"the filtration needs n >= 1, got n = {spec.n}")
    if len(spec.hypersurfaces) < spec.n:
        raise PreconditionError(f"the filtration needs q >= n = {spec.n} targets, "
                                f"got q = {len(spec.hypersurfaces)}")
    J = spec.ideal
    d, Qs = normalize_degrees(spec.hypersurfaces)
    Qn = Qs[: spec.n]  # the filtration runs on the first n targets
    scan = filt.stabilization_scan(J, Qn, kmax, window)
    table = filt.build_table(J, Qn, N, n0=scan.n0, kappa=scan.kappa)
    return J, Qn, scan, table


def cmd_filtration(spec: ProblemSpec, flags: dict) -> RunReport:
    N = _positive_opt(spec, flags, "N", zero_ok=True)
    J, Qn, scan, table = _scan_and_table(spec, flags, N)
    warnings = []
    if N % table.d != 0:
        warnings.append(f"N = {N} is not divisible by d = {table.d}; "
                        "tau0 semantics assume d | N")
    results = {
        "N": N, "d": table.d, "n": table.n,
        "n0": scan.n0, "c": scan.c, "c_prime": scan.c_prime,
        "m_min": scan.m_min, "kappa": scan.kappa,
        "hilbert_value": table.hilbert_value,
        "sum_m": table.total_m(),
        "tau_count": len(table.tau),
        "tau0_count": len(table.tau0),
    }
    report = RunReport("filtration", _echo(spec), results, warnings,
                       filt.table_rows(table))
    report.table_sep = ";"
    return report


def cmd_basis(spec: ProblemSpec, flags: dict) -> RunReport:
    N = _positive_opt(spec, flags, "N", zero_ok=True)
    J, Qn, scan, table = _scan_and_table(spec, flags, N)
    products = filt.filtration_basis(table)
    results = {
        "N": N,
        "hilbert_value": table.hilbert_value,
        "basis_count": len(products),
        "independent_mod_ideal": True,
        "basis": [str(p) for p in products],
    }
    return RunReport("basis", _echo(spec), results)


def cmd_product(spec: ProblemSpec, flags: dict) -> RunReport:
    N = _positive_opt(spec, flags, "N")
    J, Qn, scan, table = _scan_and_table(spec, flags, N)
    deg_v = gg.variety_invariants(J)[1]
    pd = filt.product_decomposition(table)
    results = {
        "N": N,
        "exponents": pd.exponents,
        "e": pd.e,
        "degree_p": pd.degree_p,
        "degree_identity": pd.degree_identity,
        "leading_ratio": pd.leading_ratio(deg_v, table.d, table.n),
        "p_factor_count": len(pd.p_factors),
    }
    return RunReport("product", _echo(spec), results)


# The numeric commands import nevanlinna, and with it numpy, when they run,
# and read the curve first, so that a degenerate one is reported as a parse
# error ahead of any option check.

def cmd_tf(spec: ProblemSpec, flags: dict) -> RunReport:
    from . import nevanlinna as nev
    curve = spec.curve
    samples = _positive_opt(spec, flags, "samples")
    if samples >= nev.QUADRATURE_CAP:
        # a first level at the cap would be returned without a convergence test
        raise PreconditionError(
            f"samples must be below the quadrature cap {nev.QUADRATURE_CAP}, got {samples}")
    grid = _radius_grid(spec, flags)
    values = nev.characteristic_T(curve, grid, samples=samples)
    results = {"r": grid, "Tf": values}
    return RunReport("tf", _echo(spec), results,
                     table=(["r", "Tf"], [[r, t] for r, t in zip(grid, values)]))


def cmd_zeros(spec: ProblemSpec, flags: dict) -> RunReport:
    from . import nevanlinna as nev
    curve = spec.curve
    target = _opt(spec, flags, "target")
    if not 0 <= target < len(spec.hypersurfaces):
        raise PreconditionError(f"target index {target} out of range")
    r_key = "r_max" if _opt(spec, flags, "r") is None else "r"
    r = _positive_opt(spec, flags, r_key, zero_ok=True)
    # default to the merge radius safe for double zeros; --tol tightens it for simple zeros
    tol_key = "zero_tol" if _opt(spec, flags, "tol") is None else "tol"
    tol = _positive_opt(spec, flags, tol_key)
    Q = spec.hypersurfaces[target]
    g = nev.compose_form(Q, curve)
    # the zero form has no degree; it vanishes at every probe all the same
    nev.assert_not_identically_zero(curve, nev.Program([g]), [Q.degree or 0], r)
    zl = nev.locate_zeros(g, r, tol=tol)
    rows = [[z.real, z.imag, m] for z, m in zl.zeros]
    results = {
        "target": target, "r": r, "count": zl.total(),
        "zeros": [{"re": z.real, "im": z.imag, "mult": m} for z, m in zl.zeros],
    }
    return RunReport("zeros", _echo(spec), results,
                     table=(["re", "im", "mult"], rows))


def _require_admissible(spec: ProblemSpec, flags: dict):
    rep = cmd_admissible(spec, flags)
    if not rep.results["all_admissible"]:
        bad = [r for r in rep.results["subsets"] if r["status"] != gg.ADMISSIBLE]
        raise PreconditionError(
            "system is not verified admissible: "
            + "; ".join(f"subset {r['subset']} {r['status']}" for r in bad))
    return rep


def _require_on_variety(spec: ProblemSpec, flags: dict, grid: list[float]):
    from . import nevanlinna as nev
    residual = nev.curve_residual(spec.generators, spec.curve, grid)
    tol = _opt(spec, flags, "residual_tol")
    if residual > tol:
        raise PreconditionError(
            f"curve residual {residual:.3g} exceeds tolerance "
            f"{tol:.3g}: the curve does not lie on V")
    return residual


def cmd_smt(spec: ProblemSpec, flags: dict) -> RunReport:
    from . import nevanlinna as nev
    curve = spec.curve
    epsilon = _opt(spec, flags, "epsilon")
    grid = _radius_grid(spec, flags)
    zero_tol = _positive_opt(spec, flags, "zero_tol")
    _kmax_window(spec, flags)  # smt rejects bad kmax and window options as the exact commands do
    _cross_check_dimension(spec)
    adm = _require_admissible(spec, flags)
    residual = _require_on_variety(spec, flags, grid)
    sweep = nev.smt_margin(curve, spec.hypersurfaces, spec.n, epsilon,
                           grid, zero_tol=zero_tol, admissibility_checked=True)
    q = sweep.q
    header = (["r", "Tf"] + [f"Nf_{j + 1}" for j in range(q)]
              + ["margin", "lemma23_diag"])
    rows = []
    for i, r in enumerate(sweep.radii):
        rows.append([r, sweep.Tf[i]] + [sweep.Nf[j][i] for j in range(q)]
                    + [sweep.margins[i], sweep.floor_values[i]])
    warnings = list(sweep.warnings)
    for r in sweep.violations:
        warnings.append(f"margin violation at r = {r}")
    if sweep.defect_sum > spec.n + 1:
        warnings.append(
            f"defect sum {sweep.defect_sum:.4f} exceeds n+1 = {spec.n + 1}")
    results = {
        "epsilon": epsilon,
        "q": q,
        "n": sweep.n,
        "degrees": sweep.degrees,
        "curve_residual": residual,
        "zero_counts": sweep.zero_counts,
        "defects": sweep.defects,
        "defect_sum": sweep.defect_sum,
        "violations": sweep.violations,
        "jensen_max": sweep.jensen_max,
        "fmt_constants": sweep.fmt_constants,
        "fmt_excess": sweep.fmt_excess,
        "floor_fit": {"c1": sweep.floor_fit.c1, "c2": sweep.floor_fit.c2,
                      "holds": sweep.floor_fit.holds},
        "admissibility": adm.results,
    }
    return RunReport("smt", _echo(spec), results, warnings, (header, rows))


def cmd_defects(spec: ProblemSpec, flags: dict) -> RunReport:
    from . import nevanlinna as nev
    curve = spec.curve
    grid = _radius_grid(spec, flags)
    zero_tol = _positive_opt(spec, flags, "zero_tol")
    data = nev.sweep_data(curve, spec.hypersurfaces, grid, zero_tol=zero_tol)
    estimates = [nev.defect_estimate(data.radii, data.Tf, Nf_j, d)
                 for Nf_j, d in zip(data.Nf, data.degrees)]
    defects = [delta for delta, _ in estimates]
    traces = {f"target_{j + 1}": [[r, v] for r, v in trace]
              for j, (_, trace) in enumerate(estimates)}
    results = {
        "defects": defects,
        "defect_sum": sum(defects),
        "n_plus_1": spec.n + 1,
        "traces": traces,
    }
    table = (["target", "defect"], [[j + 1, delta] for j, delta in enumerate(defects)])
    return RunReport("defects", _echo(spec), results, table=table)


COMMANDS = {
    "hilbert": cmd_hilbert,
    "admissible": cmd_admissible,
    "filtration": cmd_filtration,
    "basis": cmd_basis,
    "product": cmd_product,
    "tf": cmd_tf,
    "zeros": cmd_zeros,
    "smt": cmd_smt,
    "defects": cmd_defects,
}


def run_command(cmd: str, spec: ProblemSpec, flags: dict) -> RunReport:
    if cmd not in COMMANDS:
        raise UnknownCommand(f"unknown command {cmd!r}; "
                             f"expected one of {sorted(COMMANDS)}")
    return COMMANDS[cmd](spec, flags)


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------

@cache
def _argparser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use: one --flag per OPTIONS
    key that may be set as a flag."""
    ap = argparse.ArgumentParser(
        prog="nevlab",
        description="Exact graded-algebra checks and growth-inequality sweeps "
                    "for curves meeting moving hypersurface targets.")
    ap.add_argument("command", choices=sorted(COMMANDS))
    ap.add_argument("--input", required=True, help="problem file path")
    for key, opt in OPTIONS.items():
        if opt.flag:
            ap.add_argument("--" + key.replace("_", "-"), dest=key, type=opt.type)
    ap.add_argument("--format", choices=("json", "csv", "text"), default="text")
    ap.add_argument("--out", default=None)
    return ap


def main(argv=None) -> int:
    args = _argparser().parse_args(argv)
    flags = vars(args)
    try:
        spec = load_problem(args.input)
    except (ProblemSyntaxError, DegreeMismatchError, ArityMismatchError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        report = run_command(args.command, spec, flags)
        payload = emit_report(report, args.format)
    except DegenerateCurve as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (PreconditionError, gg.NotStabilized, InhomogeneousInput,
            PoleAtPoint, IdenticallyZero, NonPolynomialCoefficient,
            ZeroAtOrigin, ZeroCharacteristic, filt.DegreeMismatch) as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (OverflowGuard, WindingAmbiguous) as exc:
        print(f"numeric guard: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (UnknownCommand, UnsupportedFormat) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_PARSE
    if args.out:
        try:
            with open(args.out, "wb") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"cannot write output: {exc}", file=sys.stderr)
            return EXIT_PARSE
    else:
        sys.stdout.write(payload.decode())
    if args.command == "admissible" and not report.results["all_admissible"]:
        return EXIT_PRECONDITION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
