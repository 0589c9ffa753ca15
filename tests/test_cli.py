import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nevlab import cli
from nevlab import gradedgeom as gg
from nevlab import nevanlinna as nev
from nevlab.algebra import RATIONAL, RationalFunction
from nevlab.cli import (
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PRECONDITION,
    OPTIONS,
    ArityMismatchError,
    DegreeMismatchError,
    ProblemSyntaxError,
    UnsupportedFormat,
    emit_report,
    load_problem,
    main,
    parse_curve_expression,
    parse_polynomial,
    parse_problem,
    run_command,
)

from helpers import UNRESOLVED_CLUSTER

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def _src_env() -> dict:
    """The environment with this checkout's src first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PROBLEMS.parent / "src"), env.get("PYTHONPATH")) if p)
    return env


def _with_zero_curve(path: Path) -> str:
    """The problem file at path with every curve component replaced by 0."""
    head, sep, tail = path.read_text().partition("[curve]\n")
    lines = tail.split("\n")
    k = lines.index("")  # the curve ends at the first blank line
    return head + sep + "\n".join(["0"] * k + lines[k:])


MINI = """
[variety]
M = 2
n = 1
x0*x2 - x1^2

[hypersurfaces]
degree 2: {z}*x0^2 + x1*x2

[curve]
1
exp(z)
exp(2*z)

[options]
seed = 1
"""


# P^0, whose only curve is constant, so T_f = 0 on every circle; and the conic
# declared with n = 0
EDGE_PROBLEMS = {
    "point": "[variety]\nM = 0\nn = 0\n\n[hypersurfaces]\ndegree 1: x0\n\n"
             "[curve]\n1\n",
    "conic_n0": "[variety]\nM = 2\nn = 0\nx0*x2 - x1^2\n\n[hypersurfaces]\n"
                "degree 1: x0\n\n[curve]\n1\nexp(z)\nexp(2*z)\n",
}
EDGE_FAILURES = {
    ("point", "smt"): "T_f = 0 at r = 5.0; the defects divide by T_f",
    ("point", "defects"): "T_f = 0 at r = 5.0; the defects divide by T_f",
    **{(problem, command): "the filtration needs n >= 1, got n = 0"
       for problem in EDGE_PROBLEMS for command in ("filtration", "basis", "product")},
}


class TestPolynomialGrammar:
    def test_moving_coefficient(self):
        p = parse_polynomial("{z}*x0^2 + x1*x2", 3)
        assert p.degree == 2
        z = RationalFunction.z()
        coeff = p.terms[(2, 0, 0)]
        assert coeff == z

    def test_rational_literals(self):
        p = parse_polynomial("1/2*x0 - 3*x1", 2, RATIONAL)
        assert str(p) == "1/2*x0 - 3*x1"

    def test_rational_function_literal_forms(self):
        p = parse_polynomial("{(z^2+1)/(z-1)}*x0", 2)
        coeff = p.terms[(1, 0)]
        assert str(coeff) == "(z^2 + 1)/(z - 1)"
        q = parse_polynomial("{2/(z-1)}*x1*x2 - {z^2+1}*x0^2", 3)
        assert q.degree == 2

    def test_parentheses_and_powers(self):
        p = parse_polynomial("(x0 + x1)^2", 2, RATIONAL)
        x0 = parse_polynomial("x0", 2, RATIONAL)
        x1 = parse_polynomial("x1", 2, RATIONAL)
        assert p == (x0 + x1) * (x0 + x1)

    def test_position_in_errors(self):
        with pytest.raises(ProblemSyntaxError) as err:
            parse_polynomial("x0 + @", 2, RATIONAL, line=7)
        assert "line 7" in str(err.value)

    def test_variable_range_enforced(self):
        with pytest.raises(ArityMismatchError):
            parse_polynomial("x5", 3, RATIONAL)

    def test_braces_rejected_over_q(self):
        with pytest.raises(ProblemSyntaxError):
            parse_polynomial("{z}*x0", 2, RATIONAL)


class TestCurveGrammar:
    def test_exponentials(self):
        e = parse_curve_expression("exp(2*z)")
        assert str(e) == "exp(2*z)"
        v = complex(nev.eval_on(nev.Program([e]), 0.5)[0])
        assert v == pytest.approx(math.e)

    def test_polynomial_curve(self):
        e = parse_curve_expression("1/2 + z^3 - 2*z")
        assert complex(nev.eval_on(nev.Program([e]), 2)[0]) == pytest.approx(0.5 + 8 - 4)

    def test_no_division(self):
        with pytest.raises(ProblemSyntaxError):
            parse_curve_expression("1/z")


def _parse_coefficient(text):
    return parse_polynomial(text, 3, line=7)


def _parse_rational_polynomial(text):
    return parse_polynomial(text, 3, RATIONAL, line=7)


def _parse_curve(text):
    return parse_curve_expression(text, line=7)


@pytest.mark.parametrize("parse, text, exc, message", [
    # coefficients {...} over Q(z)
    (_parse_coefficient, "{", ProblemSyntaxError,
     "line 7, col 1: unexpected end of coefficient"),
    (_parse_coefficient, "{w}*x0", ProblemSyntaxError,
     "line 7, col 2: unexpected name 'w' in coefficient (only z is allowed)"),
    (_parse_coefficient, "{z/}*x0", ProblemSyntaxError,
     "line 7, col 4: unexpected token '}' in coefficient"),
    (_parse_coefficient, "{z z}*x0", ProblemSyntaxError,
     "line 7, col 4: expected '}', found 'z'"),
    (_parse_coefficient, "{1/(z-z)}*x0", ProblemSyntaxError,
     "line 7, col 9: division by zero in coefficient"),
    (_parse_coefficient, "{1/0}*x0", ProblemSyntaxError,
     "line 7, col 5: zero denominator in rational literal"),
    # polynomials in x0..xM
    (_parse_rational_polynomial, "x0 +", ProblemSyntaxError,
     "line 7, col 1: unexpected end of polynomial"),
    (_parse_rational_polynomial, "y0", ProblemSyntaxError,
     "line 7, col 1: unexpected name 'y0' in polynomial"),
    (_parse_rational_polynomial, "x1 * * x2", ProblemSyntaxError,
     "line 7, col 6: unexpected token '*' in polynomial"),
    (_parse_rational_polynomial, "x0/2", ProblemSyntaxError,
     "line 7, col 3: trailing input after polynomial"),
    (_parse_rational_polynomial, "x0 - {z}*x1", ProblemSyntaxError,
     "line 7, col 6: coefficient literals {...} are not allowed here "
     "(variety generators have rational constant coefficients)"),
    (_parse_rational_polynomial, "x0 + x3", ArityMismatchError,
     "line 7, col 6: variable x3 exceeds the declared M = 2"),
    (_parse_rational_polynomial, "(x0", ProblemSyntaxError,
     "line 7, col 1: unexpected end of input"),
    (_parse_rational_polynomial, "x0^x1", ProblemSyntaxError,
     "line 7, col 4: expected 'NUM', found 'x1'"),
    # entire curve expressions
    (_parse_curve, "z +", ProblemSyntaxError,
     "line 7, col 1: unexpected end of curve expression"),
    (_parse_curve, "w", ProblemSyntaxError,
     "line 7, col 1: unexpected name 'w' in curve expression"),
    (_parse_curve, "{z}", ProblemSyntaxError,
     "line 7, col 1: unexpected token '{' in curve expression"),
    (_parse_curve, "1/z", ProblemSyntaxError,
     "line 7, col 2: trailing input after curve expression"),
    (_parse_curve, "exp z", ProblemSyntaxError,
     "line 7, col 5: expected '(', found 'z'"),
])
def test_parse_error_messages(parse, text, exc, message):
    with pytest.raises(exc) as err:
        parse(text)
    assert type(err.value) is exc
    assert str(err.value) == message


class TestProblemFiles:
    def test_mini_problem(self):
        spec = parse_problem(MINI)
        assert spec.M == 2 and spec.n == 1
        assert len(spec.generators) == 1
        assert [q.degree for q in spec.hypersurfaces] == [2]
        assert len(spec.curve.components) == 3

    def test_shipped_conic(self):
        spec = load_problem(str(PROBLEMS / "conic.prob"))
        assert spec.M == 2
        assert len(spec.hypersurfaces) == 4
        assert all(q.degree == 2 for q in spec.hypersurfaces)
        assert spec.options["epsilon"] == 0.5

    def test_inhomogeneous_generator_rejected(self):
        bad = MINI.replace("x0*x2 - x1^2", "x0 + x1^2")
        with pytest.raises(DegreeMismatchError):
            parse_problem(bad)

    def test_declared_degree_mismatch(self):
        bad = MINI.replace("degree 2:", "degree 3:")
        with pytest.raises(DegreeMismatchError):
            parse_problem(bad)

    def test_curve_arity(self):
        bad = MINI.replace("exp(2*z)\n", "")
        with pytest.raises(ArityMismatchError):
            parse_problem(bad)

    def test_unknown_section(self):
        with pytest.raises(ProblemSyntaxError):
            parse_problem(MINI.replace("[options]", "[extras]"))

    def test_content_before_section(self):
        with pytest.raises(ProblemSyntaxError):
            parse_problem("M = 2\n" + MINI)

    def test_missing_dimension_declaration(self):
        with pytest.raises(ProblemSyntaxError):
            parse_problem(MINI.replace("n = 1\n", ""))

    def test_moving_hypersurface_roundtrip(self):
        spec = load_problem(str(PROBLEMS / "p1_line.prob"))
        report = run_command("hilbert", spec, {"kmax": 4})
        for original, line in zip(spec.hypersurfaces,
                                  report.inputs_echo["hypersurfaces"]):
            body = line.split(":", 1)[1].strip()
            assert parse_polynomial(body, spec.nvars) == original

    def test_roundtrip_echo(self):
        spec = load_problem(str(PROBLEMS / "conic.prob"))
        report = run_command("hilbert", spec, {"kmax": 4})
        echo = report.inputs_echo
        for original, text in zip(spec.generators, echo["variety"]):
            assert parse_polynomial(text, spec.nvars, RATIONAL) == original
        for original, line in zip(spec.hypersurfaces, echo["hypersurfaces"]):
            body = line.split(":", 1)[1].strip()
            assert parse_polynomial(body, spec.nvars) == original
        for original, text in zip(spec.curve.components, echo["curve"]):
            assert str(parse_curve_expression(text)) == str(original)


class TestOptions:
    """Every settable value is declared once, in OPTIONS."""

    def test_flags_and_defaults_come_from_the_table(self):
        actions = {a.dest: a for a in cli._argparser()._actions}
        spec = parse_problem(MINI.replace("seed = 1\n", ""))
        for key, opt in OPTIONS.items():
            if opt.flag:
                action = actions[key]
                assert action.option_strings == ["--" + key.replace("_", "-")]
                assert action.type is opt.type and action.default is None
            else:
                assert key not in actions
            if opt.in_file:
                assert spec.options[key] == opt.default
            else:
                assert key not in spec.options
        assert set(actions) - set(OPTIONS) == {"help", "command", "input", "format", "out"}
        assert [k for k, o in OPTIONS.items() if not o.in_file] == ["target", "r"]
        assert [k for k, o in OPTIONS.items() if not o.flag] == ["residual_tol"]

    def test_file_value_and_default_reach_the_command(self):
        spec = parse_problem(MINI)
        assert cli._opt(spec, {}, "seed") == 1
        assert cli._opt(spec, {"seed": 4}, "seed") == 4
        assert cli._opt(spec, {}, "window") == 3
        assert cli._opt(spec, {}, "target") == 0 and cli._opt(spec, {}, "r") is None

    def test_float_key_keeps_an_integer_value(self):
        spec = parse_problem(MINI + "r_max = 7\nzero_tol = 1e-7\n")
        assert spec.options["r_max"] == 7 and type(spec.options["r_max"]) is int
        assert cli._opt(spec, {}, "r_max") == 7.0 and cli._opt(spec, {}, "zero_tol") == 1e-7

    @pytest.mark.parametrize("line", ["kmaxx = 4", "r = 3", "target = 1", "format = json"])
    def test_unknown_or_flag_only_key_is_a_parse_error(self, line, tmp_path, capsys):
        path = tmp_path / "options.prob"
        path.write_text(MINI + line + "\n")
        assert main(["hilbert", "--input", str(path)]) == EXIT_PARSE
        key = line.split()[0]
        assert capsys.readouterr().err.startswith(
            f"parse error: line 17, col 1: unknown [options] key {key!r}; expected one of N, ")

    @pytest.mark.parametrize("text", ["x1^²", "x1²", "é*x0"])
    def test_non_ascii_is_a_parse_error(self, text, tmp_path, capsys):
        path = tmp_path / "unicode.prob"
        path.write_text(MINI.replace("x0*x2 - x1^2", text), encoding="utf-8")
        assert main(["hilbert", "--input", str(path)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("parse error: line 5, col ") and "unexpected character" in err

    def test_repeated_main_calls_match_separate_runs(self, capsys):
        # the parser is built once per process; no flag of one call leaks
        # into the next
        runs = [["zeros", "--input", str(PROBLEMS / "conic.prob"), "--target", "1",
                 "--r", "3", "--tol", "1e-8", "--format", "json"],
                ["zeros", "--input", str(PROBLEMS / "conic.prob"), "--format", "csv"]]
        in_process = []
        for argv in runs:
            code = main(argv)
            in_process.append((code, capsys.readouterr().out))
        script = "import sys; from nevlab.cli import main; sys.exit(main(sys.argv[1:]))"
        separate = []
        for argv in runs:
            proc = subprocess.run([sys.executable, "-c", script, *argv], env=_src_env(),
                                  capture_output=True, text=True, timeout=120)
            separate.append((proc.returncode, proc.stdout))
        assert in_process == separate
        assert in_process[0][1] != in_process[1][1]


class TestCommands:
    def test_hilbert_values(self):
        spec = load_problem(str(PROBLEMS / "conic.prob"))
        report = run_command("hilbert", spec, {"kmax": 10})
        values = report.results["values"]
        assert [values[str(k)] for k in range(1, 11)] == [2 * k + 1 for k in range(1, 11)]
        assert report.results["n"] == 1
        assert report.results["degV"] == 2

    def test_filtration_table(self):
        spec = load_problem(str(PROBLEMS / "conic_exact.prob"))
        report = run_command("filtration", spec, {"N": 12})
        rows = report.table[1]
        by_i = {row[0]: row[2] for row in rows}
        assert by_i["(3)"] == 4
        assert report.results["sum_m"] == report.results["hilbert_value"] == 25
        assert report.table_sep == ";"

    def test_filtration_reads_one_piece_per_generator_degree(self, tmp_path, monkeypatch):
        # J's normal forms come from its Gröbner basis, seeded by one
        # Macaulay piece per distinct generator degree (the conic's is 2);
        # tables row-reduced per degree would read about 48 pieces.
        degrees = []
        original = gg.ideal_graded_piece

        def recorded(J, extra, k):
            degrees.append(k)
            return original(J, extra, k)

        monkeypatch.setattr(gg, "ideal_graded_piece", recorded)
        code = main(["filtration", "--input", str(PROBLEMS / "conic_exact.prob"),
                     "--N", "48", "--out", str(tmp_path / "report.txt")])
        assert code == EXIT_OK
        assert degrees == [2]

    def test_admissible_statuses(self):
        spec = load_problem(str(PROBLEMS / "conic_exact.prob"))
        report = run_command("admissible", spec, {})
        statuses = {tuple(r["subset"]): r["status"]
                    for r in report.results["subsets"]}
        assert statuses[(0, 1)] == "ADMISSIBLE"
        assert statuses[(0, 2)] == "NOT_ADMISSIBLE_EVIDENCE"
        assert not report.results["all_admissible"]
        assert report.warnings  # heuristic outcomes are flagged

    def test_zeros_command(self):
        spec = load_problem(str(PROBLEMS / "conic.prob"))
        report = run_command("zeros", spec, {"target": 0, "r": 10.0,
                                             "tol": 1e-10})
        zs = report.results["zeros"]
        assert len(zs) == 2
        for entry in zs:
            assert abs(entry["re"]) < 1e-8
            assert abs(abs(entry["im"]) - 2.0) < 1e-8

    def test_zeros_command_double_zeros_default_tol(self):
        # target 2 composes to (e^(2z) - 2)^2: double zeros need the
        # multiplicity-safe default width, not the deep simple-zero one
        spec = load_problem(str(PROBLEMS / "conic.prob"))
        report = run_command("zeros", spec, {"target": 2, "r": 10.0})
        zs = report.results["zeros"]
        assert all(entry["mult"] == 2 for entry in zs)
        assert report.results["count"] == 2 * len(zs)
        half_log2 = math.log(2) / 2
        for entry in zs:
            assert abs(entry["re"] - half_log2) < 1e-5

    def test_unknown_command(self):
        from nevlab.cli import UnknownCommand

        spec = parse_problem(MINI)
        with pytest.raises(UnknownCommand):
            run_command("nope", spec, {})


class TestEmit:
    def test_json_deterministic(self):
        spec = load_problem(str(PROBLEMS / "conic_exact.prob"))
        a = emit_report(run_command("admissible", spec, {}), "json")
        b = emit_report(run_command("admissible", spec, {}), "json")
        assert a == b
        payload = json.loads(a)
        assert payload["command"] == "admissible"

    def test_csv_headers(self):
        spec = load_problem(str(PROBLEMS / "conic_exact.prob"))
        report = run_command("filtration", spec, {"N": 8})
        text = emit_report(report, "csv").decode()
        assert text.splitlines()[0] == "I;normI;m;inTau0"

    def test_unsupported_format(self):
        spec = parse_problem(MINI)
        report = run_command("hilbert", spec, {"kmax": 4})
        with pytest.raises(UnsupportedFormat):
            emit_report(report, "yaml")

    def test_canonical_rationals(self):
        from fractions import Fraction

        from nevlab.algebra import MultiPoly

        assert str(MultiPoly.constant(2, Fraction(4, 6))) == "2/3"


class TestMainExitCodes:
    def test_module_run_is_clean(self):
        # importing the package must not import nevlab.cli ahead of runpy
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "nevlab.cli",
             "hilbert", "--input", str(PROBLEMS / "conic.prob")],
            env=_src_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert proc.stderr == ""

    @pytest.mark.parametrize("argv", [
        ["hilbert", "conic.prob"],
        ["admissible", "conic_exact.prob"],
        ["admissible", "p1_line.prob"],
        ["filtration", "conic_exact.prob", "--N", "12"],
        ["filtration", "p1_line.prob", "--N", "8"],
        ["basis", "conic_exact.prob"],
        ["product", "conic_exact.prob", "--N", "12"],
    ], ids="_".join)
    def test_exact_commands_run_without_numpy(self, argv, capsys):
        # numpy blocked in sys.modules: any import of it, or of nevanlinna,
        # raises ImportError; the report is the in-process one, byte for byte
        command, problem, *rest = argv
        argv = [command, "--input", str(PROBLEMS / problem), *rest]
        code = main(argv)
        captured = capsys.readouterr()
        script = ("import sys; sys.modules['numpy'] = None; "
                  "from nevlab.cli import main; sys.exit(main(sys.argv[1:]))")
        proc = subprocess.run([sys.executable, "-c", script, *argv], env=_src_env(),
                              capture_output=True, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            code, captured.out.encode(), captured.err.encode())

    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.prob"
        bad.write_text(MINI.replace("x0*x2 - x1^2", "x0 + x1^2"))
        assert main(["hilbert", "--input", str(bad)]) == EXIT_PARSE

    @pytest.mark.parametrize("command", ["hilbert", "tf"])
    @pytest.mark.parametrize("M, n, line", [(-1, 1, 2), (2, -1, 3)])
    def test_negative_dimension_is_a_parse_error(self, command, M, n, line, tmp_path,
                                                  capsys):
        bad = tmp_path / "negative.prob"
        bad.write_text(f"[variety]\nM = {M}\nn = {n}\n")
        assert main([command, "--input", str(bad)]) == EXIT_PARSE
        err = capsys.readouterr().err
        key = "M" if M < 0 else "n"
        assert f"line {line}" in err and f"{key} must be nonnegative" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["hilbert", "admissible", "filtration", "basis",
                                         "product", "tf", "zeros", "smt", "defects"])
    @pytest.mark.parametrize("problem", sorted(EDGE_PROBLEMS))
    def test_edge_dimensions_exit_cleanly(self, problem, command, tmp_path, capsys):
        # an uncaught exception would be exit 1 with a traceback
        path = tmp_path / f"{problem}.prob"
        path.write_text(EDGE_PROBLEMS[problem])
        code = main([command, "--input", str(path)])
        err = capsys.readouterr().err
        want = EDGE_FAILURES.get((problem, command))
        if want is not None:
            assert (code, err) == (EXIT_PRECONDITION, f"precondition failure: {want}\n")
        assert code != 1 and "Traceback" not in err

    def test_missing_file(self):
        assert main(["hilbert", "--input", "/nonexistent.prob"]) == EXIT_PARSE

    def test_unwritable_output(self, tmp_path, capsys):
        out = tmp_path / "missing" / "report.txt"
        code = main(["hilbert", "--input", str(PROBLEMS / "conic.prob"), "--out", str(out)])
        assert code == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("cannot write output: ") and "Traceback" not in err
        assert not out.exists()

    def test_degenerate_admissible_exit(self, capsys):
        code = main(["admissible", "--input",
                     str(PROBLEMS / "conic_degenerate.prob")])
        assert code == EXIT_PRECONDITION
        out = capsys.readouterr().out
        assert "NOT_ADMISSIBLE_EVIDENCE" in out

    def test_hilbert_ok(self, tmp_path, capsys):
        out = tmp_path / "h.csv"
        code = main(["hilbert", "--input", str(PROBLEMS / "conic.prob"),
                     "--kmax", "6", "--format", "csv", "--out", str(out)])
        assert code == EXIT_OK
        assert out.read_text().splitlines()[0] == "k,H"

    def test_seed_determinism(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            code = main(["admissible", "--input", str(PROBLEMS / "conic.prob"),
                         "--seed", "23", "--format", "json", "--out", str(path)])
            assert code == EXIT_OK
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_smt_precondition_on_degenerate(self, capsys):
        code = main(["smt", "--input", str(PROBLEMS / "conic_degenerate.prob"),
                     "--r-steps", "3"])
        assert code == EXIT_PRECONDITION

    @pytest.mark.parametrize("command", ["tf", "zeros", "smt", "defects"])
    def test_degenerate_curve_is_a_parse_error(self, command, tmp_path, capsys):
        prob = tmp_path / "zero_curve.prob"
        prob.write_text(_with_zero_curve(PROBLEMS / "conic.prob"))
        assert main([command, "--input", str(prob)]) == EXIT_PARSE
        assert capsys.readouterr().err == (
            "parse error: all curve components vanish at the probe points\n")

    @pytest.mark.parametrize("argv", [
        ["hilbert"], ["admissible"], ["filtration", "--N", "4"],
        ["basis", "--N", "4"], ["product", "--N", "4"],
    ], ids="_".join)
    def test_exact_commands_ignore_a_degenerate_curve(self, argv, tmp_path, capsys):
        prob = tmp_path / "zero_curve.prob"
        prob.write_text(_with_zero_curve(PROBLEMS / "conic.prob"))
        reports = []
        for path in (PROBLEMS / "conic.prob", prob):
            assert main(argv + ["--input", str(path), "--format", "json"]) == EXIT_OK
            reports.append(json.loads(capsys.readouterr().out))
        assert reports[1]["inputs"].pop("curve") == ["0", "0", "0"]
        reports[0]["inputs"].pop("curve")
        assert reports[0] == reports[1]

    def test_overflow_guard_exit(self, capsys):
        # exp(2z) at radius 400 exceeds the exp-argument cap
        code = main(["tf", "--input", str(PROBLEMS / "conic.prob"),
                     "--r-min", "380", "--r-max", "400", "--r-steps", "2"])
        assert code == EXIT_NUMERIC

    def test_unresolved_cluster_exit(self, tmp_path, capsys):
        # P(z) e^z, whose double zeros at 1 +- 0.4i have cancellation
        # floors above the default zero_tol 1e-6
        path = tmp_path / "cluster.prob"
        path.write_text("[variety]\nM = 1\nn = 1\n\n[hypersurfaces]\n"
                        f"degree 1: {{{UNRESOLVED_CLUSTER}}}*x1\n\n[curve]\n1\nexp(z)\n")
        code = main(["zeros", "--input", str(path), "--target", "0", "--r", "3.4"])
        assert code == EXIT_NUMERIC
        assert "an unresolved cluster" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["tf", "--samples", "0"],
        ["tf", "--samples", "-4"],
        ["tf", "--samples", "65536"],
        ["tf", "--samples", "70000"],
        ["zeros", "--r", "-2"],
        ["zeros", "--r", "nan"],
        ["zeros", "--tol", "0"],
        ["zeros", "--tol", "-1"],
        ["zeros", "--tol", "nan"],
        ["zeros", "--zero-tol", "-1"],
        ["smt", "--zero-tol", "-1"],
        ["defects", "--zero-tol", "0"],
        ["defects", "--zero-tol", "inf"],
        ["smt", "--r-max", "6", "--r-steps", "3", "--epsilon", "nan"],
        ["tf", "--r-min", "nan"],
        ["tf", "--r-max", "inf"],
        ["filtration", "--N", "-1"],
        ["basis", "--N", "-3"],
        ["product", "--N", "0"],
        ["filtration", "--window", "0"],
        ["admissible", "--trials", "0"],
        ["admissible", "--trials", "-2"],
        ["admissible", "--smax", "-1"],
        ["smt", "--r-max", "6", "--r-steps", "3", "--trials", "0"],
        ["smt", "--r-max", "6", "--r-steps", "3", "--smax", "0"],
        ["hilbert", "--kmax", "-1"],
        ["hilbert", "--window", "5", "--kmax", "3"],
        ["filtration", "--N", "4", "--kmax", "0"],
        ["basis", "--N", "4", "--kmax", "1"],
        ["product", "--N", "4", "--kmax", "1"],
        ["smt", "--r-max", "6", "--r-steps", "3", "--kmax", "1"],
    ], ids="_".join)
    def test_out_of_range_numeric_flag(self, argv, capsys):
        code = main(argv + ["--input", str(PROBLEMS / "conic.prob")])
        assert code == EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert "precondition failure" in err
        key = argv[-2].lstrip("-").replace("-", "_")
        assert f"{key} must be" in err

    @pytest.mark.parametrize("command, key, value", [
        ("tf", "samples", "abc"),
        ("hilbert", "samples", "abc"),  # a key the command never reads
        ("tf", "r_steps", "2.5"),
        ("tf", "r_max", "1e400"),
        ("tf", "r_max", "abc"),
        ("hilbert", "kmax", "6.5"),
        ("admissible", "seed", "inf"),
    ])
    def test_uncastable_option(self, command, key, value, tmp_path, capsys):
        prob = tmp_path / "options.prob"
        text = (PROBLEMS / "conic.prob").read_text().rstrip("\n")
        prob.write_text(f"{text}\n{key} = {value}\n")
        assert main([command, "--input", str(prob)]) == EXIT_PARSE
        err = capsys.readouterr().err
        line = len(text.splitlines()) + 1
        assert err.startswith(f"parse error: line {line}, col 1: [options] {key} must be ")
        assert key in err and value in err

    def test_zero_radius_has_no_zeros(self, capsys):
        code = main(["zeros", "--input", str(PROBLEMS / "conic.prob"),
                     "--r", "0", "--format", "json"])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["results"]["count"] == 0

    def test_smt_deterministic_bytes(self, tmp_path):
        outs = []
        for name in ("s1.csv", "s2.csv"):
            path = tmp_path / name
            code = main(["smt", "--input", str(PROBLEMS / "p1_line.prob"),
                         "--r-steps", "4", "--seed", "7",
                         "--format", "csv", "--out", str(path)])
            assert code == EXIT_OK
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]


PLANE_TEMPLATE = """
[variety]
M = 2
n = 2

[hypersurfaces]
{targets}

[curve]
1
exp(z)
exp(2*z)
"""


@pytest.mark.parametrize("command, need", [
    ("filtration", "the filtration needs q >= n = 2 targets"),
    ("basis", "the filtration needs q >= n = 2 targets"),
    ("product", "the filtration needs q >= n = 2 targets"),
    ("admissible", "admissibility needs q >= n + 1 = 3 targets"),
    ("smt", "admissibility needs q >= n + 1 = 3 targets"),
])
def test_too_few_targets(command, need, tmp_path, capsys):
    # n = 2 with a single hypersurface: no filtration and no admissible subset
    path = tmp_path / "plane.prob"
    path.write_text(PLANE_TEMPLATE.format(targets="degree 1: x0"))
    assert main([command, "--input", str(path)]) == EXIT_PRECONDITION
    assert f"precondition failure: {need}, got q = 1" in capsys.readouterr().err


def test_n_targets_filter_but_need_one_more_for_admissibility(tmp_path, capsys):
    path = tmp_path / "plane.prob"
    path.write_text(PLANE_TEMPLATE.format(targets="degree 1: x0\ndegree 1: x1"))
    assert main(["filtration", "--input", str(path), "--N", "3"]) == EXIT_OK
    assert main(["admissible", "--input", str(path)]) == EXIT_PRECONDITION
    assert "needs q >= n + 1 = 3 targets, got q = 2" in capsys.readouterr().err


P1_TEMPLATE = """
[variety]
M = 1
n = 1

[hypersurfaces]
{targets}

[curve]
1
{curve}
"""


def _write_p1(tmp_path, targets, curve="exp(z)"):
    path = tmp_path / "p1.prob"
    path.write_text(P1_TEMPLATE.format(targets=targets, curve=curve))
    return path


FAST_CUBIC = """\
[variety]
M = 3
n = 1
x0*x2 - x1^2
x1*x3 - x2^2
x0*x3 - x1*x2

[hypersurfaces]
degree 1: 2*x0 - x1 + 2*x2 + 2*x3
degree 1: -x0 - x1 - x2 + 2*x3
degree 1: -x0 - 2*x1 + 2*x2 - x3

[curve]
1
exp(30*z)
exp(60*z)
exp(90*z)

[options]
kmax = 6
window = 2
seed = 57
smax = 6
trials = 3
"""


class TestSweepPipeline:
    def test_defects_match_smt_with_one_T_per_radius(self, tmp_path, monkeypatch):
        # each command passes characteristic_T its radius grid, each radius once
        calls = []
        original = nev.characteristic_T

        def counted(*args, **kwargs):
            radii = args[1]
            calls.extend(radii if isinstance(radii, (list, tuple)) else [radii])
            return original(*args, **kwargs)

        monkeypatch.setattr(nev, "characteristic_T", counted)
        grid = ["--r-max", "6", "--r-steps", "2"]
        problem = str(PROBLEMS / "conic.prob")
        payloads = {}
        for cmd in ("defects", "smt"):
            out = tmp_path / f"{cmd}.json"
            calls.clear()
            code = main([cmd, "--input", problem, *grid, "--format", "json",
                         "--out", str(out)])
            assert code == EXIT_OK
            payloads[cmd] = json.loads(out.read_text())["results"]
            assert calls == [5.0, 6.0]
        assert payloads["defects"]["defects"] == payloads["smt"]["defects"]
        assert payloads["defects"]["defect_sum"] == payloads["smt"]["defect_sum"]

    def test_sweep_evaluations_within_the_batch_budget(self, tmp_path, monkeypatch):
        # T_f, Jensen, the floor and the probes evaluate at most
        # _BATCH_POINTS points at a time (locate_zeros keeps its own chunks),
        # and tf covers conic.prob's 26 radii in a few evaluations per group
        # of 4: the grid and two arc levels
        sizes, locating = [], []
        original_eval, original_locate = nev.eval_on, nev.locate_zeros

        def counted(prog, z):
            if not locating:
                sizes.append(getattr(z, "size", 1))
            return original_eval(prog, z)

        def locate(*args, **kwargs):
            locating.append(True)
            try:
                return original_locate(*args, **kwargs)
            finally:
                locating.pop()

        monkeypatch.setattr(nev, "eval_on", counted)
        monkeypatch.setattr(nev, "locate_zeros", locate)
        problem = str(PROBLEMS / "conic.prob")
        assert main(["tf", "--input", problem, "--out", str(tmp_path / "tf.txt")]) == EXIT_OK
        assert len(sizes) <= 24 and max(sizes) <= nev._BATCH_POINTS
        sizes.clear()
        assert main(["smt", "--input", problem, "--r-steps", "6",
                     "--out", str(tmp_path / "smt.txt")]) == EXIT_OK
        assert max(sizes) <= nev._BATCH_POINTS

    def test_curve_residual_on_the_sweep_grid(self, tmp_path):
        # the twisted cubic as (1 : e^30z : e^60z : e^90z): at r = 10 its
        # exp arguments pass the guard, so only circles of the grid are probed
        path = tmp_path / "cubic_fast.prob"
        path.write_text(FAST_CUBIC)
        out = tmp_path / "smt.json"
        code = main(["smt", "--input", str(path), "--r-min", "2", "--r-max", "3",
                     "--r-steps", "2", "--format", "json", "--out", str(out)])
        assert code == EXIT_OK
        assert json.loads(out.read_text())["results"]["curve_residual"] < 1e-12

    def test_smt_reduces_each_degree_of_the_ideal_once(self, tmp_path, monkeypatch):
        # The dimension cross-check and the admissibility certificates share
        # one variety ideal, so no degree of it is reduced twice.
        degrees = []
        original = gg.ideal_graded_piece

        def recorded(J, extra, k):
            degrees.append(k)
            return original(J, extra, k)

        monkeypatch.setattr(gg, "ideal_graded_piece", recorded)
        code = main(["smt", "--input", str(PROBLEMS / "conic.prob"), "--r-max", "6",
                     "--r-steps", "2", "--out", str(tmp_path / "report.txt")])
        assert code == EXIT_OK
        assert degrees and len(degrees) == len(set(degrees)), sorted(degrees)

    def test_identically_zero_guard_scales_by_degree(self, tmp_path):
        # 2e-12 * x0^2 on (1 : z): |Q(f)| = 2e-12 lies below 1e-12 * ||f||^2
        # at every probe point, though above 1e-12 * ||f|| at |z| = 1.5
        path = _write_p1(tmp_path, "degree 2: 2/1000000000000*x0^2", curve="z")
        spec = load_problem(str(path))
        with pytest.raises(nev.IdenticallyZero):
            nev.sweep_data(spec.curve, spec.hypersurfaces, [5.0, 10.0])
        with pytest.raises(nev.IdenticallyZero):
            nev.smt_margin(spec.curve, spec.hypersurfaces, 1, 0.5, [5.0, 10.0])
        assert main(["defects", "--input", str(path)]) == EXIT_PRECONDITION

    def test_smt_target_vanishing_at_origin_is_precondition(self, tmp_path, monkeypatch,
                                                            capsys):
        # on (1 : z) the target x1 composes to z, and Jensen's formula needs
        # g(0) != 0; defects does not, and stays as it was
        path = _write_p1(tmp_path, "degree 1: x0\ndegree 1: x1\ndegree 1: x1 - 2*x0",
                         curve="z")
        assert main(["defects", "--input", str(path), "--r-steps", "2"]) == EXIT_OK
        capsys.readouterr()
        located = []
        monkeypatch.setattr(nev, "locate_zeros",
                            lambda *args, **kwargs: located.append(args))
        code = main(["smt", "--input", str(path), "--r-steps", "2"])
        assert code == EXIT_PRECONDITION
        assert capsys.readouterr().err == (
            "precondition failure: target 1 (x1) vanishes at z = 0 on the curve; "
            "Jensen's formula needs a nonzero value there\n")
        assert not located

    def test_defects_degree_zero_target_is_precondition(self, tmp_path, capsys):
        path = _write_p1(tmp_path, "degree 1: x0\ndegree 0: 3")
        code = main(["defects", "--input", str(path), "--r-steps", "2"])
        assert code == EXIT_PRECONDITION
        assert "precondition failure" in capsys.readouterr().err

    def test_zeros_non_polynomial_coefficient_is_precondition(self, tmp_path, capsys):
        path = _write_p1(tmp_path, "degree 1: {1/(1+z)}*x0")
        code = main(["zeros", "--input", str(path), "--r", "5"])
        assert code == EXIT_PRECONDITION
        assert "polynomial coefficients" in capsys.readouterr().err

    def test_grid_circle_zero_stays_below_jensen_gate(self, tmp_path):
        # Target 1 of conic.prob, (z^2/4 + 1)*x0^2, vanishes at +-2i, on the
        # grid circle r = 2.  With the zeros at their Newton limits, the
        # residual there is as small as one radius later
        for r_min in ("2", "2.1"):
            out = tmp_path / f"smt_{r_min}.json"
            code = main(["smt", "--input", str(PROBLEMS / "conic.prob"),
                         "--r-min", r_min, "--r-max", "3", "--r-steps", "3",
                         "--format", "json", "--out", str(out)])
            assert code == EXIT_OK
            payload = json.loads(out.read_text())
            assert payload["results"]["jensen_max"] < 1e-3 * nev.JENSEN_GATE
            assert not any("Jensen" in w for w in payload["warnings"])

    def test_jensen_residual_above_gate_warns(self, tmp_path, monkeypatch):
        # zeros misplaced by 1e-3 leave a residual far above the gate
        locate = nev.locate_zeros

        def misplaced(g, r, tol=1e-9, **kwargs):
            zl = locate(g, r, tol, **kwargs)
            return nev.ZeroList([(z + 1e-3, m) for z, m in zl.zeros], zl.radius)

        monkeypatch.setattr(nev, "locate_zeros", misplaced)
        out = tmp_path / "smt.json"
        code = main(["smt", "--input", str(PROBLEMS / "conic.prob"), "--r-min", "2.1",
                     "--r-max", "3", "--r-steps", "3", "--format", "json", "--out", str(out)])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        jensen_max = payload["results"]["jensen_max"]
        assert jensen_max >= nev.JENSEN_GATE
        assert [w for w in payload["warnings"] if "Jensen" in w] == [
            f"Jensen residual {jensen_max:.3g} is at or above the gate 1e-05; "
            "a zero may lie on a grid circle"]

    @pytest.mark.parametrize("r", ["3", "0"])
    def test_zeros_on_a_vanishing_target_is_precondition(self, r, tmp_path, capsys):
        # target 3 replaced by the variety's own generator, which vanishes
        # on the curve: the probe refuses it before the zero finder runs
        text = (PROBLEMS / "conic.prob").read_text()
        path = tmp_path / "vanishing.prob"
        path.write_text(text.replace("degree 2: x2^2 - 10*x0*x2 + 25*x0^2",
                                     "degree 2: x0*x2 - x1^2"))
        code = main(["zeros", "--input", str(path), "--target", "3", "--r", r])
        assert code == EXIT_PRECONDITION
        assert capsys.readouterr().err == (
            "precondition failure: the composed target vanishes at all probe points\n")


def _pool_problem(family: str, index: int) -> str:
    """The problem text of a benchmark pool entry, from bench/instances.py."""
    bench = str(PROBLEMS.parent / "bench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    import instances

    return instances.pool_entry(family, index)[1]


@pytest.mark.parametrize("problem, N, hilbert_value", [
    ("conic_exact", 256, 2 * 256 + 1),
    ("cubic_fixed_1", 48, 3 * 48 + 1),
])
def test_certified_table_builds_no_normal_forms_above_a_few_degrees(problem, N,
                                                                    hilbert_value):
    # u and H_V(N) are read off Gotzmann persistence, which starts by degree
    # 4 on both, so no normal-form table is built above degree 5 whatever N.
    if (PROBLEMS / f"{problem}.prob").exists():
        text = (PROBLEMS / f"{problem}.prob").read_text()
    else:
        family, index = problem.rsplit("_", 1)
        text = _pool_problem(family, int(index))
    spec = parse_problem(text)
    results = run_command("filtration", spec, {"N": N}).results
    assert results["sum_m"] == results["hilbert_value"] == hilbert_value
    assert max(spec.ideal._normal_forms) <= 5
