import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from cmreg import modops
from cmreg.cli import (
    main,
    parse_file,
    parse_polynomial,
    serialize_presentation,
)
from cmreg.core import (
    GradedRing,
    NonHomogeneous,
    NonPrime,
    ParseError,
    Polynomial,
    PrimeField,
)
from cmreg.verify import mayr_meyer
from test_cli_outputs import EXPECTED, SAMPLES

F = PrimeField(101)
R2 = GradedRing(F, ("x", "y"))

FILE2 = SAMPLES["readme"]
FILE3 = "char 101\nvars x y z\ngens 0\nrels\nx^2\nx*y\nend\n"


@pytest.fixture
def pres2(tmp_path):
    path = tmp_path / "m2.pres"
    path.write_text(FILE2)
    return str(path)


@pytest.fixture
def pres3(tmp_path):
    path = tmp_path / "m3.pres"
    path.write_text(FILE3)
    return str(path)


# -- polynomial syntax ---------------------------------------------------------------


def test_parse_polynomial_basics():
    x, y = R2.gens()
    assert parse_polynomial(R2, "x^2 + 3*x*y") == x * x + 3 * x * y
    assert parse_polynomial(R2, "2xy^3") == 2 * x * y**3  # juxtaposition
    assert parse_polynomial(R2, "xy^2") == x * y * y  # exponent binds the last name
    assert parse_polynomial(R2, "-x + 5") == -1 * x + R2.constant(5)
    assert parse_polynomial(R2, "0").is_zero()
    assert parse_polynomial(R2, "100*x") == -1 * x  # coefficients live mod p


def test_parse_polynomial_longest_match_names():
    ring = GradedRing(F, ("x", "x2", "b0_1"))
    x, x2, b01 = ring.gens()
    assert parse_polynomial(ring, "x2") == x2  # not x * 2
    assert parse_polynomial(ring, "xx2") == x * x2
    assert parse_polynomial(ring, "b0_1^2 x") == b01 * b01 * x


def test_parse_reads_terms_without_polynomial_arithmetic(monkeypatch):
    def forbidden(*_args):
        raise AssertionError("the reader called Polynomial arithmetic")

    for op in ("__mul__", "__rmul__", "__add__", "__sub__", "__pow__"):
        monkeypatch.setattr(Polynomial, op, forbidden)
    for text in SAMPLES.values():
        parse_file(text)
    for text in ("x^2 + 3*x*y", "2xy^3", "xy^2", "-x + 5", "0", "100*x"):
        parse_polynomial(R2, text)
    ring = GradedRing(F, ("x", "x2", "b0_1"))
    for text in ("x2", "xx2", "b0_1^2 x"):
        parse_polynomial(ring, text)


# each malformed entry, parsed as if it began at line 4, column 11
PARSE_ERRORS = [
    ("", "empty polynomial", 11),
    ("2^3", "exponent must follow a variable", 12),
    ("3x 2^2", "exponent must follow a variable", 15),
    ("x^y", "expected an integer exponent", 13),
    ("x^", "expected an integer exponent", 13),
    ("x + + y", "expected a coefficient or a variable", 15),
    ("x y^2 *", "expected a coefficient or a variable", 18),
    ("x^2 + ", "expected a coefficient or a variable", 16),
    ("x %", "unexpected character '%'", 13),
    ("x^2 + q", "unknown variable 'q'", 17),
    ("xq", "unknown variable 'xq'", 11),
    ("x^2^3", "expected '+' or '-' between terms", 14),
]


def test_parse_polynomial_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_polynomial(R2, "x^2 + q", line=4)
    assert err.value.line == 4 and err.value.col == 7
    for text, message, col in PARSE_ERRORS:
        with pytest.raises(ParseError) as err:
            parse_polynomial(R2, text, 4, 10)
        assert (err.value.line, err.value.col) == (4, col), text
        assert str(err.value) == f"line 4, col {col}: {message}"


# -- file format ---------------------------------------------------------------------


def test_parse_file_minimal():
    pres = parse_file(FILE2)
    assert pres.ring == R2
    assert pres.row_twists == (0,)
    assert pres.column_degrees == (2, 2)


def test_parse_file_full_round_trip():
    text = (
        "char 7\n"
        "vars x y z\n"
        "order lex\n"
        "quotient\n"
        "x^2 + y^2\n"
        "end\n"
        "gens 0 -1\n"
        "rels\n"
        "x*y, z^3\n"
        "0, x^3\n"
        "end\n"
    )
    pres = parse_file(text)
    assert pres.ring.order == "lex" and pres.ring.is_quotient
    assert pres.row_twists == (0, -1)
    again = parse_file(serialize_presentation(pres))
    assert again.ring == pres.ring
    assert again.row_twists == pres.row_twists
    assert again.column_degrees == pres.column_degrees
    assert again.matrix == pres.matrix


def test_parse_file_accepts_a_tab_after_order(monkeypatch, capsys):
    text = "char 101\nvars x y\norder\tlex\ngens 0\nrels\nx^2\nend\n"
    pres = parse_file(text)
    assert pres.ring.order == "lex"
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["reg", "-"]) == 0
    assert capsys.readouterr().out == "reg = 1\n"
    with pytest.raises(ParseError, match="line 3, col 7: unsupported order 'weight'"):
        parse_file("char 101\nvars x\norder\tweight\ngens 0\nrels\nend\n")
    with pytest.raises(ParseError, match="line 3, col 7: unsupported order ''"):
        parse_file("char 101\nvars x\norder\ngens 0\nrels\nend\n")


def test_parse_file_accepts_comments_and_free_modules():
    pres = parse_file("# a free module\nchar 101\nvars x\ngens 0 2\nrels\nend\n")
    assert pres.m == 0 and pres.row_twists == (0, 2)


def test_parse_file_diagnostics():
    with pytest.raises(NonPrime):
        parse_file("char 4\nvars x\ngens 0\nrels\nend\n")
    with pytest.raises(NonHomogeneous):
        parse_file("char 101\nvars x y\ngens 0\nrels\nx + y^2\nend\n")
    with pytest.raises(ParseError, match="expected 2 comma-separated"):
        parse_file("char 101\nvars x y\ngens 0 0\nrels\nx\nend\n")
    with pytest.raises(ParseError, match="identically zero"):
        parse_file("char 101\nvars x y\ngens 0\nrels\n0\nend\n")
    with pytest.raises(ParseError, match="unsupported order"):
        parse_file("char 101\nvars x\norder weight\ngens 0\nrels\nend\n")
    with pytest.raises(ParseError, match="unexpected end of file"):
        parse_file("char 101\nvars x\ngens 0\nrels\nx^2\n")
    with pytest.raises(ParseError, match="after final"):
        parse_file("char 101\nvars x\ngens 0\nrels\nend\nextra\n")
    with pytest.raises(ParseError, match="bad generator twist"):
        parse_file("char 101\nvars x\ngens q\nrels\nend\n")


# -- commands ------------------------------------------------------------------------


def test_reg_command_prints_expected_line(pres2, capsys):
    assert main(["reg", pres2]) == 0
    assert capsys.readouterr().out == "reg = 1\n"


def test_reg_command_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(FILE2))
    assert main(["reg", "-"]) == 0
    assert capsys.readouterr().out == "reg = 1\n"


def test_betti_command_json(pres2, capsys):
    assert main(["betti", pres2, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"betti": [[0, 0, 1], [1, 2, 2], [2, 3, 1]], "regularity": 1}


def test_hilbert_command(pres2, capsys):
    assert main(["hilbert", pres2, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["dimension"] == 1 and data["multiplicity"] == 1
    assert data["numerator"] == {"0": 1, "2": -2, "3": 1}


def test_hilbert_text_keeps_negative_exponents(tmp_path, capsys):
    path = tmp_path / "twisted.pres"
    path.write_text(
        "char 7\nvars x y z\nquotient\nx^2 + y^2\nend\n"
        "gens 0 -1\nrels\nx*y, z^3\n0, x^3\nend\n"
    )
    assert main(["hilbert", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "numerator: t^-1 + 1 - t - 3*t^2 + 2*t^4"
    )


def test_hilbert_command_on_the_zero_module(tmp_path, capsys):
    path = tmp_path / "zero.pres"
    path.write_text("char 101\nvars x y\ngens 0\nrels\n1\nend\n")
    assert main(["hilbert", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["numerator: 0", "dimension = -inf"]
    assert "length = 0" in lines
    assert main(["hilbert", str(path), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["dimension"] is None  # JSON has no -inf
    assert data["numerator"] == {} and data["multiplicity"] == 0 and data["length"] == 0


def test_audit_json_schema_is_stable(pres2, capsys):
    assert main(["audit", pres2, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {"instance", "computed", "bounds", "verdicts", "timings"}
    assert {"char", "variables", "order", "quotient", "row_twists", "column_degrees"} <= set(
        data["instance"]
    )
    for entry in data["bounds"]:
        assert set(entry) == {"formula", "l", "value", "applicable"}
    for verdict in data["verdicts"]:
        assert set(verdict) == {"formula", "bound", "actual", "holds"}
        assert verdict["holds"] is True
    assert {"regularity", "dimension", "codimension", "multiplicity", "betti", "ring"} <= set(
        data["computed"]
    )


def test_bounds_json_carries_main_six(pres3, capsys):
    assert main(["bounds", pres3, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["bounds"]["main"] == 6
    assert "verdicts" not in data["bounds"]
    assert data["ideal"]["small_p"] == 4  # three variables, cap 2


def test_bounds_B_override(pres3, capsys):
    assert main(["bounds", pres3, "--B", "3", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ideal"]["small_p"] == 3 * (3 - 1) + 1


def test_bounds_ideal_cap_covers_the_ideals_degrees(tmp_path, capsys):
    # M = S(3)/(x^3): the ideal (x^3) is generated in degree 3, and reg S/(x^3) = 2
    path = tmp_path / "twisted.pres"
    path.write_text("char 101\nvars x y z\ngens -3\nrels\nx^3\nend\n")
    assert main(["bounds", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["ideal"]["small_p"] == 7
    path.write_text("char 101\nvars x y z\ngens 0\nrels\nx^3\nend\n")
    assert main(["bounds", str(path), "--B", "2"]) == 1
    assert "below the ideal's top degree 3" in capsys.readouterr().err


def test_bounds_B_on_a_non_cyclic_module_is_usage_error(tmp_path, capsys):
    path = tmp_path / "two.pres"
    path.write_text("char 101\nvars x y\ngens 0 0\nrels\nx, y\nend\n")
    assert main(["bounds", str(path), "--B", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--B needs a cyclic module" in captured.err and "2 generators" in captured.err
    assert main(["bounds", str(path)]) == 0


def test_sym_fitt_complex_commands(pres2, capsys):
    assert main(["sym", pres2, "--l", "2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["regularity"] == 1
    assert main(["fitt", pres2, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["generators"] == ["x^2", "x*y"]
    assert main(["complex", pres2, "--l", "1", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["bound"] == 2
    assert [t["position"] for t in data["terms"]] == [0, 1, 2]


def test_sym_command_on_the_zero_module(tmp_path, capsys):
    path = tmp_path / "zero.pres"
    path.write_text("char 101\nvars x y\ngens 0\nrels\n1\nend\n")
    assert main(["sym", str(path), "--l", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "Sym^1: 0 generators, 0 relations",
        "reg = None",
    ]
    assert main(["sym", str(path), "--l", "2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["regularity"] is None and data["generators"] == 0


def test_fitt_command_on_the_zero_module(tmp_path, capsys):
    # one minor, the unit 1: R/Fitt_0 is the zero module
    path = tmp_path / "zero.pres"
    path.write_text("char 101\nvars x y\ngens 0\nrels\n1\nend\n")
    assert main(["fitt", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "reg(R/Fitt) = None"
    assert main(["fitt", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["regularity_of_quotient"] is None


@pytest.mark.parametrize("quotient, reg_r", [("", 0), ("quotient\nx*z - y^2\nend\n", 1)])
def test_fitt_command_without_minors_reads_reg_r(tmp_path, capsys, quotient, reg_r):
    # a 2 x 1 matrix has no maximal minors: R/Fitt_0 is R itself
    path = tmp_path / "narrow.pres"
    path.write_text(f"char 101\nvars x y z\n{quotient}gens 0 0\nrels\nx, 0\nend\n")
    assert main(["fitt", str(path), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"generators": [], "regularity_of_quotient": reg_r}


def test_section_check_command(pres2, capsys):
    assert main(["section-check", pres2, "--linear", "y", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["colon_length"] == 1
    assert data["identity_cumulative"] and data["tail_bound"]


def test_section_check_reads_every_h0_without_a_graph_colon(pres2, capsys, monkeypatch):
    # S/(x^2, xy): (U : y^oo) / U has finite length on U's degree-first basis,
    # so each saturation round is read off a degree-first run
    graph_colons = []
    colon = modops.colon

    def counted(*args):
        graph_colons.append(args)
        return colon(*args)

    monkeypatch.setattr(modops, "colon", counted)
    assert main(["section-check", pres2, "--linear", "x+y"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "identity (cumulative): pass" in lines
    assert "identity (per degree): pass" in lines
    assert not graph_colons


def test_section_check_answers_one_degree_below_the_packing_limit(monkeypatch, capsys):
    # M = S/(x) + S(-32766): M/yM has a column of degree 32767, MAX_DEGREE
    # above the smallest twist, so the check answers, as the tower does; one
    # degree higher every route through M/yM refuses (test_verify)
    text = "char 101\nvars x y\ngens 0 32766\nrels\nx, 0\nend\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["section-check", "-", "--linear", "y"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "identity (cumulative): pass" in lines
    assert "identity (per degree): pass" in lines


def test_tower_command(pres3, capsys):
    assert main(["tower", pres3, "--linear", "z", "--linear", "y", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["q_values"] == [2, 2] and data["final_holds"]


def test_random_command_round_trips(capsys):
    assert main(["random", "--seed", "3"]) == 0
    text = capsys.readouterr().out
    pres = parse_file(text)
    assert not pres.is_zero_module
    assert main(["random", "--seed", "3"]) == 0
    assert capsys.readouterr().out == text  # deterministic


def test_file_emitting_commands_wrap_the_file_under_json(capsys):
    for argv in (["random", "--seed", "3"], ["mayr-meyer", "--l", "1"]):
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert main([*argv, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {"presentation": text}
        assert serialize_presentation(parse_file(data["presentation"])) == text


def test_random_audit_csv(capsys):
    assert main(["random", "--seed", "7", "--trials", "4", "--audit", "--csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 5
    header = lines[0].split(",")
    assert "main" in header and "all_hold" in header
    assert all(line.split(",")[-1] == "pass" for line in lines[1:])


def test_random_trials_without_audit_is_usage_error(capsys):
    assert main(["random", "--trials", "3"]) == 1
    assert main(["random", "--seed", "3", "--csv"]) == 1
    for trials in ("0", "-2"):
        assert main(["random", "--trials", trials, "--audit"]) == 1
    assert capsys.readouterr().out == ""


def test_mayr_meyer_command_round_trips(capsys):
    assert main(["mayr-meyer", "--l", "1"]) == 0
    pres = parse_file(capsys.readouterr().out)
    reference = mayr_meyer(1)
    assert pres.ring == reference.ring
    assert pres.column_degrees == reference.column_degrees
    assert pres.matrix == reference.matrix
    assert main(["mayr-meyer", "--l", "0"]) == 1


# -- exit codes ----------------------------------------------------------------------


def test_usage_errors_exit_one(capsys):
    assert main(["not-a-command"]) == 1
    assert main(["reg"]) == 1
    assert main([]) == 1


def test_bad_input_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.pres"
    bad.write_text("char 4\nvars x\ngens 0\nrels\nend\n")
    assert main(["reg", str(bad)]) == 1
    assert "not prime" in capsys.readouterr().err
    assert main(["reg", str(tmp_path / "missing.pres")]) == 1


def test_degree_past_the_engine_limit_exits_one(tmp_path, capsys):
    # the second exponent is read as a number; expanding it would never finish
    for exponent in (40000, 99999999999):
        big = tmp_path / "big.pres"
        big.write_text(f"char 101\nvars x y\ngens 0\nrels\nx^{exponent}\ny\nend\n")
        assert main(["reg", str(big)]) == 1
        assert "exceeds" in capsys.readouterr().err


def test_number_past_the_conversion_limit_is_a_parse_error(tmp_path, capsys):
    # past 4,300 digits int() refuses a decimal string; each number is a token
    huge = "9" * 5000
    cases = [
        (f"char 101\nvars x y\ngens 0 0\nrels\nx, {huge}x\nend\n", 5, 4),
        (f"char {huge}\nvars x y\ngens 0\nrels\nx\nend\n", 1, 6),
        (f"char 101\nvars x y\ngens 0 {huge}\nrels\nx, y\nend\n", 3, 8),
    ]
    for text, line, col in cases:
        path = tmp_path / "long.pres"
        path.write_text(text)
        assert main(["reg", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"parse error: line {line}, col {col}: number too long"), err


def test_columns_count_from_the_start_of_an_indented_line(tmp_path, capsys):
    cases = [
        # the same fault without and with four leading blanks
        ("char 101\nvars x y\ngens 0 0\nrels\nx, y^\nend\n", 5, 6, "expected an integer exponent"),
        ("char 101\nvars x y\ngens 0 0\nrels\n    x, y^\nend\n", 5, 10, "expected an integer exponent"),
        ("char 101\nvars x y\nquotient\n  x +\nend\n", 4, 6, "expected a coefficient or a variable"),
        ("  char 1o1\n", 1, 3, "expected 'char <prime>'"),
        ("char 101\n vars x1x 1x\n", 2, 11, "bad variable name '1x'"),
        ("char 101\nvars x y\n   gens 0 a\n", 3, 11, "bad generator twist 'a'"),
        ("char 101\nvars x y\ngens 0\nrels\nx\nend\n   extra\n", 7, 4, "unexpected content after final 'end'"),
    ]
    for text, line, col, message in cases:
        path = tmp_path / "indented.pres"
        path.write_text(text)
        assert main(["reg", str(path)]) == 1
        assert capsys.readouterr().err == f"parse error: line {line}, col {col}: {message}\n", text
    with pytest.raises(NonHomogeneous, match="line 5, col 4: entry 2"):
        parse_file("char 101\nvars x y\ngens 0 0\nrels\n x, y + x^2\nend\n")


def test_failed_verdict_exits_two(pres2, capsys, monkeypatch):
    # poison one formula so the soundness canary trips
    monkeypatch.setattr("cmreg.verify.main_bound", lambda *a, **k: -1)
    assert main(["audit", pres2]) == 2
    assert "FAIL" in capsys.readouterr().out



# -- the CLI checks, one row each ----------------------------------------------------


def _generic_quadrics(count: int) -> str:
    """S/I in k[x, y], I spanned by `count` seeded quadrics."""
    rng = random.Random(count)
    coefficients = ([rng.randint(1, 100) for _ in range(3)] for _ in range(count))
    rows = "".join(f"{c}*x^2 + {d}*x*y + {e}*y^2\n" for c, d, e in coefficients)
    return f"char 101\nvars x y\ngens 0\nrels\n{rows}end\n"


# A row: a file below on stdin, the command, its exit code, and a line of stdout or
# stderr or a predicate on the JSON stdout.  No row may print a traceback.  Under
# "timeout <s>" the command runs in its own interpreter, under that limit.
CLI_FILES = {
    "sample": FILE2,
    "quotient": "char 101\nvars x y\nquotient\nx^2\nend\ngens 0\nrels\nx*y\nend\n",
    "lowtwist": "char 101\nvars x y z\ngens -2 1\nrels\nx^4, y\ny^2, 0\nx*z^3, z\nend\n",
    "lexorder": "char 101\nvars x y z\norder lex\ngens 3 3 4\nrels\nx, y, 0\n0, z^2, x\nend\n",
    "highexp": "char 101\nvars x y\ngens 0\nrels\nx^990*y\ny^2\nend\n",
    "t-32766": "char 101\nvars x y\ngens 0 32766\nrels\nx, 0\nend\n",
    "t-32767": "char 101\nvars x y\ngens 0 32767\nrels\nx, 0\nend\n",
    "x^32766": "char 101\nvars x y\ngens 0\nrels\nx^32766\nend\n",
    "random-3": json.loads(EXPECTED.read_text())["random --seed 3"]["stdout"],
    "finite": "char 101\nvars x y\ngens 0\nrels\nx^2\nx*y\ny^2\nend\n",
    "generic-2x2": "char 101\nvars x y\ngens 0 0\nrels\n21*x + 94*y, 39*x + 32*y\n74*x + 87*y, 55*x + 81*y\nend\n",
    "xy": "char 101\nvars x y\ngens 0\nrels\nx*y\nend\n",
    "padded": "char 101\nvars x y\nquotient\nx^2\nend\ngens 0 5\nrels\ny^5, -1\nend\n",
    "twin": "char 101\nvars x y\nquotient\nx^2\nend\ngens 0\nrels\nend\n",
    "redundant-rel": "char 101\nvars x y\nquotient\nx^2\nend\ngens 0\nrels\nx*y\nx*y^4\nend\n",
    "redundant-twin": "char 101\nvars x y\nquotient\nx^2\nend\ngens 0\nrels\nx*y\nend\n",
    "xy-y3": "char 101\nvars x y\ngens 0\nrels\nx*y\ny^3\nend\n",
    "xy-over-y3": "char 101\nvars x y\nquotient\ny^3\nend\ngens 0\nrels\nx*y\nend\n",
    "S(1)": "char 101\nvars x y\ngens -1\nrels\nx^2\ny^2\nend\n",
    "S(3)": "char 101\nvars x y z\ngens -3\nrels\nx*y\nx*z\nend\n",
    "S(-1)": "char 101\nvars x y z\ngens 1\nrels\nx^2\nend\n",
    "huge-exponent": "char 101\nvars x y\ngens 0\nrels\nx^99999999999\ny\nend\n",
    "18-digit-char": "char 1000000000000000003\nvars x y\ngens 0\nrels\nx^2\nend\n",
    "not-cm": "char 101\nvars x y\nquotient\nx^2\nx*y\nend\ngens 0\nrels\ny^2\nend\n",
    "30-quadrics": _generic_quadrics(30),
    "staircase-600": "char 101\nvars x y\ngens 0\nrels\n" + "".join(f"x^{i}*y^{600 - i}\n" for i in range(601)) + "end\n",
    "16-vars": f"char 101\nvars {' '.join(f'x{i}' for i in range(1, 17))}\ngens 0\nrels\nx1^2\nend\n",
    "12-vars": f"char 101\nvars {' '.join(f'x{i}' for i in range(1, 13))}\ngens 0\nrels\n"
    + "".join(f"x{i}\n" for i in range(1, 13)) + "end\n",
}


def _printed(n: int) -> str:
    """str(n) as the CLI prints it, past Python's default limit on the digits
    of a converted int."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


REGS = [("sample", 1, 1), ("quotient", 1, 1), ("lowtwist", 3, 2), ("lexorder", 4, 8)]  # reg M, Sym^2 M
LIMIT = "exceeds 32767, the packed terms' limit of 32767 above the smallest twist"
CLI_CHECKS = [
    ("quotient", "betti", 0, "reg = 1"),
    ("quotient", "section-check --linear y", 0, "identity (per degree): pass"),
    ("quotient", "tower --linear y --linear x", 0, "reg(M) <= Q_s^(2^s) = 4: pass"),
    # reg, off one Groebner basis, is the Betti table's, off Schreyer; Sym^1 M = M
    *[(f, cmd, 0, f"reg = {r}") for f, r, _ in REGS for cmd in ("reg", "sym --l 1")],
    *[(f, "betti --json", 0, lambda d, r=r: max(j - i for i, j, _ in d["betti"]) == r) for f, r, _ in REGS],
    *[(f, "sym --l 2", 0, f"reg = {r2}") for f, _, r2 in REGS],
    ("highexp", "reg", 0, "reg = 990"),  # the numerator splits on x^990 at once
    ("highexp", "hilbert", 0, "numerator: 1 - t^2 - t^991 + t^992"),
    # M/yM of S/(x) + S(-t) has a column of degree t + 1: the packing limit
    ("t-32766", "tower --linear y --json", 0, lambda d: d["q_values"] == [32767]),
    ("t-32767", "tower --linear y", 1, f"error: module degree 32768 {LIMIT}"),
    # a window of 32,769 degrees: the identity rows are suffix sums, one pass
    ("x^32766", "timeout 10 section-check --linear y", 0, "identity (per degree): pass"),
    ("random-3", "audit", 0, "all bounds hold"),
    # H0 = M at once, saturation rounds (y regular, y kills x), and the torsion of x
    ("finite", "section-check --linear y", 0, "identity (per degree): pass"),
    ("finite", "tower --linear y --linear x", 0, "reg(M) <= Q_s^(2^s) = 4: pass"),
    # a form in the span of the earlier ones cuts nothing: it kills the level
    ("quotient", "tower --linear y --linear y --json", 0,
     lambda d: d["q_values"] == [2, 3] and d["colon_lengths"] == [1, 2]),
    ("finite", "tower --linear x+y --linear x-y --linear x --json", 0,
     lambda d: d["q_values"] == [3, 2, 2] and d["colon_lengths"] == [2, 1, 1]),
    ("generic-2x2", "section-check --linear x+y", 0, "identity (cumulative): pass"),
    ("xy", "section-check --linear x+y", 0, "identity (cumulative): pass"),
    ("xy-y3", "section-check --linear x", 0, "identity (cumulative): pass"),
    ("xy-over-y3", "section-check --linear x", 0, "identity (cumulative): pass"),
    # b1 over S/J is read off the minimal presentation: q_values as the twin's
    ("padded", "tower --linear x+y --json", 0, lambda d: d["q_values"] == [2]),
    ("twin", "tower --linear x+y --json", 0, lambda d: d["q_values"] == [2]),
    # x*y^4 = y^3 * xy is redundant but no unit, so the minimal presentation
    # keeps it; a b1 that counted it would give mu* = q = 4
    *[(f, cmd, 0, expect) for f in ("redundant-rel", "redundant-twin") for cmd, expect in (
        ("section-check --linear y", "tail bound at mu*=2:  pass"),
        ("tower --linear y --json", lambda d: d["q_values"] == [2]),
    )],
    # a negative twist is valid input, and no refined_* falls below reg M[s]
    ("S(1)", "audit", 0, "all bounds hold"),
    *[(f, "bounds --json", 0, lambda d: min(v for k, v in d["bounds"].items() if k.startswith("refined_"))
       >= d["computed"]["regularity"]) for f in ("S(3)", "S(-1)")],
    # a huge exponent is read as a number, and an 18-digit prime is not trial-divided
    ("huge-exponent", "timeout 10 reg", 1, f"error: module degree 99999999999 {LIMIT}"),
    ("18-digit-char", "timeout 10 reg", 0, "reg = 1"),
    ("not-cm", "audit", 0, "warning: base ring is not Cohen-Macaulay: the bound is heuristic here"),
    # 30 relations: the complex bound reads no twist list; only `complex` lists them, and refuses
    ("30-quadrics", "timeout 10 audit", 0, "all bounds hold"),
    ("30-quadrics", "timeout 10 complex", 1,
     "error: complex position 5 has rank 142,506, past the 100,000 twists a term lists"),
    # S/(x, y)^600: 600 S-pairs, not 180,300, and a numerator split about log2 601 deep
    ("staircase-600", "timeout 10 hilbert", 0, "length = 180300"),
    # a bound past Python's 4,300 printed digits prints; one past the budget is refused
    ("16-vars", "timeout 10 audit", 0, f"{'main':24} {_printed(6 ** 8192)}  pass (actual 1)"),
    ("12-vars", "timeout 10 bounds", 1,
     "error: bayer_mumford would have about 12,016,154 digits, past the budget of 100,000"),
]


@pytest.mark.parametrize(
    "name, argv, code, expect", CLI_CHECKS, ids=[f"{n} {a}" for n, a, *_ in CLI_CHECKS]
)
def test_cli_check(name, argv, code, expect, monkeypatch, capsys):
    cmd, *rest = argv.split()
    if cmd == "timeout":
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        run = subprocess.run([sys.executable, "-m", "cmreg.cli", rest[1], "-", *rest[2:]], env=env,
                             input=CLI_FILES[name], capture_output=True, text=True, timeout=int(rest[0]))
        got, out, err = run.returncode, run.stdout, run.stderr
    else:
        monkeypatch.setattr("sys.stdin", io.StringIO(CLI_FILES[name]))
        got, (out, err) = main([cmd, "-", *rest]), capsys.readouterr()
    assert got == code and "Traceback" not in out + err
    assert expect(json.loads(out)) if callable(expect) else expect in (out + err).splitlines()


def test_main_prints_a_long_bound_and_restores_the_digit_limit(monkeypatch, capsys):
    # in-process, text and JSON: the 16-variable main bound (6,375 digits)
    # prints, and the interpreter's own limit is back afterwards
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    for flags in ([], ["--json"]):
        monkeypatch.setattr("sys.stdin", io.StringIO(CLI_FILES["16-vars"]))
        assert main(["audit", "-", *flags]) == 0
        assert _printed(6**8192) in capsys.readouterr().out
        assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit
