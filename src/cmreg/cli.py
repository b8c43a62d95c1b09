"""Command-line front end and the presentation file format.

A module file is plain UTF-8 text:

    char 101
    vars x y z
    order grevlex        # optional; grevlex is the default
    quotient             # optional block: one homogeneous polynomial per line
    x^2
    end
    gens 0 0             # generator twists a_i, one integer per generator
    rels                 # one relation per line: n comma-separated entries
    x^2, x*y
    y^2, 0
    end

Relations are written one per line but are columns of the presentation matrix
internally.  Polynomials use integer coefficients, `+ - * ^`, and juxtaposition
of declared variable names (`2xy^3` reads as `2*x*y^3`).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import re
import sys
import warnings
from dataclasses import asdict

from .core import (
    AlgebraError,
    GradedPresentation,
    GradedRing,
    NEG_INF,
    NonHomogeneous,
    ORDER_KEYS,
    ParseError,
    Polynomial,
    PrimeField,
    render_poly,
    validate_presentation,
)
from .invariants import hilbert_data, module_invariants, regularity, ring_invariants
from .modops import fitting_ideal_0, minimal_presentation, sym_power
from .complexes import complex_regularity_bound, complex_terms
from .bounds import (
    MAX_BOUND_DIGITS,
    degree_cap,
    ideal_bounds,
    multiplicity_bound_binomial,
    multiplicity_bound_series,
    multiplicity_bound_sum,
    refined_bracket_bound,
    refined_exact_bound,
)
from .verify import (
    FORMULA_IDS,
    audit,
    mayr_meyer,
    random_module,
    section_check,
    tower_check,
)

# -- polynomial and file parsing ------------------------------------------------------

_TOKEN = re.compile(r"(\d+)|([A-Za-z][A-Za-z0-9_]*)|([+\-*^])|(\S)")
_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


def _number(digits: str, line: int, col: int) -> int:
    """The integer `digits` spells; a ParseError past the interpreter's limit on
    integer string conversion."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"number too long ({len(digits)} digits)", line, col) from None


def _tokenize(text: str, line: int, col0: int) -> list[tuple[str, object, int]]:
    """Tokens with their columns, ending in (None, None, column just past the
    last token)."""
    toks: list[tuple[str, object, int]] = []
    end = col0 + 1
    for mt in _TOKEN.finditer(text):
        col = col0 + mt.start() + 1
        end = col0 + mt.end() + 1
        if mt.group(1) is not None:
            toks.append(("int", _number(mt.group(1), line, col), col))
        elif mt.group(2) is not None:
            toks.append(("name", mt.group(2), col))
        elif mt.group(3) is not None:
            toks.append(("op", mt.group(3), col))
        else:
            raise ParseError(f"unexpected character {mt.group(4)!r}", line, col)
    toks.append((None, None, end))
    return toks


def parse_polynomial(
    ring: GradedRing, text: str, line: int = 1, col0: int = 0
) -> Polynomial:
    """Parse one polynomial over the (plain) ring, with column diagnostics.

    With no parentheses in the grammar each term is a coefficient times a
    monomial, so terms are read straight into a dict; exponents are never expanded.
    """
    toks = _tokenize(text, line, col0)
    if len(toks) == 1:
        raise ParseError("empty polynomial", line, col0 + 1)
    index = {nm: i for i, nm in enumerate(ring.variables)}
    names_by_len = sorted(ring.variables, key=len, reverse=True)
    terms: dict[tuple[int, ...], int] = {}
    pos, sign = 0, 1
    if toks[0][:2] in (("op", "+"), ("op", "-")):
        pos, sign = 1, (-1 if toks[0][1] == "-" else 1)
    while True:
        coeff, exps = sign, [0] * ring.nvars
        while True:
            kind, val, col = toks[pos]
            pos += 1
            if kind == "int":
                if toks[pos][:2] == ("op", "^"):
                    raise ParseError("exponent must follow a variable", line, toks[pos][2])
                coeff *= val
            elif kind == "name":
                rest, parts = val, []
                while rest:  # greedy longest-match split of juxtaposed names
                    for nm in names_by_len:
                        if rest.startswith(nm):
                            parts.append(index[nm])
                            rest = rest[len(nm):]
                            break
                    else:
                        raise ParseError(f"unknown variable {val!r}", line, col)
                exp = 1
                if toks[pos][:2] == ("op", "^"):
                    ekind, exp, ecol = toks[pos + 1]
                    if ekind != "int":
                        raise ParseError("expected an integer exponent", line, ecol)
                    pos += 2
                for i in parts[:-1]:
                    exps[i] += 1
                exps[parts[-1]] += exp  # the exponent binds to the last name
            else:
                raise ParseError("expected a coefficient or a variable", line, col)
            if toks[pos][:2] == ("op", "*"):
                pos += 1
            elif toks[pos][0] not in ("int", "name"):
                break
        mono = tuple(exps)
        terms[mono] = terms.get(mono, 0) + coeff
        kind, val, col = toks[pos]
        if kind is None:
            return Polynomial(ring, terms)
        if kind != "op" or val not in "+-":
            raise ParseError("expected '+' or '-' between terms", line, col)
        pos, sign = pos + 1, (-1 if val == "-" else 1)


def parse_file(text: str) -> GradedPresentation:
    """Parse a module file into a validated presentation."""
    raw = text.splitlines()
    # (line number, stripped text, count of leading blanks): every column
    # reported is counted on the line as written
    content = [
        (no, s.strip(), len(s) - len(s.lstrip()))
        for no, line in enumerate(raw, start=1)
        for s in [line.split("#", 1)[0]]
        if s.strip()
    ]
    pos = 0
    lead = 0

    def take(what: str) -> tuple[int, str]:
        nonlocal pos, lead
        if pos >= len(content):
            raise ParseError(f"unexpected end of file, expected {what}", len(raw) or 1, 1)
        no, s, lead = content[pos]
        pos += 1
        return no, s

    def peek_word() -> str:
        return content[pos][1].split()[0] if pos < len(content) else ""

    no, s = take("'char <prime>'")
    mt = re.fullmatch(r"char\s+(\d+)", s)
    if not mt:
        raise ParseError("expected 'char <prime>'", no, lead + 1)
    field = PrimeField(_number(mt.group(1), no, lead + 1 + mt.start(1)))

    no, s = take("'vars <names>'")
    mt = re.fullmatch(r"vars\s+(.+)", s)
    if not mt:
        raise ParseError("expected 'vars <names>'", no, lead + 1)
    names = tuple(mt.group(1).split())
    for mt in re.finditer(r"\S+", s[4:]):
        if not _NAME.fullmatch(mt.group(0)):
            raise ParseError(f"bad variable name {mt.group(0)!r}", no, lead + 5 + mt.start())

    order = "grevlex"
    if peek_word() == "order":
        no, s = take("'order <name>'")
        order = s[5:].strip()
        if order not in ORDER_KEYS:
            raise ParseError(f"unsupported order {order!r}", no, lead + 7)
    base = GradedRing(field, names, order)

    quotient: list[Polynomial] = []
    if peek_word() == "quotient":
        take("'quotient'")
        while True:
            no, s = take("a quotient polynomial or 'end'")
            if s == "end":
                break
            quotient.append(parse_polynomial(base, s, no, lead))
    ring = GradedRing(field, names, order, tuple(quotient)) if quotient else base

    no, s = take("'gens <twists>'")
    if s.split()[0] != "gens":
        raise ParseError("expected 'gens <twists>'", no, lead + 1)
    twists: list[int] = []
    for mt in re.finditer(r"\S+", s[4:]):
        tok = mt.group(0)
        if not re.fullmatch(r"-?\d+", tok):
            raise ParseError(f"bad generator twist {tok!r}", no, lead + 5 + mt.start())
        twists.append(_number(tok, no, lead + 5 + mt.start()))
    if not twists:
        raise ParseError("a presentation needs at least one generator twist", no, lead + 1)

    no, s = take("'rels'")
    if s != "rels":
        raise ParseError("expected 'rels'", no, lead + 1)
    n = len(twists)
    columns: list[list[Polynomial]] = []
    while True:
        no, s = take("a relation line or 'end'")
        if s == "end":
            break
        pieces = s.split(",")
        if len(pieces) != n:
            raise ParseError(
                f"expected {n} comma-separated entries, got {len(pieces)}", no, lead + 1
            )
        col: list[Polynomial] = []
        off = lead
        for i, piece in enumerate(pieces):
            entry = parse_polynomial(base, piece, no, off)
            if not entry.is_homogeneous():
                raise NonHomogeneous(
                    f"line {no}, col {off + 1}: entry {i + 1} is not homogeneous"
                )
            col.append(entry)
            off += len(piece) + 1
        if all(e.is_zero() for e in col):
            raise ParseError("relation line is identically zero", no, lead + 1)
        columns.append(col)

    if pos < len(content):
        no, _, lead = content[pos]
        raise ParseError("unexpected content after final 'end'", no, lead + 1)

    matrix = [[columns[j][i] for j in range(len(columns))] for i in range(n)]
    return validate_presentation(ring, tuple(twists), matrix)


def serialize_presentation(pres: GradedPresentation) -> str:
    """Inverse of parse_file, up to whitespace."""
    ring = pres.ring
    out = [
        f"char {ring.field.p}",
        "vars " + " ".join(ring.variables),
        f"order {ring.order}",
    ]
    if ring.is_quotient:
        out.append("quotient")
        out.extend(render_poly(q) for q in ring.quotient_gens)
        out.append("end")
    out.append("gens " + " ".join(str(a) for a in pres.row_twists))
    out.append("rels")
    for j in range(pres.m):
        col = pres.column(j)
        if all(e.is_zero() for e in col):
            raise AlgebraError("cannot serialize a zero column; its degree would be lost")
        out.append(", ".join(render_poly(e) for e in col))
    out.append("end")
    return "\n".join(out) + "\n"


# -- shared output helpers -------------------------------------------------------------


def _render_series(num: dict[int, int]) -> str:
    if not num:
        return "0"
    parts = []
    for e in sorted(num):
        mag = abs(num[e])
        if e == 0:
            body = str(mag)
        else:
            body = ("t" if mag == 1 else f"{mag}*t") + (f"^{e}" if e != 1 else "")
        parts.append(("- " if num[e] < 0 else "+ ") + body)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") or not text else text + "\n")


def _verdict(ok: bool) -> str:
    return "pass" if ok else "FAIL"


def _csv_row(report) -> dict[str, object]:
    inst, comp = report.instance, report.computed
    row: dict[str, object] = {
        "seed": inst.get("seed", ""),
        "char": inst["char"],
        "p_vars": len(inst["variables"]),
        "n": len(inst["row_twists"]),
        "m": len(inst["column_degrees"]),
        "regularity": comp["regularity"],
        "dimension": comp["dimension"],
        "codimension": comp["codimension"],
    }
    verdicts = {v["formula"]: v["holds"] for v in report.verdicts}
    applicable = {e["formula"] for e in report.bounds if e["applicable"]}
    for fid in FORMULA_IDS:
        if fid in verdicts:
            row[fid] = "pass" if verdicts[fid] else "fail"
        elif fid in applicable:
            row[fid] = "unchecked"
        else:
            row[fid] = ""
    row["all_hold"] = "pass" if report.all_hold else "fail"
    return row


def _csv(reports) -> str:
    fields = [
        "seed", "char", "p_vars", "n", "m",
        "regularity", "dimension", "codimension",
        *FORMULA_IDS, "all_hold",
    ]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields)
    writer.writeheader()
    for rep in reports:
        writer.writerow(_csv_row(rep))
    return buf.getvalue()


def _audit_text(report) -> str:
    inst, comp = report.instance, report.computed
    ring_line = f"char {inst['char']}, vars {' '.join(inst['variables'])}, order {inst['order']}"
    if inst["quotient"]:
        ring_line += ", quotient (" + ", ".join(inst["quotient"]) + ")"
    lines = [
        f"instance: {ring_line}",
        f"module: gens at {tuple(inst['row_twists'])}, "
        f"relations at {tuple(inst['column_degrees'])}",
        f"computed: reg {comp['regularity']}, dim {comp['dimension']}, "
        f"codim {comp['codimension']}, e {comp['multiplicity']}, cm {comp['is_cm']}",
        f"{'formula':24} {'value':>12}  verdict",
    ]
    verdicts = {v["formula"]: v for v in report.verdicts}
    for e in report.bounds:
        if not e["applicable"]:
            continue
        v = verdicts.get(e["formula"])
        tail = f"{_verdict(v['holds'])} (actual {v['actual']})" if v else "unchecked"
        lines.append(f"{e['formula']:24} {e['value']:>12}  {tail}")
    lines.append("all bounds hold" if report.all_hold else "BOUND FAILURE")
    return "\n".join(lines)


# -- subcommand handlers ---------------------------------------------------------------
#
# Each handler takes the parsed file (None for commands without one) and the
# arguments, and returns (payload, text, ok): `main` prints the payload as JSON
# under --json and the text otherwise, and exits 2 when ok is false.


def _cmd_reg(pres, args):
    r = regularity(pres)
    return {"regularity": r}, f"reg = {r}", True


def _cmd_betti(pres, args):
    mi = module_invariants(pres)
    table = sorted(mi.betti.items())
    lines = [f"{'i':>3} {'j':>3} {'count':>6}"]
    lines += [f"{i:>3} {j:>3} {v:>6}" for (i, j), v in table]
    lines.append(f"reg = {mi.regularity}")
    payload = {"betti": [[i, j, v] for (i, j), v in table], "regularity": mi.regularity}
    return payload, "\n".join(lines), True


def _cmd_hilbert(pres, args):
    hd = hilbert_data(pres)
    dim = None if hd.dimension == NEG_INF else int(hd.dimension)  # JSON has no -inf
    payload = {
        "numerator": {str(e): c for e, c in sorted(hd.numerator.items())},
        "dimension": dim,
        "codimension": hd.codimension,
        "multiplicity": hd.multiplicity,
        "length": hd.length,
    }
    lines = [
        f"numerator: {_render_series(hd.numerator)}",
        f"dimension = {hd.dimension if dim is None else dim}",
        f"codimension = {hd.codimension}",
        f"multiplicity = {hd.multiplicity}",
        f"length = {hd.length if hd.length is not None else 'infinite'}",
    ]
    if hd.length is not None and hd.q_polynomial:
        values = ", ".join(f"{e}:{v}" for e, v in sorted(hd.q_polynomial.items()))
        lines.append(f"hilbert function: {values}")
    return payload, "\n".join(lines), True


def _cmd_audit(pres, args):
    report = audit(pres)
    text = _csv([report]) if args.csv else _audit_text(report)
    return asdict(report), text, report.all_hold


def _cmd_bounds(pres, args):
    report = audit(pres, check=False)
    values: dict[str, object] = {
        e["formula"]: e["value"] for e in report.bounds if e["applicable"]
    }
    # the instance records the minimal presentation's twists and degrees
    a, b = report.instance["row_twists"], report.instance["column_degrees"]
    n, m = len(a), len(b)
    comp = report.computed
    if args.B is not None and n != 1:
        raise AlgebraError(f"--B needs a cyclic module; its minimal presentation has {n} generators")
    c, delta = comp["codimension"], comp["dimension"]
    deg_r, reg_r = comp["ring"]["degree"], comp["ring"]["regularity"]
    if c >= 1 and m >= c + n - 1:
        values["mult_sum"] = multiplicity_bound_sum(a, b, c, deg_r)
        values["mult_series"] = multiplicity_bound_series(a, b, c, deg_r)
    if c >= 1 and m >= c:
        values["mult_binomial"] = multiplicity_bound_binomial(a, b, c, deg_r)
    if c >= 1 and m == c + n - 1:
        values["refined_exact"] = refined_exact_bound(a, b, c, reg_r)
    if delta >= 2 and m >= c + n:
        values["refined_bracket"] = refined_bracket_bound(a, b, c, delta, reg_r, deg_r)
    payload = {"instance": report.instance, "computed": comp, "bounds": values}
    lines = [f"computed reg = {comp['regularity']}"]
    lines += [f"{name:24} {value}" for name, value in values.items()]
    if n == 1:
        top = max(b) - a[0] if b else 0  # M = S(-a_0)/I, I generated in degrees b_j - a_0
        if args.B is not None and args.B < top:
            raise AlgebraError(f"--B {args.B} is below the ideal's top degree {top}")
        cap = args.B if args.B is not None else max(degree_cap(a, b), top)
        payload["ideal"] = ideal = ideal_bounds(
            pres.ring.nvars, cap, c=c, n=m, deg_r=deg_r, reg_r=reg_r
        )
        lines += [f"ideal.{name:18} {value}" for name, value in ideal.items()]
    return payload, "\n".join(lines), True


def _cmd_sym(pres, args):
    power = sym_power(minimal_presentation(pres), args.l)
    r = regularity(power) if not power.is_zero_module else None
    payload = {
        "l": args.l,
        "generators": power.n,
        "relations": power.m,
        "row_twists": list(power.row_twists),
        "regularity": r,
    }
    text = f"Sym^{args.l}: {power.n} generators, {power.m} relations\nreg = {r}"
    return payload, text, True


def _cmd_fitt(pres, args):
    minors = fitting_ideal_0(minimal_presentation(pres))
    # R itself when there are no minors, the zero module when a minor is a unit
    quotient = minimal_presentation(validate_presentation(pres.ring, (0,), [minors]))
    r = regularity(quotient) if not quotient.is_zero_module else None
    gens = [render_poly(g) for g in minors]
    lines = [f"fitting ideal: {len(minors)} generators", *(f"  {g}" for g in gens)]
    lines.append(f"reg(R/Fitt) = {r}")
    return {"generators": gens, "regularity_of_quotient": r}, "\n".join(lines), True


def _cmd_complex(pres, args):
    pres = minimal_presentation(pres)
    terms = complex_terms(pres.row_twists, pres.column_degrees, args.l)
    dim_r, _deg_r, reg_r, _cm = ring_invariants(pres.ring)
    delta = int(hilbert_data(pres).dimension)
    bound = complex_regularity_bound(terms, reg_r, dim_r) if delta <= 1 else None
    payload = {
        "l": args.l,
        "terms": [
            {"position": t.position, "label": t.label, "twists": list(t.twists)}
            for t in terms
        ],
        "bound": bound,
    }
    lines = [f"{'pos':>4} {'label':16} rank  twists"]
    lines += [f"{t.position:>4} {t.label:16} {t.rank:>4}  {tuple(t.twists)}" for t in terms]
    lines.append(f"regularity bound = {bound}" if bound is not None
                 else "regularity bound not applicable (module dimension > 1)")
    return payload, "\n".join(lines), True


def _cmd_section_check(pres, args):
    if len(args.linear) != 1:
        raise AlgebraError("section-check takes exactly one --linear")
    report = section_check(pres, parse_polynomial(pres.ring.base, args.linear[0]))
    lines = [
        f"form: {report.form}, torsion length {report.colon_length}",
        f"{'mu':>4} {'torsion>=mu':>12} {'section count':>14}",
        *(f"{mu:>4} {lhs:>12} {rhs:>14}" for mu, lhs, rhs in report.identity_rows),
        f"identity (cumulative): {_verdict(report.identity_cumulative)}",
        f"identity (per degree): {_verdict(report.identity_per_degree)}",
        f"window estimate:       {_verdict(report.upper_estimate)}",
        f"tail bound at mu*={report.mu_star}:  {_verdict(report.tail_bound)}",
    ]
    return asdict(report), "\n".join(lines), report.all_hold


def _cmd_tower(pres, args):
    forms = [parse_polynomial(pres.ring.base, text) for text in args.linear]
    report = tower_check(pres, forms)
    lines = [f"{'i':>3} {'form':12} {'reg':>5} {'torsion':>8} {'Q':>5}"]
    lines += [
        f"{i:>3} {form:12} {report.regularities[i]:>5} "
        f"{report.colon_lengths[i]:>8} {report.q_values[i]:>5}"
        for i, form in enumerate(report.forms)
    ]
    lines += [
        f"Q_{i} <= Q_{i + 1}^2: {_verdict(ok)}" for i, ok in enumerate(report.chain_holds)
    ]
    lines.append(
        f"reg(M) <= Q_s^(2^s) = {report.final_bound}: {_verdict(report.final_holds)}"
    )
    return asdict(report), "\n".join(lines), report.all_hold


def _random_trial(seed: int, trial: int, order: str):
    """Deterministic (shape, module) for one trial of a batch run."""
    shape_rng = random.Random(f"cmreg-shape-{seed}-{trial}")
    params = dict(
        p_vars=shape_rng.randint(1, 3),
        n=shape_rng.randint(1, 3),
        m=shape_rng.randint(1, 5),
        max_a=2,
        max_b=4,
        density=0.4 + 0.6 * shape_rng.random(),
        order=order,
    )
    instance_seed = shape_rng.randrange(2**32)
    pres = random_module(instance_seed, **params)
    return pres, {"seed": seed, "trial": trial, **params}


def _file_text(pres):
    text = serialize_presentation(pres)
    return {"presentation": text}, text, True


def _cmd_random(_pres, args):
    if not args.audit:
        if args.trials != 1 or args.csv:
            raise AlgebraError("--trials and --csv require --audit")
        return _file_text(_random_trial(args.seed, 0, args.order)[0])
    if args.trials < 1:
        raise AlgebraError("--trials must be at least 1")
    reports = []
    for trial in range(args.trials):
        pres, info = _random_trial(args.seed, trial, args.order)
        reports.append(audit(pres, instance=info))
    if args.csv:
        text = _csv(reports)
    else:
        text = "\n".join(
            f"trial {rep.instance['trial']:>3}: vars {len(rep.instance['variables'])}, "
            f"gens {len(rep.instance['row_twists'])}, "
            f"rels {len(rep.instance['column_degrees'])}, "
            f"reg {rep.computed['regularity']} -> {_verdict(rep.all_hold)}"
            for rep in reports
        )
    return [asdict(r) for r in reports], text, all(r.all_hold for r in reports)


def _cmd_mayr_meyer(_pres, args):
    return _file_text(mayr_meyer(args.l))


# -- argument plumbing -----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this tool reserves 2 for failed bounds."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="cmreg", description="regularity bounds, audited")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, *, file_arg=True, help=""):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        if file_arg:
            p.add_argument("file", help="module file, or - for stdin")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    add("reg", _cmd_reg, help="Castelnuovo-Mumford regularity")
    add("betti", _cmd_betti, help="graded Betti table")
    add("hilbert", _cmd_hilbert, help="Hilbert series data")

    p = add("audit", _cmd_audit, help="every applicable bound vs computed values")
    p.add_argument("--csv", action="store_true", help="one CSV row per audit")

    p = add("bounds", _cmd_bounds, help="bound values only, no verdicts")
    p.add_argument("--B", type=int, default=None, help="degree cap for the ideal table")

    p = add("sym", _cmd_sym, help="symmetric power of the module")
    p.add_argument("--l", type=int, default=1, help="power (default 1)")

    add("fitt", _cmd_fitt, help="0-th Fitting ideal and its quotient")

    p = add("complex", _cmd_complex, help="two-sided approximation complex terms")
    p.add_argument("--l", type=int, default=1, help="power (default 1)")

    p = add("section-check", _cmd_section_check, help="torsion vs sections identities")
    p.add_argument("--linear", action="append", required=True, help="linear form")

    p = add("tower", _cmd_tower, help="squaring recursion along a quotient tower")
    p.add_argument("--linear", action="append", required=True,
                   help="linear form (repeat per level)")

    p = add("random", _cmd_random, file_arg=False, help="seeded random instances")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--audit", action="store_true", help="audit instead of printing")
    p.add_argument("--csv", action="store_true", help="one CSV row per trial")
    p.add_argument("--order", choices=sorted(ORDER_KEYS), default="grevlex")

    p = add("mayr-meyer", _cmd_mayr_meyer, file_arg=False,
            help="doubly exponential worst-case ideal")
    p.add_argument("--l", type=int, default=1, help="level (1 or 2)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    try:
        args = parser.parse_args(argv)
        pres = parse_file(_read_source(args.file)) if "file" in args else None
        # every bound within the budget prints, past Python's limit on the
        # digits of a converted int (0, or absent before 3.10.7: no limit),
        # which the file was parsed under; the limit is restored for callers
        # that run `main` in-process
        if digits:
            sys.set_int_max_str_digits(max(digits, MAX_BOUND_DIGITS))
        with warnings.catch_warnings(record=True) as caught:
            payload, text, ok = args.handler(pres, args)
        for w in caught:
            print(f"warning: {w.message}", file=sys.stderr)
        _emit(json.dumps(payload) if args.json else text)
        return 0 if ok else 2
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except (AlgebraError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if digits:
            sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
