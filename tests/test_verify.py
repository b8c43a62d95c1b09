import argparse
import dataclasses
import random
from math import comb

import pytest

from cmreg import cli, groebner, invariants, modops, verify
from cmreg.bounds import sym_main_bound
from cmreg.core import AlgebraError, DegreeOverflow, GradedRing, PrimeField, ZeroModule, validate_presentation
from cmreg.groebner import presentation_elements
from cmreg.invariants import (
    _filter_regular_walk,
    betti_numbers,
    hilbert_data,
    hilbert_numerator,
    lead_ideals,
    numerator_of_gb,
    regularity,
    regularity_from_betti,
)
from cmreg.modops import (
    colon_kernel,
    fitting_ideal_0,
    h0_profile,
    minimal_presentation,
    quotient_by_linear,
    sym_power,
    torsion_hilbert,
)
from cmreg.verify import (
    FORMULA_IDS,
    audit,
    audit_random,
    mayr_meyer,
    random_complete_intersection,
    random_linear_form,
    random_module,
    random_polynomial,
    random_section_form,
    random_tower,
    section_check,
    tower_check,
)
from helpers import cyclic, reduced_basis, twisted, whole_module_walk
from test_acceptance import _modules_of_dimension
from test_invariants import _acceptance_box_module, _module_over_complete_intersection
from test_modops import _criterion_4_modules, _graph_torsion, _section_columns_agree

F = PrimeField(101)
R2 = GradedRing(F, ("x", "y"))
R3 = GradedRing(F, ("x", "y", "z"))
u, v = R2.gens()
x, y, z = R3.gens()


def with_cancelled_generator(pres, f):
    """The same module with one more generator e, in degree deg f above the
    first generator g, and the unit relation e + f*g = 0 that cancels it."""
    zero = f.ring.zero()
    rows = [list(row) + [f if i == 0 else zero] for i, row in enumerate(pres.matrix)]
    rows.append([zero] * pres.m + [f.ring.one()])
    twists = pres.row_twists + (pres.row_twists[0] + int(f.degree()),)
    return validate_presentation(pres.ring, twists, rows)


# -- random instances --------------------------------------------------------------


def test_random_module_is_deterministic():
    one = random_module(42, p_vars=3, n=2, m=4)
    two = random_module(42, p_vars=3, n=2, m=4)
    assert one.row_twists == two.row_twists
    assert one.column_degrees == two.column_degrees
    assert one.matrix == two.matrix
    other = random_module(43, p_vars=3, n=2, m=4)
    assert (one.row_twists, one.matrix) != (other.row_twists, other.matrix)


def test_random_module_respects_ranges():
    for seed in range(10):
        pres = random_module(seed, p_vars=2, n=3, m=5, max_a=2, max_b=4)
        assert not pres.is_zero_module
        assert all(0 <= a <= 2 for a in pres.row_twists)
        assert all(1 <= b <= 4 for b in pres.column_degrees)
        # degree-zero entries are never drawn, so presentations come back minimal
        assert all(
            e.is_zero() or e.degree() >= 1 for row in pres.matrix for e in row
        )


def test_random_module_is_its_own_minimal_presentation():
    # criterion 1's box and the small-characteristic draws: no unit entry, no
    # zero column and no quotient, so minimalization has nothing to do
    modules = [_acceptance_box_module(trial) for trial in range(200)]
    modules += [pres for pres, _ in _small_characteristic_modules()]
    for pres in modules:
        assert minimal_presentation(pres) == pres


def test_random_complete_intersection_certified():
    pres, degs = random_complete_intersection(7, p_vars=3, max_codim=3, max_degree=3)
    hd = hilbert_data(pres)
    assert hd.codimension == len(degs)
    assert regularity(pres) == sum(d - 1 for d in degs)
    prod = 1
    for d in degs:
        prod *= d
    assert hd.multiplicity == prod


# -- the audit ----------------------------------------------------------------------


def test_audit_low_dim_module_runs_every_family():
    pres = cyclic(R2, [u * u, u * v])  # dim 1 over a dim-2 ring
    report = audit(pres)
    names = {e["formula"] for e in report.bounds if e["applicable"]}
    assert names == {
        "sym_dim1_module_l1",
        "sym_dim1_module_l2",
        "sym_dim1_module_l3",
        "fitt_dim1_module",
        "uniform_dim1",
        "main",
        "complex",
    }
    assert report.all_hold
    by_name = {e["formula"]: e["value"] for e in report.bounds}
    assert by_name["main"] == 2
    assert by_name["uniform_dim1"] == 2
    assert by_name["complex"] == 2
    assert by_name["fitt_dim1_module"] == 2
    assert report.computed["regularity"] == 1
    assert report.computed["fitting_regularity"] == 1


def test_audit_high_dim_module_keeps_only_main():
    pres = cyclic(R3, [x * x, x * y])  # dim 2 over a dim-3 ring
    report = audit(pres)
    names = [e["formula"] for e in report.bounds if e["applicable"]]
    assert names == ["main"]
    assert report.bounds[0]["value"] == 6
    assert report.all_hold
    assert report.verdicts == [
        {"formula": "main", "bound": 6, "actual": 1, "holds": True}
    ]


def test_audit_over_dim1_ring():
    r1 = GradedRing(F, ("x",))
    t = r1.var("x")
    pres = validate_presentation(r1, (0, 0), [[t * t, r1.zero()], [r1.zero(), t * t]])
    report = audit(pres)
    names = {e["formula"] for e in report.bounds if e["applicable"]}
    assert {"sym_dim1_ring_l1", "fitt_dim1_ring", "uniform_dim1", "main"} <= names
    assert report.all_hold


def test_formula_ids_name_every_formula_the_criterion_1_box_scores():
    emitted = set()
    for trial in range(200):
        emitted |= {e["formula"] for e in audit(_acceptance_box_module(trial), check=False).bounds}
    assert len(set(FORMULA_IDS)) == len(FORMULA_IDS)
    assert emitted == set(FORMULA_IDS)


def test_audit_holds_on_every_twist_of_box_modules():
    # negative twists used to fail `main` and `uniform_dim1` on valid input
    # (4 + 4 of these 300 audits); the shift of reg is exact throughout
    scored = 0
    for trial in range(60):
        pres = _acceptance_box_module(trial)
        untwisted = set()
        for s in range(-2, 3):
            report = audit(twisted(pres, s))
            assert report.all_hold, (trial, s, report.verdicts)
            untwisted.add(report.computed["regularity"] - s)
            scored += any(v["formula"] == "main" for v in report.verdicts)
        assert len(untwisted) == 1
    assert scored == 300


def test_printed_only_formulas_hold_on_twists_of_the_box():
    # `cmreg bounds` prints refined_* and mult_* unscored, and sym_main_bound
    # has no caller in the library: score them on M[-3], M and M[3] with the
    # CLI's own hypotheses, against reg M, e(M) and reg Sym^l M
    failures, scored = [], {}

    def score(name, value, target):
        scored[name] = scored.get(name, 0) + 1
        if value < target:
            failures.append((trial, s, name, value, target))

    for trial in range(200):
        pres = _acceptance_box_module(trial)
        for s in (-3, 0, 3):
            pres_s = twisted(pres, s)
            payload, _, _ = cli._cmd_bounds(pres_s, argparse.Namespace(B=None))
            comp, ring = payload["computed"], payload["computed"]["ring"]
            for name, value in payload["bounds"].items():
                if name.startswith("refined_"):
                    score(name, value, comp["regularity"])
                elif name.startswith("mult_"):
                    score(name, value, comp["multiplicity"])
            a, b = payload["instance"]["row_twists"], payload["instance"]["column_degrees"]
            for l in (2, 3):
                if comp["dimension"] >= 2 and comb(len(a) + l - 1, l) <= verify.SYM_TARGET_GEN_LIMIT:
                    value = sym_main_bound(
                        a, b, comp["codimension"], comp["dimension"],
                        ring["regularity"], ring["degree"], l, ring["is_cm"],
                    )
                    score("sym_main", value, regularity(sym_power(minimal_presentation(pres_s), l)))
    assert not failures, failures
    assert scored == {
        "mult_sum": 429, "mult_series": 429, "mult_binomial": 429,
        "refined_exact": 195, "refined_bracket": 33, "sym_main": 318,
    }


def _permuted(pres, rng):
    """M with its generators (rows, with their twists) and its relations
    (columns) in a seeded order: the same module, presented otherwise."""
    rows, cols = rng.sample(range(pres.n), pres.n), rng.sample(range(pres.m), pres.m)
    return validate_presentation(
        pres.ring,
        tuple(pres.row_twists[i] for i in rows),
        [[pres.matrix[i][j] for j in cols] for i in rows],
        tuple(pres.column_degrees[j] for j in cols),
    )


def test_audit_is_invariant_under_permuting_generators_and_relations():
    # criterion 1's box; `audit` opens a scope per call, so M and its
    # permutation share no run
    rng = random.Random(4711)
    for trial in range(200):
        pres = _acceptance_box_module(trial)
        assert audit(_permuted(pres, rng)).computed == audit(pres).computed, trial


def test_audit_of_a_negatively_twisted_quotient():
    # S(1)/(x^2, y^2): reg 1, generated in degree -1
    report = audit(twisted(cyclic(R2, [u * u, v * v]), -1))
    assert report.computed["regularity"] == 1
    by_name = {v["formula"]: v["bound"] for v in report.verdicts}
    assert by_name["main"] == 1 and "uniform_dim1" not in by_name
    assert report.all_hold


def test_audit_rejects_zero_module():
    pres = cyclic(R2, [R2.one()])
    with pytest.raises(ZeroModule):
        audit(pres)


def test_audit_random_seeds_hold_and_repeat():
    one = audit_random(5, p_vars=3, n=2, m=4)
    two = audit_random(5, p_vars=3, n=2, m=4)
    assert one.all_hold
    assert one.bounds == two.bounds and one.verdicts == two.verdicts
    assert one.instance["seed"] == 5
    assert one.computed["betti"] == two.computed["betti"]


# -- section arithmetic --------------------------------------------------------------


def test_section_check_worked_example():
    pres = cyclic(R2, [u * u, u * v])
    report = section_check(pres, v)
    assert report.colon_length == 1
    assert report.kernel_by_degree == {1: 1}
    assert report.h0 == {1: 1}
    assert report.h0_bar == {0: 1, 1: 1}
    assert report.h0_bar_prime == {0: 1}
    assert report.mu_star == 2
    assert report.identity_cumulative and report.identity_per_degree
    assert report.upper_estimate and report.tail_bound
    assert report.all_hold


def test_section_check_regular_form_is_trivial():
    pres = cyclic(R3, [x * x, x * y])
    report = section_check(pres, z)  # z is a nonzerodivisor here
    assert report.colon_length == 0
    assert report.kernel_by_degree == {}
    assert report.all_hold


def test_section_check_finite_length_module():
    pres = cyclic(R2, [u * u, u * v, v * v])  # M = H0(M), so M' and Mbar' are zero
    report = section_check(pres, v)
    assert report.kernel_by_degree == {1: 2}
    assert report.h0 == {0: 1, 1: 2}
    assert report.h0_bar == {0: 1, 1: 1}
    assert report.h0_bar_prime == {}
    assert report.all_hold


def test_section_check_on_non_minimal_presentation():
    pres = with_cancelled_generator(cyclic(R2, [u * u, u * v]), v**4)
    assert pres.row_twists == (0, 4)
    reference = section_check(minimal_presentation(pres), v)
    report = section_check(pres, v)
    # mu* >= b0 + h - 1: a b0 read off the cancelled generator would give 4
    assert report.mu_star == reference.mu_star == 2
    assert report == reference


def test_generator_data_reads_reg_and_b0_as_the_betti_table_gives_them():
    """reg M, the walk on M's run, and b0, the top twist of M's minimal
    presentation, equal the values of M's Betti table on criterion 4's
    modules, the quotient box and the small-characteristic modules, and on
    each of them with a cancelled generator in a higher degree."""
    modules = [*_criterion_4_modules(), *(pres for pres, _ in _small_characteristic_modules())]
    modules += [pres for pres in map(_module_over_complete_intersection, range(200)) if not pres.is_zero_module]
    b0_sets_the_floor = 0
    for pres in modules:
        mi = invariants.module_invariants(minimal_presentation(pres))
        b0 = max(j for (i, j) in mi.betti if i == 0)
        ideal = validate_presentation(pres.ring.base, (0,), [pres.ring.quotient_gens])
        h = max(invariants.minimal_relation_degrees(ideal), default=1)
        b1 = invariants.minimal_relation_degrees(minimal_presentation(pres))
        expected = (mi.regularity, max([b0 + h, *b1]) - 2)
        assert verify._generator_data(pres) == expected
        padded = with_cancelled_generator(pres, pres.ring.base.gens()[0] ** 3)
        assert verify._generator_data(padded) == expected
        b0_sets_the_floor += b0 + h > max(b1, default=b0 + h)
    assert (len(modules), b0_sets_the_floor) == (430, 135)


def test_section_and_tower_checks_read_b1_off_the_minimal_presentation():
    """Over S/J, b1 is a count of the relations of the presentation it is
    read from, so a cancelled unit relation must not reach it: the padded
    S/(x^2) and its minimal twin, and seeded unit-entry paddings of modules
    over complete intersections, give the same reports."""
    quotient = "char 101\nvars x y\nquotient\nx^2\nend\n"
    padded = cli.parse_file(quotient + "gens 0 5\nrels\ny^5, -1\nend\n")
    twin = cli.parse_file(quotient + "gens 0\nrels\nend\n")
    s, t = padded.ring.base.gens()
    assert section_check(padded, s + t).mu_star == section_check(twin, s + t).mu_star == 2
    assert tower_check(padded, [s + t]).q_values == tower_check(twin, [s + t]).q_values == [2]

    rng = random.Random(8128)
    checked = 0
    for trial in range(16):
        pres = _module_over_complete_intersection(trial)
        if pres.is_zero_module:
            continue
        f = random_polynomial(rng, pres.ring.base, rng.randint(3, 5))
        padded = with_cancelled_generator(pres, f)
        l = random_section_form(pres, rng)
        assert section_check(padded, l) == section_check(pres, l), trial
        assert tower_check(padded, [l]) == tower_check(pres, [l]), trial
        checked += 1
    assert checked >= 10


def test_section_check_over_a_quotient_reads_b1_and_h_off_the_runs_it_makes(monkeypatch):
    """b1 and J's generator degrees are the flags of degree-first runs and
    reg M is the walk on M's run: on a ring that no earlier call has seen,
    `section_check` over S/J resolves neither M nor S/J, and no Buchberger
    run holds a column x_t * phi_j of the Nakayama quotient
    (im phi + JG) / (m im phi + JG).  Every column of this check is
    certified, so no fallback resolves anything else."""
    field = PrimeField(7919)
    s, t = GradedRing(field, ("x", "y")).gens()
    ring = GradedRing(field, ("x", "y"), quotient_gens=(s**3,))
    pres = validate_presentation(ring, (0,), [[s * t, t**3]])
    columns = modops._section_columns(pres, t)
    assert None not in (columns.h0_bar, columns.h0_bar_prime, columns.reg_bar)
    minimal = minimal_presentation(pres)
    m_phi = {
        frozenset((i, tuple(e + (k == var) for k, e in enumerate(m)), a) for (i, m), a in col.items())
        for col in presentation_elements(minimal)[-minimal.m :]
        for var in range(2)
    }

    resolved, inputs = [], []
    resolve, run = invariants.schreyer_resolution, groebner.buchberger

    def recording_resolve(p):
        resolved.append(p)
        return resolve(p)

    def recording_run(gens, codec, *args):
        inputs.extend(frozenset((i, m, a) for (i, m), a in codec.decode_element(g).items()) for g in gens)
        return run(gens, codec, *args)

    monkeypatch.setattr(invariants, "schreyer_resolution", recording_resolve)
    monkeypatch.setattr(groebner, "buchberger", recording_run)
    report = section_check(pres, t)
    assert report.all_hold and report.mu_star == 3
    assert resolved == []
    assert inputs and not m_phi & set(inputs)


def test_section_check_shifts_with_the_module():
    # on M[s], every degree in the report moves by s and nothing else changes;
    # `section_check` opens a scope per call, so M and M[s] share no run
    forms = random.Random(2025)  # criterion 4's forms, in its order
    for pres in _criterion_4_modules():
        l = random_section_form(pres, forms)
        report = section_check(pres, l)
        for s in (-1, 2):
            shifted = {f: {d + s: v for d, v in getattr(report, f).items()}
                       for f in ("kernel_by_degree", "h0", "h0_bar", "h0_bar_prime")}
            # with all four columns empty (11 of the 50) the window stays at its
            # default (-1, 2), and so do the identity rows
            w = s if any(shifted.values()) else 0
            assert section_check(twisted(pres, s), l) == dataclasses.replace(
                report,
                window=tuple(d + w for d in report.window),
                mu_star=report.mu_star + s,
                identity_rows=[(mu + w, lhs, rhs) for mu, lhs, rhs in report.identity_rows],
                **shifted,
            ), (report.form, s)


def _identity_by_sums(report):
    """(window, identity rows, both identities, window estimate) as
    `section_check` computed them before its one pass: each row sums every
    column past mu and each estimate its span, quadratic in the window."""
    kvals, hm, hb, hbp = report.kernel_by_degree, report.h0, report.h0_bar, report.h0_bar_prime
    support = set(hm) | set(hb) | set(hbp) | set(kvals)
    lo, hi = min(support, default=0) - 1, max(support, default=0) + 2
    rows, cumulative, per_degree = [], True, True
    for mu in range(lo, hi + 1):
        lhs = sum(v for e, v in kvals.items() if e >= mu)
        rhs = hm.get(mu, 0) + sum(v for e, v in hb.items() if e > mu) - sum(v for e, v in hbp.items() if e > mu)
        rows.append((mu, lhs, rhs))
        cumulative &= lhs == rhs
        step = hm.get(mu, 0) - hm.get(mu + 1, 0) + hb.get(mu + 1, 0) - hbp.get(mu + 1, 0)
        per_degree &= kvals.get(mu, 0) == step
    span = max(hm) - min(hm) + 1 if hm else 0
    upper = span == 0 or all(
        hm.get(mu + span, 0) <= sum(hb.get(mu + j, 0) - hbp.get(mu + j, 0) for j in range(1, span + 1))
        for mu in range(lo, hi + 1)
    )
    return (lo, hi), rows, cumulative, per_degree, upper


def test_identity_rows_equal_the_sums_they_replace(monkeypatch):
    # the one pass over the window against the sums it replaced, on criterion
    # 4's reports, the small-characteristic reports and criterion 4's columns
    # perturbed so that each identity and the window estimate fail somewhere
    seen = {"cumulative": set(), "per degree": set(), "window estimate": set()}

    def agrees(pres, l):
        report = section_check(pres, l)
        got = (report.window, report.identity_rows, report.identity_cumulative,
               report.identity_per_degree, report.upper_estimate)
        assert got == _identity_by_sums(report), report.form
        for flags, value in zip(seen.values(), got[2:]):
            flags.add(value)

    forms = random.Random(2025)  # criterion 4's forms, in its order
    cases = [(pres, random_section_form(pres, forms)) for pres in _criterion_4_modules()]
    small = 0
    for pres, stream in _small_characteristic_modules():
        try:
            l = random_section_form(pres, stream)
        except AlgebraError:
            continue
        agrees(pres, l)
        small += 1
    for pres, l in cases:
        agrees(pres, l)
    assert small >= 100 and seen == dict.fromkeys(seen, {True})

    own = verify._section_columns
    perturbations = (
        lambda c: c._replace(torsion=dataclasses.replace(
            c.torsion, q_polynomial={d + 1: n for d, n in c.torsion.q_polynomial.items()})),
        lambda c: c._replace(h0_bar={}),
        lambda c: c._replace(h0_bar_prime={d - 1: n for d, n in (c.h0_bar_prime or {}).items()}),
    )
    for perturb in perturbations:
        monkeypatch.setattr(verify, "_section_columns", lambda pres, l, perturb=perturb: perturb(own(pres, l)))
        for pres, l in cases:
            agrees(pres, l)
    assert seen == dict.fromkeys(seen, {False, True})


def test_random_section_form_finds_finite_torsion():
    pres = cyclic(R2, [u * u, u * v])
    rng = random.Random(3)
    l = random_section_form(pres, rng)
    assert section_check(pres, l).all_hold


def _drawn_by_quotients(pres, rng, levels):
    """Forms drawn as `random_tower` drew them before it read the adapted run:
    the same draws, each resampled until `torsion_hilbert` of it on the
    level, presented by `quotient_by_linear`, has finite length."""
    forms, cur = [], pres
    with groebner.memo_scope():
        for _ in range(levels):
            for _ in range(verify.FORM_ATTEMPTS):
                l = random_linear_form(rng, pres.ring)
                if torsion_hilbert(cur, l).length is not None:
                    break
            else:
                raise AlgebraError("no linear form with finite torsion found")
            forms.append(l)
            cur = quotient_by_linear(cur, l)
    return forms


def _draw_streams():
    """(module, stream, levels): criterion 5's 50 modules on its one stream,
    then the 180 small-characteristic modules with v levels on theirs."""
    rng = random.Random(33)
    for delta in (2, 3):
        for pres in _modules_of_dimension(delta, 25, 8800 + delta, (3,) if delta == 3 else (2, 3)):
            yield pres, rng, delta
    for pres, forms in _small_characteristic_modules():
        yield pres, forms, pres.ring.nvars


def test_forms_are_drawn_as_a_quotient_per_level_draws_them():
    # the same forms, or the same error, and the stream left in the same state
    streams = 0
    for pres, rng, levels in _draw_streams():
        start, outcomes = rng.getstate(), []
        for draw in (_drawn_by_quotients, random_tower):
            rng.setstate(start)
            try:
                got = draw(pres, rng, levels)
            except AlgebraError as error:
                got = (type(error), str(error))
            outcomes.append((got, rng.getstate()))
        assert outcomes[0] == outcomes[1], (streams, outcomes[0][0], outcomes[1][0])
        streams += 1
    assert streams == 230


# -- towers --------------------------------------------------------------------------


def test_tower_check_two_levels():
    pres = cyclic(R3, [x * x, x * y])  # dim 2: two forms take it down to dim 0
    report = tower_check(pres, [z, y])
    assert report.colon_lengths == [0, 1]
    assert report.q_values == [2, 2]
    assert report.chain_holds == [True]
    assert report.final_bound == 4  # Q_1 ** (2 ** 1)
    assert report.final_holds and report.all_hold


def test_tower_check_on_non_minimal_presentation():
    pres = with_cancelled_generator(cyclic(R3, [x * x, x * y]), z**4)
    reference = tower_check(minimal_presentation(pres), [z, y])
    report = tower_check(pres, [z, y])
    # Q_i = 1 + max(reg, len K, floor): a floor read off the cancelled degree-4
    # generator would be 3 and lift both values to 4
    assert report.q_values == reference.q_values == [2, 2]
    assert report == reference


def test_tower_check_random_forms():
    pres = cyclic(R3, [x * x, x * y])
    forms = random_tower(pres, random.Random(11), levels=2)
    assert len(forms) == 2
    assert tower_check(pres, forms).all_hold


def _tower_by_quotients(pres, forms):
    """(regularities, colon lengths) level by level, each level M/(l_1..l_i)M
    presented by `quotient_by_linear` and read by `regularity` and by
    `torsion_hilbert` of the next form: a run of its own per level."""
    regs, lengths, cur = [], [], pres
    for i, form in enumerate(forms):
        regs.append(regularity(cur))
        lengths.append(torsion_hilbert(cur, form).length)
        if lengths[-1] is None:
            raise AlgebraError(f"form {i + 1} has infinite torsion on level {i}")
        cur = quotient_by_linear(cur, form)
    return regs, lengths


def _tower_agrees(pres, forms):
    """`tower_check`'s levels equal `_tower_by_quotients`, or both report the
    same infinite torsion.  False when the tower is refused before its levels
    (a zero module, a negative twist)."""
    try:
        report = tower_check(pres, forms)
    except AlgebraError as error:
        if "infinite torsion" not in str(error):
            return False
        got = str(error)
    else:
        got = (report.regularities, report.colon_lengths)
    try:
        want = _tower_by_quotients(pres, forms)
    except AlgebraError as error:
        want = str(error)
    assert got == want, forms
    return True


def _small_characteristic_towers():
    """The modules of `test_small_characteristics`, each with a tower of v
    forms drawn from that test's form streams, where one is found."""
    for pres, forms in _small_characteristic_modules():
        try:
            yield pres, random_tower(pres, forms, levels=pres.ring.nvars)
        except AlgebraError:
            continue


def _criterion_5_towers(count):
    """The first `count` towers of criterion 5 in each dimension, drawn as its
    acceptance test draws them (every tower is drawn, to keep the stream)."""
    rng = random.Random(33)
    for delta in (2, 3):
        choices = (3,) if delta == 3 else (2, 3)
        for k, pres in enumerate(_modules_of_dimension(delta, 25, 8800 + delta, choices)):
            forms = random_tower(pres, rng, levels=delta)
            if k < count:
                yield pres, forms


def test_tower_levels_agree_with_a_quotient_per_level():
    # every level read off the one adapted run equals that level presented
    # and read on its own, on criterion 5's towers, the small-characteristic
    # towers, dependent forms and the degenerate inputs
    cases = [*_criterion_5_towers(8), *_small_characteristic_towers()]
    finite = cyclic(R2, [u * u, u * v, v * v])
    cases += [
        (cyclic(R2, [u * u]), [v, v]),
        (finite, [u + v, u - v, u]),
        (finite, [v] * 4),
        (cyclic(R3, [x * x, x * y]), [z, 2 * z, y, z + y]),
    ]
    for seed in range(200):
        pres, l, l2 = _degenerate_input(seed)
        cases += [(pres, [l, l2]), (pres, [l, l2, l])]
    agreed = sum(_tower_agrees(pres, forms) for pres, forms in cases)
    assert agreed >= 300, agreed


def test_tower_falls_back_on_the_quotient_where_a_walk_is_not_certified(monkeypatch):
    # no walk certifies: every level past the first presents its quotient,
    # and the levels still agree; `_generator_data`'s reg M, one call per
    # tower on M itself, is not a quotient fallback
    fallbacks = []
    own = verify.regularity

    def counted(pres):
        fallbacks.append(pres)
        return own(pres)

    monkeypatch.setattr(verify, "_filter_regular_walk", lambda ideals, twists, k, nvars: None)
    monkeypatch.setattr(verify, "regularity", counted)
    cases = [*_criterion_5_towers(3), (cyclic(R2, [u * u, u * v, v * v]), [u + v, u - v, u])]
    for pres, forms in cases:
        assert _tower_agrees(pres, forms)
    modules = {pres for pres, _ in cases}
    quotients = [pres for pres in fallbacks if pres not in modules]
    assert len(quotients) == sum(len(forms) - 1 for _, forms in cases)
    assert len(fallbacks) == len(quotients) + len(cases)


def test_finite_torsion_is_found_without_presenting_the_torsion(monkeypatch):
    # picking forms and walking a tower need only len K, read off the adapted
    # run: one degree-first run per drawn form and none for M (a memo hit
    # would not count), none for a whole tower, which reads its draw's run,
    # no graph colon and no presentation of K
    modules = _criterion_4_modules()
    counts = {"forms": 0, "runs": 0, "colons": 0}
    inside = []
    draw, basis, run = verify.random_linear_form, modops.groebner, groebner.buchberger
    syzygies = modops.syzygies_of

    def counted_draw(*args):
        counts["forms"] += 1
        return draw(*args)

    def torsion_basis(*args):
        inside.append(True)
        try:
            return basis(*args)
        finally:
            inside.pop()

    def counted_run(*args):
        counts["runs"] += bool(inside)
        return run(*args)

    def counted_syzygies(*args, **kwargs):
        counts["colons"] += 1
        return syzygies(*args, **kwargs)

    def no_presentation(pres):
        raise AssertionError("the torsion module was presented")

    monkeypatch.setattr(verify, "random_linear_form", counted_draw)
    monkeypatch.setattr(modops, "groebner", torsion_basis)
    monkeypatch.setattr(groebner, "buchberger", counted_run)
    monkeypatch.setattr(modops, "syzygies_of", counted_syzygies)
    monkeypatch.setattr(modops, "minimal_presentation", no_presentation)
    rng = random.Random(2025)
    for pres in modules[:5]:
        random_section_form(pres, rng)
    assert counts["runs"] == counts["forms"] and counts["forms"] >= 5
    assert counts["colons"] == 0
    for pres in modules[25:30]:  # dimension 2: two levels
        forms = random_tower(pres, rng, levels=2)
        counts["runs"] = 0
        tower_check(pres, forms)
        assert counts["runs"] == 0  # the draw's adapted run
    assert counts["colons"] == 0


def test_torsion_at_the_packing_limit():
    # M = S/(x) + S(-t): M/yM has a column of degree t + 1, so at t = 32767
    # (MAX_DEGREE above the smallest twist) every route through N(M/yM)
    # raises, as regularity and section_check do; at t = 32766 the torsion,
    # the form draw and the tower answer
    ring = GradedRing(PrimeField(101), ("x", "y"))
    x, y = ring.var("x"), ring.var("y")
    below = validate_presentation(ring, (0, 32766), [[x], [ring.zero()]])
    assert torsion_hilbert(below, y).length == 0
    assert torsion_hilbert(below, random_section_form(below, random.Random(1))).length == 0
    assert tower_check(below, [y]).q_values == [32767]
    at = validate_presentation(ring, (0, 32767), [[x], [ring.zero()]])
    for route in (
        lambda: torsion_hilbert(at, y),
        lambda: random_section_form(at, random.Random(1)),
        lambda: tower_check(at, [y]),
        lambda: section_check(at, y),
        lambda: regularity(at),
    ):
        with pytest.raises(DegreeOverflow, match="module degree 32768"):
            route()


def test_every_tower_level_keeps_the_packing_limit():
    # S/(x^e) cut by y, or by x + y, has reg e - 1 and depth 0, so reg + pd,
    # the degree a minimal resolution of the level may reach, is e + 1: at
    # e = 32767 level 1 is refused as `regularity` refuses it, whatever the
    # second form; at e = 32766 the tower answers
    ring = GradedRing(PrimeField(101), ("x", "y"))
    x, y = ring.var("x"), ring.var("y")
    below = validate_presentation(ring, (0,), [[x**32766]])
    at = validate_presentation(ring, (0,), [[x**32767]])
    for forms, q_values in (([y, x], [32766, 32766]), ([y, y], [32766, 32767]), ([x + y, y], [32766, 32766])):
        report = tower_check(below, forms)
        assert (report.regularities, report.q_values) == ([32765, 32765], q_values)
        with pytest.raises(DegreeOverflow, match="module degree 32768"):
            tower_check(at, forms)


def test_tower_final_bound_stays_within_the_digit_budget():
    # S/(x^2, xy, y^2) has finite length, so every form has finite torsion on
    # every level: 20 levels put Q_s^(2^19) past the budget, refused untaken
    ring = GradedRing(PrimeField(101), ("x", "y"))
    x, y = ring.var("x"), ring.var("y")
    pres = validate_presentation(ring, (0,), [[x * x, x * y, y * y]])
    assert tower_check(pres, [y] * 16).all_hold
    with pytest.raises(AlgebraError, match="^final_bound would have about"):
        tower_check(pres, [y] * 20)


def test_section_and_tower_checks_resolve_nothing_where_the_walks_certify(monkeypatch):
    modules = _criterion_4_modules()
    resolved = []
    schreyer = invariants.schreyer_resolution

    def counted(pres):
        resolved.append(pres)
        return schreyer(pres)

    monkeypatch.setattr(invariants, "schreyer_resolution", counted)
    rng = random.Random(2025)
    pres = modules[0]
    assert not pres.ring.is_quotient
    l = random_section_form(pres, rng)
    resolved.clear()
    section_check(pres, l)
    # reg M and reg M/lM are walks on certified steps: no resolution
    assert resolved == []
    pres = modules[25]
    forms = random_tower(pres, rng, levels=2)
    resolved.clear()
    tower_check(pres, forms)
    assert resolved == []


# -- the adapted-run slot ------------------------------------------------------------


def _run_after(prime, check):
    """check's result when it runs right after prime, and whether it built an
    adapted run of its own: a built run replaces the slot's entry, a hit
    leaves it."""
    prime()
    before = modops._LAST_RUN.get()
    result = check()
    return result, modops._LAST_RUN.get() is not before


def _cold(check):
    modops._LAST_RUN.set(None)
    return check()


def test_a_check_after_a_draw_on_another_input_builds_its_run_again():
    # another form on the same module, the same form on a twist of the
    # module and a tower after a run of its first level alone each build
    # their own run, and report what they report cold; the same input again
    # is a hit
    pres = _criterion_4_modules()[25]
    rng = random.Random(2025)
    forms = random_tower(pres, rng, levels=2)
    other = random_section_form(pres, rng)
    assert other not in forms
    cases = [
        (lambda: random_section_form(pres, random.Random(2025)), lambda: section_check(pres, other), True),
        (lambda: modops._adapted_run(pres, [other]), lambda: section_check(twisted(pres, 1), other), True),
        (lambda: modops._adapted_run(pres, forms[:1]), lambda: tower_check(pres, forms), True),
        (lambda: modops._adapted_run(pres, forms), lambda: tower_check(pres, forms), False),
    ]
    for prime, check, built in cases:
        assert _run_after(prime, check) == (_cold(check), built)


def test_checks_report_the_same_with_the_slot_warm_and_reset():
    # criterion 4's 50 section checks and criterion 5's 50 towers, each
    # right after its draw (a slot hit) and with the slot reset before it
    forms = random.Random(2025)  # criterion 4's forms, in its order
    hits = 0
    for pres in _criterion_4_modules():
        l = random_section_form(pres, forms)
        warm, built = _run_after(lambda: None, lambda: section_check(pres, l))
        assert warm == _cold(lambda: section_check(pres, l)), warm.form
        hits += not built
    for pres, tower in _criterion_5_towers(25):
        warm, built = _run_after(lambda: None, lambda: tower_check(pres, tower))
        assert warm == _cold(lambda: tower_check(pres, tower)), warm.forms
        hits += not built
    assert hits == 100


def test_the_slot_holds_immutable_tuples():
    pres = _criterion_4_modules()[0]
    l = random_section_form(pres, random.Random(2025))
    key, run = modops._LAST_RUN.get()
    assert key == (pres, (l,))
    ideals, left = run
    assert type(ideals) is tuple and all(type(monos) is frozenset for monos in ideals)
    assert type(left) is tuple and all(type(k) is int for k in left)
    assert modops._adapted_run(pres, [l]) is run
    assert isinstance(hash(run), int)  # hashable, so immutable all through


# -- worst-case family ---------------------------------------------------------------


def test_mayr_meyer_rejects_out_of_range_levels():
    for bad in (0, -1, 3):
        with pytest.raises(AlgebraError):
            mayr_meyer(k=bad)


def test_mayr_meyer_level_one_shape():
    pres = mayr_meyer(k=1, d=2)
    assert pres.ring.nvars == 21
    assert pres.m == 4 + 8
    assert sorted(pres.column_degrees) == [2] * 4 + [4] * 8
    gens = [pres.matrix[0][j] for j in range(pres.m)]
    assert len({str(g) for g in gens}) == pres.m  # pairwise distinct
    assert all(g.is_homogeneous() for g in gens)


def test_mayr_meyer_scales_with_level_and_exponent():
    pres = mayr_meyer(k=2, d=3)
    assert pres.ring.nvars == 31
    assert pres.m == 4 + 16
    assert sorted(pres.column_degrees) == [2] * 8 + [5] * 12


# -- small characteristics -----------------------------------------------------------


def _small_characteristic_modules():
    """Seeded modules over F_2, F_3 and F_5, grevlex and lex, 30 of each, with
    the stream of forms that their characteristic and order share."""
    for p in (2, 3, 5):
        for order in ("grevlex", "lex"):
            forms = random.Random(p * 10 + len(order))
            for t in range(30):
                shape = random.Random(9000 + t)
                pres = random_module(
                    9000 + t,
                    p_vars=shape.randint(1, 3),
                    n=shape.randint(1, 3),
                    m=shape.randint(1, 5),
                    char=p,
                    order=order,
                )
                yield pres, forms


def test_small_characteristics():
    """Seeded modules over F_2, F_3 and F_5, grevlex and lex: `audit` holds, a
    certified walk equals the Betti table's reg, a position-over-term run
    gives the Hilbert numerator, and wherever a form with finite torsion is
    found, `section_check` holds and its columns equal the rounds route.  An
    uncertified walk and a missing form are counted as such."""
    counts = {"modules": 0, "certified walk": 0, "uncertified walk": 0, "form": 0, "no form": 0}
    columns = dict.fromkeys(["certified", "h0_bar fallback", "h0_bar_prime fallback", "reg_bar fallback"], 0)
    for pres, forms in _small_characteristic_modules():
        counts["modules"] += 1
        base, a = pres.ring.base, pres.row_twists
        cols = presentation_elements(pres)
        with groebner.memo_scope():
            assert audit(pres).all_hold
            walk = _filter_regular_walk(
                lead_ideals(groebner.groebner(cols, base, a).lts, len(a)), a, base.nvars, base.nvars
            )
            betti_reg = regularity_from_betti(betti_numbers(pres))
            assert hilbert_numerator(pres) == numerator_of_gb(reduced_basis(cols, base, a))
        if walk is None:
            counts["uncertified walk"] += 1
        else:
            assert walk[0] == betti_reg
            counts["certified walk"] += 1
        try:
            l = random_section_form(pres, forms)
        except AlgebraError:
            counts["no form"] += 1
            continue
        counts["form"] += 1
        report = section_check(pres, l)
        assert report.all_hold
        _section_columns_agree(pres, l, columns)
        kernel = _graph_torsion(pres, l)
        assert (report.colon_length, report.kernel_by_degree) == (kernel.length, kernel.q_polynomial)
        with groebner.memo_scope():
            mbar = quotient_by_linear(pres, l)
            _, mprime = h0_profile(pres)
            assert report.h0_bar == h0_profile(mbar)[0].h0_by_degree
            assert report.h0_bar_prime == h0_profile(quotient_by_linear(mprime, l))[0].h0_by_degree
    print(f"small characteristics: {counts}; section columns: {columns}")
    assert counts["certified walk"] >= 100 and counts["form"] >= 100, counts


def _walk_or_zero(walk, ideals, twists, k, nvars):
    try:
        return walk(ideals, twists, k, nvars)
    except ZeroModule:
        return "zero module"


def test_split_walk_equals_the_whole_module_walk(monkeypatch):
    """The walk split over the components equals the walk on the whole
    module (`helpers.whole_module_walk`), None included, on every walk of the
    audits of the box, the quotient box and the small-characteristic modules,
    of the latter's section checks, of criterion 5's towers, and on
    hand-built components that end at different steps."""
    seen = []
    split = invariants._filter_regular_walk

    def recorded(ideals, twists, k, nvars):
        seen.append((tuple(ideals), tuple(twists), k, nvars))
        return split(ideals, twists, k, nvars)

    for module in (invariants, modops, verify):
        monkeypatch.setattr(module, "_filter_regular_walk", recorded)
    for trial in range(200):
        audit(_acceptance_box_module(trial))
        pres = _module_over_complete_intersection(trial)
        if not pres.is_zero_module:
            audit(pres)
    for pres, forms in _small_characteristic_modules():
        audit(pres)
        try:
            section_check(pres, random_section_form(pres, forms))
        except AlgebraError:
            continue
    for pres, forms in _criterion_5_towers(25):
        tower_check(pres, forms)

    # over k[x, y]: (x^2) ends at step 1, (x^2, y^3) at step 0, the free
    # component at step 2; (xy) is not certified at step 0
    x2, x2y3, unit, free, xy = (
        frozenset(monos) for monos in ([(2, 0)], [(2, 0), (0, 3)], [(0, 0)], [], [(1, 1)])
    )
    hand_built = [
        ((x2, x2y3, unit, free), (0, 1, 5, 2), 2, 2),
        ((x2, unit), (3, 0), 2, 2),
        ((x2y3, free, x2), (0, 0, 0), 1, 2),
        ((x2, xy), (0, 0), 2, 2),
        ((xy, x2y3), (0, 0), 2, 2),
        ((unit, unit), (0, 1), 2, 2),
    ]
    assert split(*hand_built[0]) == (4, 0)
    assert split(*hand_built[3]) is None

    walks = set(seen) | set(hand_built)
    uncertified = 0
    for args in walks:
        invariants._ideal_walk.cache_clear()
        got = _walk_or_zero(split, *args)
        assert got == _walk_or_zero(whole_module_walk, *args), args
        uncertified += got is None
    assert len(walks) >= 700 and uncertified >= 50, (len(walks), uncertified)
    assert sum(k < nvars for _, _, k, nvars in walks) >= 100

# -- degenerate inputs ---------------------------------------------------------------


def _degenerate_input(seed):
    """A small seeded presentation with what the random boxes avoid: zero
    columns, negative twists, unit entries, lex orders, characteristics 2 and
    3 and quotient rings; plus two linear forms."""
    rng = random.Random(seed)
    field = PrimeField(rng.choice((2, 3, 101)))
    names = ("x", "y", "z")[: rng.randint(1, 3)]
    order = rng.choice(("grevlex", "lex"))
    base = GradedRing(field, names, order)
    quotient = (random_polynomial(rng, base, rng.randint(1, 3)),) if rng.random() < 0.4 else ()
    ring = GradedRing(field, names, order, quotient)
    twists = [rng.randint(-2, 2) for _ in range(rng.randint(1, 2))]
    rows, degrees = [[] for _ in twists], []
    for _ in range(rng.randint(0, 3)):
        d = rng.randint(min(twists), max(twists) + 3)
        zero = rng.random() < 0.3
        for row, a in zip(rows, twists):
            keep = not zero and d >= a and rng.random() < 0.7
            row.append(random_polynomial(rng, base, d - a) if keep else base.zero())
        degrees.append(d)
    pres = validate_presentation(ring, twists, rows, degrees)
    return pres, random_linear_form(rng, ring), random_linear_form(rng, ring)


ENTRY_POINTS = {
    "regularity": lambda pres, l, l2: regularity(pres),
    "betti_numbers": lambda pres, l, l2: betti_numbers(pres),
    "hilbert_data": lambda pres, l, l2: hilbert_data(pres),
    "minimal_presentation": lambda pres, l, l2: minimal_presentation(pres),
    "h0_profile": lambda pres, l, l2: h0_profile(pres),
    "colon_kernel": lambda pres, l, l2: colon_kernel(pres, l),
    "section_check": lambda pres, l, l2: section_check(pres, l),
    "tower_check": lambda pres, l, l2: tower_check(pres, [l, l2]),
    "audit": lambda pres, l, l2: audit(pres),
    "sym2_regularity": lambda pres, l, l2: regularity(sym_power(pres, 2)),
    "fitting_ideal_0": lambda pres, l, l2: fitting_ideal_0(pres),
}


def test_degenerate_inputs_return_or_raise_algebra_errors():
    """Each public entry point returns, or raises an AlgebraError subclass,
    on every degenerate input: no other exception escapes."""
    returned = dict.fromkeys(ENTRY_POINTS, 0)
    seen = {"zero column": 0, "negative twist": 0, "lex": 0, "char 2": 0, "char 3": 0, "quotient": 0}
    for seed in range(200):
        pres, l, l2 = _degenerate_input(seed)
        ring = pres.ring
        seen["zero column"] += any(all(row[j].is_zero() for row in pres.matrix) for j in range(pres.m))
        seen["negative twist"] += min(pres.row_twists) < 0
        seen["lex"] += ring.order == "lex"
        seen["char 2"] += ring.field.p == 2
        seen["char 3"] += ring.field.p == 3
        seen["quotient"] += ring.is_quotient
        for name, call in ENTRY_POINTS.items():
            try:
                call(pres, l, l2)
            except AlgebraError:
                continue
            returned[name] += 1
    assert min(seen.values()) >= 20, seen
    assert min(returned.values()) >= 20, returned
