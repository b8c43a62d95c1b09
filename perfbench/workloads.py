"""The three benchmark workloads: seeded inputs, one instance, exact outputs.

Every workload is a fixed *box* of instance shapes (sizes, degrees, which
entries are zero), taken from the acceptance suite or, for `quotient_audit`,
from a fixed shape stream.  Seed 0, pass 0 is the box exactly as drawn there.
Any other (seed, pass) keeps every shape and redraws every coefficient, so a
run always sees the same mix of small and heavy instances.  Redrawing whole
modules instead is not steady: one such draw of the audit box holds a single
module that takes over 100 s.

The program is reached only through module attributes (`verify.audit`, not a
name bound at import time), so the tracer's patches apply here too.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict

from cmreg import cli, core, invariants, modops, verify


def _rng(*parts) -> random.Random:
    # str seeds hash deterministically (sha512), independent of PYTHONHASHSEED
    return random.Random(":".join(str(p) for p in parts))


def _redraw_entries(pres, rng: random.Random):
    """The same presentation shape with fresh coefficients in every nonzero entry."""
    ring = pres.ring
    base = ring.base
    rows = [
        [e if e.is_zero() else verify.random_polynomial(rng, base, int(e.degree())) for e in row]
        for row in pres.matrix
    ]
    return core.validate_presentation(ring, pres.row_twists, rows, pres.column_degrees)


def _dimension(pres) -> int:
    return int(invariants.hilbert_data(pres).dimension)


def digest(output: dict) -> str:
    text = json.dumps(output, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _audit_output(report) -> dict:
    return {"computed": report.computed, "bounds": report.bounds, "verdicts": report.verdicts}


def _alternating_betti_matches(pres, report) -> bool:
    """Criterion 7's check, recomputed outside `audit`: the alternating Betti
    sum must equal the lead-term Hilbert numerator."""
    alternating: dict[int, int] = {}
    for i, j, v in report.computed["betti"]:
        alternating[j] = alternating.get(j, 0) + (-1) ** i * v
    lead = {k: v for k, v in invariants.hilbert_numerator(pres).items() if v}
    return lead == {k: v for k, v in alternating.items() if v}


class Pass:
    """The inputs of one pass over a workload's box, plus any state its
    instances share (the section workload draws forms from one stream)."""

    def __init__(self, instances: list, state=None):
        self.instances = instances
        self.state = state


class AuditSweep:
    """Criterion 1: 200 random modules over F_101[x..], each through `audit`."""

    name = "audit_sweep"
    pass_size = 200
    pass_seconds = 16.0  # nominal wall time of one pass
    tail_percentile = 95  # the highest with ten samples beyond it in one pass

    @staticmethod
    def _box_module(trial: int):
        # the acceptance fixture's box: shape and entries from separate streams
        shape = random.Random(9001 + trial)
        return verify.random_module(
            31337 + trial,
            p_vars=shape.randint(1, 3),
            n=shape.randint(1, 3),
            m=shape.randint(1, 5),
            max_a=2,
            max_b=4,
            density=0.4 + 0.6 * shape.random(),
        )

    def make_pass(self, seed: int, pass_no: int, limit: int) -> Pass:
        out = []
        for trial in range(min(limit, self.pass_size)):
            pres = self._box_module(trial)
            if (seed, pass_no) != (0, 0):
                pres = _redraw_entries(pres, _rng(self.name, seed, pass_no, trial))
            out.append(pres)
        return Pass(out)

    def run(self, pres, state):
        return verify.audit(pres)

    def output(self, report) -> dict:
        return _audit_output(report)

    def check(self, pres, report) -> bool:
        return report.all_hold and _alternating_betti_matches(pres, report)


class Sections:
    """Criterion 4: 25 modules of dimension 1 and 25 of dimension 2; one
    instance draws a form with finite torsion and runs `section_check`."""

    name = "sections"
    pass_size = 50
    pass_seconds = 15.0  # nominal wall time of one pass
    tail_percentile = 80  # the highest with ten samples beyond it in one pass

    @staticmethod
    def _box_modules(target: int, count: int, seed: int):
        # criterion 4's dimension filter, draw for draw
        rng = random.Random(seed)
        out = []
        while len(out) < count:
            pres = verify.random_module(
                rng.randrange(2**32),
                p_vars=rng.choice((2, 3)),
                n=rng.randint(1, 2),
                m=rng.randint(1, 4),
                density=0.5 + 0.5 * rng.random(),
            )
            if _dimension(pres) == target:
                out.append(pres)
        return out

    def make_pass(self, seed: int, pass_no: int, limit: int) -> Pass:
        box = [(t, p) for t in (1, 2) for p in self._box_modules(t, self.pass_size // 2, 5150 + t)]
        out = []
        for k, (target, pres) in enumerate(box[:limit]):
            if (seed, pass_no) != (0, 0):
                rng = _rng(self.name, seed, pass_no, k)
                for _ in range(50):
                    fresh = _redraw_entries(pres, rng)
                    if _dimension(fresh) == target:
                        break
                else:
                    raise core.AlgebraError(f"no redraw of module {k} keeps dimension {target}")
                pres = fresh
            out.append(pres)
        forms = random.Random(2025) if (seed, pass_no) == (0, 0) else _rng(self.name, "forms", seed, pass_no)
        return Pass(out, forms)

    def run(self, pres, forms: random.Random):
        form = verify.random_section_form(pres, forms)
        return verify.section_check(pres, form)

    def output(self, report) -> dict:
        return asdict(report)

    def check(self, pres, report) -> bool:
        # length of K two ways: its degreewise Hilbert function against the
        # numerator difference colon_kernel reports
        return report.all_hold and sum(report.kernel_by_degree.values()) == report.colon_length


class QuotientAudit:
    """Modules over R = S/J, J a certified complete intersection, v <= 3 and
    dim R in {0, 1, 2}; one instance parses the CLI file text and audits it."""

    name = "quotient_audit"
    pass_size = 200
    pass_seconds = 6.0  # nominal wall time of one pass
    tail_percentile = 95  # the highest with ten samples beyond it in one pass

    def _box_instance(self, seed: int, pass_no: int, trial: int) -> str:
        shape = random.Random(7001 + trial)
        v = shape.randint(1, 3)
        ci, degs = verify.random_complete_intersection(
            424242 + trial, p_vars=v, max_codim=v, max_degree=3
        )
        pres = verify.random_module(
            555555 + trial,
            p_vars=v,
            n=shape.randint(1, 2),
            m=shape.randint(1, 4),
            density=0.4 + 0.6 * shape.random(),
        )
        base = pres.ring
        quotient = ci.matrix[0]
        if (seed, pass_no) != (0, 0):
            rng = _rng(self.name, seed, pass_no, trial)
            for _ in range(50):
                quotient = tuple(verify.random_polynomial(rng, base, d) for d in degs)
                cyclic = core.validate_presentation(base, (0,), [list(quotient)])
                if invariants.hilbert_data(cyclic).codimension == len(degs):
                    break
            else:
                raise core.AlgebraError(f"no regular sequence of degrees {degs} for trial {trial}")
            pres = _redraw_entries(pres, rng)
        ring = core.GradedRing(base.field, base.variables, base.order, tuple(quotient))
        over_r = core.validate_presentation(
            ring, pres.row_twists, [list(r) for r in pres.matrix], pres.column_degrees
        )
        return cli.serialize_presentation(modops.minimal_presentation(over_r))

    def make_pass(self, seed: int, pass_no: int, limit: int) -> Pass:
        return Pass(
            [self._box_instance(seed, pass_no, t) for t in range(min(limit, self.pass_size))]
        )

    def run(self, text: str, state):
        return verify.audit(cli.parse_file(text))

    def output(self, report) -> dict:
        return _audit_output(report)

    def check(self, text: str, report) -> bool:
        return report.all_hold and _alternating_betti_matches(cli.parse_file(text), report)


WORKLOADS = {w.name: w for w in (AuditSweep(), Sections(), QuotientAudit())}
