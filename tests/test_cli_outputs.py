"""Every subcommand's stdout and exit code, byte for byte, on three sample files:
the README sample, a non-minimal module over S/J and a non-minimal module over S.

The expected outputs live in `cli_outputs.json`.  `timings` is dropped from JSON
output before comparing, as it is the only field that varies between runs.  After
a deliberate output change, rewrite the file with

    PYTHONPATH=src python tests/test_cli_outputs.py --write

and review its diff.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from cmreg import groebner
from cmreg.cli import main

EXPECTED = Path(__file__).with_name("cli_outputs.json")

SAMPLES = {
    "readme": "char 101\nvars x y\ngens 0\nrels\nx^2\nx*y\nend\n",
    "quotient": (
        "char 101\nvars x y z\nquotient\nx*z - y^2\nend\n"
        "gens 0 1\nrels\nx, 1\ny^2, z\nx*y, 0\nend\n"
    ),
    "nonminimal": (
        "char 101\nvars x y z\ngens 0 0 1\nrels\n"
        "x, y, 1\ny^2, x*z, z\nz^2, 0, x\nx*y, y^2, 0\nend\n"
    ),
}

# a section form and a tower of forms with finite torsion on each sample
FORMS = {
    "readme": ["y", "x"],
    "quotient": ["x + 2y + 3z", "x - y + 5z"],
    "nonminimal": ["x + 2y + 3z", "x - y + 5z"],
}


def _cases() -> dict[str, list[str]]:
    cases = {}
    for name, forms in FORMS.items():
        commands = [
            ["reg"], ["betti"], ["hilbert"], ["audit"], ["bounds"],
            ["sym", "--l", "2"], ["fitt"], ["complex"],
            ["section-check", "--linear", forms[0]],
            ["tower", *(arg for form in forms for arg in ("--linear", form))],
        ]
        for cmd, *rest in commands:
            modes = [[], ["--json"]] + ([["--csv"]] if cmd == "audit" else [])
            for mode in modes:
                cases[" ".join([cmd, name, *mode])] = [cmd, name, *rest, *mode]
    sweep = ["random", "--seed", "7", "--trials", "4", "--audit"]
    for mode in ([], ["--json"], ["--csv"]):
        cases[" ".join(sweep + mode)] = sweep + mode
    cases["random --seed 3"] = ["random", "--seed", "3"]
    cases["mayr-meyer --l 1"] = ["mayr-meyer", "--l", "1"]
    return cases


CASES = _cases()


def _drop_timings(value):
    if isinstance(value, dict):
        return {k: _drop_timings(v) for k, v in value.items() if k != "timings"}
    if isinstance(value, list):
        return [_drop_timings(v) for v in value]
    return value


def _run(argv: list[str], directory: Path) -> dict:
    """Run one case with sample names replaced by files in `directory`."""
    for name, text in SAMPLES.items():
        (directory / f"{name}.pres").write_text(text)
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        code = main([str(directory / f"{a}.pres") if a in SAMPLES else a for a in argv])
    out = buf.getvalue()
    if "--json" in argv:
        out = json.dumps(_drop_timings(json.loads(out)))
    return {"stdout": out, "exit": code}


@pytest.mark.parametrize("key", list(CASES))
def test_cli_output_is_unchanged(key, tmp_path):
    expected = json.loads(EXPECTED.read_text())[key]
    assert _run(CASES[key], tmp_path) == expected


@pytest.mark.parametrize(
    "key, scopes",
    [("random --seed 7 --trials 4 --audit", 4), ("section-check readme", 1)],
)
def test_cli_memo_scopes(key, scopes, tmp_path, monkeypatch):
    """`random --audit` runs each trial in its own memo scope (through `audit`),
    `section-check` runs in one (through `section_check`); the output is
    unchanged and no scope outlives `main`."""
    seen = []  # the memo each Buchberger run saw, kept alive so ids stay apart
    original = groebner.buchberger

    def recording(*args, **kwargs):
        seen.append(groebner._MEMO.get())
        return original(*args, **kwargs)

    monkeypatch.setattr(groebner, "buchberger", recording)
    expected = json.loads(EXPECTED.read_text())[key]
    assert _run(CASES[key], tmp_path) == expected
    assert groebner._MEMO.get() is None
    assert None not in seen
    assert len({id(memo) for memo in seen}) == scopes


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    with tempfile.TemporaryDirectory() as tmp:
        results = {key: _run(argv, Path(tmp)) for key, argv in CASES.items()}
    EXPECTED.write_text(json.dumps(results, indent=1) + "\n")
    print(f"wrote {len(results)} cases to {EXPECTED}")
