"""The README's examples are real output: its sample presentation file audits to
the session printed below it, and its quick start evaluates to the values in its
comments."""

import ast
from pathlib import Path

from cmreg.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _code_block(after: str) -> str:
    """The first fenced code block that follows the heading `after`."""
    rest = README[README.index(after) :]
    start = rest.index("```")
    body = rest[rest.index("\n", start) + 1 :]
    return body[: body.index("```")]


def test_readme_audit_session_is_the_output_for_the_sample_file(tmp_path, capsys):
    path = tmp_path / "module.pres"
    path.write_text(_code_block("## Presentation files"))
    session = _code_block("A typical audit:")
    command, expected = session.split("\n", 1)
    assert command == "$ cmreg audit module.pres"
    assert main(["audit", str(path)]) == 0
    assert capsys.readouterr().out == expected


def test_readme_quick_start_values():
    code = _code_block("## Library quick start")
    namespace: dict = {}
    exec(code, namespace)
    checked = []
    for line in code.splitlines():
        expr, sep, comment = line.partition("#")
        try:
            compiled = compile(expr.strip(), "README.md", "eval")
        except SyntaxError:
            continue  # a statement, not an expression
        if sep and expr.strip():
            assert eval(compiled, namespace) == ast.literal_eval(comment.strip()), line
            checked.append(expr.strip())
    assert checked == [
        "mi.regularity",
        "mi.hilbert.dimension",
        "mi.betti",
        "report.all_hold",
    ]
