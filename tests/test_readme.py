"""The README's Library example, run as written."""

import ast
import contextlib
import io
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    """The fenced Python block under the README's ``## Library`` heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_library_block_prints_what_its_comments_say():
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(library_block(), str(README), "exec"), {})
    lines = printed.getvalue().splitlines()
    assert float(lines[0]) < 1e-15
    worst, witness = ast.literal_eval(lines[1])
    assert (round(worst, 18), witness) == (4.44e-16, 5)
    assert lines[2] == "pure_certified"
    assert lines[3].startswith("0.414")
    assert lines[4] == "not_pure_certified"
    # The tuple of candidates, one re-tested pair, spans two lines.
    assert lines[5].startswith("(EigenPair(eigenvalue=(1+0j),")
    assert lines[6].endswith("passed=True),)")
    assert lines[7:] == ["(1+0j) 1", "()", "[1.+0.j 0.+0.j]"]
