"""Checks on the package source itself, read with ``ast``.

Four rules hold across ``src/gmrafilters``.  A record type is a frozen
dataclass only when it validates its fields in ``__post_init__``; a plain
result record is a ``typing.NamedTuple``.  No module imports a name it
never uses, apart from names listed in its ``__all__`` (the package's
re-exports) and aliases whose line carries ``# noqa``.  And whether a
filter is verified is decided in one place, the gate
``filters._verification_failure``: no other function asks a support
report whether it is ``clean()``.  Likewise ``DIM_CAP`` is applied in
one place: only ``ruelle.transfer_spectrum`` raises ``DimensionCapError``.
"""

import ast
from pathlib import Path

import pytest

import gmrafilters

SRC = Path(gmrafilters.__file__).resolve().parent
MODULES = sorted(SRC.glob("*.py"))

RESULT_RECORDS = [
    "ResidualReport",
    "SupportReport",
    "Certificate",
    "CertificateFailure",
    "BoundCheck",
    "JourneDerivation",
    "IntersectionReport",
    "TransferMatrix",
    "EigenPair",
    "TransferSpectrum",
    "FixedCell",
    "PurityVerdict",
]


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _is_dataclass(decorator: ast.expr) -> bool:
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return isinstance(decorator, ast.Name) and decorator.id == "dataclass"


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(path: Path) -> list[str]:
    """``name (line)`` for each imported name the module never reads."""
    tree = _tree(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used and "# noqa" not in lines[alias.lineno - 1]:
                unused.append(f"{bound} (line {alias.lineno})")
    return unused


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_dataclass_validates_in_post_init(path):
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.ClassDef) and any(
            _is_dataclass(d) for d in node.decorator_list
        ):
            methods = {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
            assert "__post_init__" in methods, f"{path.name}: {node.name}"


@pytest.mark.parametrize("name", RESULT_RECORDS)
def test_result_records_are_named_tuples(name):
    cls = getattr(gmrafilters, name)
    assert issubclass(cls, tuple)
    assert cls._fields


def test_every_named_tuple_is_a_listed_record():
    named = {
        node.name
        for path in MODULES
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(b, ast.Name) and b.id == "NamedTuple" for b in node.bases)
    }
    assert named == set(RESULT_RECORDS)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_the_scan_finds_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import os\n"
        "import numpy as np\n"
        "from typing import (\n"
        "    Optional,\n"
        "    Union,  # noqa: F401\n"
        ")\n"
        "from json import dumps\n"
        "__all__ = ['dumps']\n"
        "x: Optional[int] = None\n"
    )
    assert unused_imports(module) == ["os (line 1)", "np (line 2)"]


def clean_calls() -> list[str]:
    """``module.function`` for each function that calls ``.clean()``."""
    callers = []
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if not isinstance(node, ast.FunctionDef):
                continue
            for call in ast.walk(node):
                if (
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "clean"
                ):
                    callers.append(f"{path.stem}.{node.name}")
    return callers


def test_the_support_rule_is_judged_only_by_the_gate():
    assert set(clean_calls()) == {"filters._verification_failure"}
    for path in MODULES:
        assert "_fails_verification" not in path.read_text(encoding="utf-8")


def raisers(error: str) -> list[str]:
    """``module.function`` for each ``raise error(...)`` in the package."""
    raised = []
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if not isinstance(node, ast.FunctionDef):
                continue
            for stmt in ast.walk(node):
                if (
                    isinstance(stmt, ast.Raise)
                    and isinstance(stmt.exc, ast.Call)
                    and isinstance(stmt.exc.func, ast.Name)
                    and stmt.exc.func.id == error
                ):
                    raised.append(f"{path.stem}.{node.name}")
    return raised


def test_the_dimension_cap_is_applied_in_one_place():
    assert raisers("DimensionCapError") == ["ruelle.transfer_spectrum"]
