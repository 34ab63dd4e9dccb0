"""The package's exports: eager ones, and the names of the certificate
modules (``lowpass`` and ``gmra``), which load on first access."""

import ast
import importlib
from pathlib import Path

import pytest

import gmrafilters

from helpers import run_python

LAZY_MODULES = ("gmra", "lowpass")


def _eager_imports() -> dict[str, str]:
    """Name -> submodule for every name ``__init__`` imports at load."""
    tree = ast.parse(Path(gmrafilters.__file__).read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name: node.module
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def test_every_export_is_its_defining_modules_object():
    defining = {**_eager_imports(), **gmrafilters._LAZY}
    assert sorted(defining) == sorted(gmrafilters.__all__)
    for name, module in defining.items():
        owner = importlib.import_module(f"gmrafilters.{module}")
        assert getattr(gmrafilters, name) is getattr(owner, name), name


def test_the_lazy_table_holds_the_public_names_of_the_certificate_modules():
    public = {}
    for module in LAZY_MODULES:
        owner = importlib.import_module(f"gmrafilters.{module}")
        for name, value in vars(owner).items():
            if not name.startswith("_") and getattr(value, "__module__", None) == owner.__name__:
                public[name] = module
    assert gmrafilters._LAZY == public
    assert not set(public) & set(_eager_imports())


def test_dir_and_star_import_in_a_fresh_process():
    out = run_python(
        "import sys\n"
        "import gmrafilters\n"
        "lazy = ['gmrafilters.gmra', 'gmrafilters.lowpass']\n"
        "print([m for m in lazy if m in sys.modules])\n"
        "print(set(gmrafilters.__all__) <= set(dir(gmrafilters)))\n"
        "names = {}\n"
        "exec('from gmrafilters import *', names)\n"
        "print(len(set(gmrafilters.__all__) & set(names)))\n"
        "print([m for m in lazy if m in sys.modules])\n"
    )
    assert out.splitlines() == [
        "[]",
        "True",
        str(len(gmrafilters.__all__)),
        "['gmrafilters.gmra', 'gmrafilters.lowpass']",
    ]
    assert len(gmrafilters.__all__) == 61


@pytest.mark.parametrize("module", LAZY_MODULES)
def test_the_certificate_modules_resolve_as_attributes(module):
    out = run_python(f"import gmrafilters\nprint(gmrafilters.{module}.__name__)\n")
    assert out == f"gmrafilters.{module}\n"


@pytest.mark.parametrize("module", ["gmrafilters", "gmrafilters.cli"])
def test_an_unknown_name_is_the_standard_attribute_error(module):
    owner = importlib.import_module(module)
    with pytest.raises(AttributeError) as info:
        owner.no_such_name
    assert str(info.value) == f"module {module!r} has no attribute 'no_such_name'"
    assert not hasattr(owner, "no_such_name")
