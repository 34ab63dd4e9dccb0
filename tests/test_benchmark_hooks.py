"""The names the benchmark's traced replay wraps must exist in the package,
and the command line must reach them through those names.

``clibench/spans.py`` swaps module attributes such as
``gmrafilters.gmra.classify_purity`` for timed wrappers; a refactor that
removes or moves one of them would break ``clibench/run.py --trace 1``
without failing anything else, and one that binds a wrapped function
early (a table of builders, a default argument) would leave the name in
place but bypassed, so its layer would read 0.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from gmrafilters import cli

SPANS = Path(__file__).resolve().parents[1] / "clibench" / "spans.py"
# No command line path calls the decay probe; it stays a library function.
# Nor numpy.linalg.eig: the fixed cell solves c = 2 in closed form, and
# only c >= 3, which no generator makes, reaches it.
UNREACHED = {"ruelle.decay_probe", "ruelle.eig"}


@pytest.fixture
def spans(monkeypatch):
    # Load by path without leaving a bytecode cache next to the benchmark.
    monkeypatch.setattr("sys.dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("clibench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_attribute_resolves(spans):
    assert spans.WRAPPED
    missing = [
        (module, attr)
        for module, attr, _, _ in spans.WRAPPED
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []


def test_every_wrapped_layer_is_reached(spans, tmp_path, capsys):
    tracer = spans.Tracer()
    with spans.installed(tracer):
        main = tracer.wrap(spans.ROOT_SPAN, cli.main)
        for name in ("haar", "journe"):
            bundle = str(tmp_path / f"{name}.json")
            assert main(["generate", name, "--out", bundle]) == cli.EXIT_OK
            for command in ("verify", "classify"):
                out = str(tmp_path / f"{name}_{command}.json")
                assert main([command, bundle, "--out", out]) in (
                    cli.EXIT_OK,
                    cli.EXIT_NOT_PURE,
                )
            out = str(tmp_path / f"{name}.csv")
            assert main(["spectrum", bundle, "--out", out]) == cli.EXIT_OK
    assert capsys.readouterr().err == ""
    recorded = {name for name, _, _, _ in tracer.spans}
    assert UNREACHED <= set(spans.SPAN_NAMES)
    assert sorted(set(spans.SPAN_NAMES) - UNREACHED - recorded) == []
