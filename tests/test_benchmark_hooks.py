"""The names the benchmark's traced replay wraps must exist in the package.

``clibench/spans.py`` swaps module attributes such as
``gmrafilters.gmra.classify_purity`` for timed wrappers; a refactor that
removes or moves one of them would break ``clibench/run.py --trace 1``
without failing anything else.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "clibench" / "spans.py"


def test_every_wrapped_attribute_resolves(monkeypatch):
    # Load by path without leaving a bytecode cache next to the benchmark.
    monkeypatch.setattr("sys.dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("clibench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.WRAPPED
    missing = [
        (module, attr)
        for module, attr, _, _ in spans.WRAPPED
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []
