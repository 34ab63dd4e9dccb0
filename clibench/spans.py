"""In-memory spans around the public names each layer of gmrafilters exposes.

The benchmark never edits the program.  Instead it replaces, for the
length of one traced replay, the module attributes through which callers
reach a layer: ``gmrafilters.cli`` imports ``emit_bundle`` by name, so the
wrapper goes on ``gmrafilters.cli.emit_bundle``; ``classify_purity`` looks
up ``np.linalg.eig`` at call time, so the wrapper goes on ``numpy.linalg``.
Every wrapper records one span (name, start, end, parent) and may add to
a counter.  A layer's self time is the sum of its spans' durations minus
the time their child spans cover.
"""

from __future__ import annotations

import contextlib
import importlib
import time


def _encoded_len(text: str) -> int:
    return len(text.encode("utf-8"))


def _count_emit(counts, args, result):
    counts["bundleio.bytes"] += _encoded_len(result)


def _count_parse(counts, args, result):
    counts["bundleio.bytes"] += _encoded_len(args[0])
    counts["filters.cells"] += result[0].cells


def _count_build(counts, args, result):
    counts["filters.cells"] += result.cells


def _count_assemble(counts, args, result):
    dim = result.dimension
    counts["ruelle.dimension"] += dim
    # Computed, not measured: one dense complex128 matrix of the adjoint.
    counts["ruelle.matrix_bytes"] = max(counts["ruelle.matrix_bytes"], dim * dim * 16)


def _count_classify(counts, args, result):
    counts["ruelle.candidates_tested"] += len(result.diagnostics["candidates_tested"])


# (module, attribute, layer span name, counter).  A name that several
# modules import gets one entry per importing module.
WRAPPED = [
    ("gmrafilters.cli", "emit_bundle", "bundleio.emit_bundle", _count_emit),
    ("gmrafilters.bundleio", "parse_bundle", "bundleio.parse_bundle", _count_parse),
    ("gmrafilters.cli", "canonical_json", "bundleio.canonical_json", None),
    ("gmrafilters.cli", "make_haar", "filters.build", _count_build),
    ("gmrafilters.cli", "make_shannon", "filters.build", _count_build),
    ("gmrafilters.cli", "make_constant", "filters.build", _count_build),
    ("gmrafilters.cli", "make_journe_step", "filters.build", _count_build),
    ("gmrafilters.cli", "make_journe_family", "filters.build", _count_build),
    ("gmrafilters.cli", "filter_equation_residual", "filters.filter_equation_residual", None),
    ("gmrafilters.ruelle", "filter_equation_residual", "filters.filter_equation_residual", None),
    ("gmrafilters.cli", "generalized_filter_residual", "filters.generalized_filter_residual", None),
    ("gmrafilters.cli", "support_violations", "filters.support_violations", None),
    ("gmrafilters.cli", "derive_journe", "lowpass.derive_journe", None),
    ("gmrafilters.gmra", "search_certificate", "lowpass.search_certificate", None),
    ("gmrafilters.cli", "isometry_residual", "ruelle.isometry_residual", None),
    ("gmrafilters.cli", "classify_purity", "ruelle.classify_purity", _count_classify),
    ("gmrafilters.gmra", "classify_purity", "ruelle.classify_purity", _count_classify),
    ("gmrafilters.ruelle", "assemble_transfer_matrix", "ruelle.assemble_transfer_matrix", _count_assemble),
    ("numpy.linalg", "eig", "ruelle.eig", None),
    ("gmrafilters.ruelle", "decay_probe", "ruelle.decay_probe", None),
    ("gmrafilters.cli", "intersection_report", "gmra.intersection_report", None),
]

ROOT_SPAN = "cli"
SPAN_NAMES = sorted({ROOT_SPAN} | {name for _, _, name, _ in WRAPPED})
COUNT_NAMES = [
    "bundleio.bytes",
    "filters.cells",
    "ruelle.candidates_tested",
    "ruelle.dimension",
    "ruelle.matrix_bytes",
]


class Tracer:
    """Spans and counters of one traced replay, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: dict[str, int] = {name: 0 for name in COUNT_NAMES}
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [name, time.perf_counter(), None, parent]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = time.perf_counter()
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span less the time its children cover.

        Spans come from one thread and nest strictly, so the children of a
        span never overlap each other.
        """
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = {name: 0.0 for name in SPAN_NAMES}
        for (name, start, end, _), child in zip(self.spans, covered):
            out[name] += (end - start) - child
        return out


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Swap every wrapped attribute for its traced version, then restore it."""
    saved = []
    try:
        for module_name, attr, name, count in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, count))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
