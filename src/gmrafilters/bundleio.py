"""Canonical JSON bundles for filters and shared report serialization.

A bundle is a plain JSON object that pins a filter down exactly: the
dilation factor, the grid, the support chain as exact fractions, and
every entry's samples as decimal strings that round-trip to the stored
floats.  Emission is canonical (sorted keys, fixed ordering of entries,
trailing newline) so that parse followed by emit reproduces the original
text byte for byte.

Both directions work on whole sample arrays.  Emission is text-level:
the samples are written straight from the array in canonical_json's
layout and spliced into canonical_json of the rest, so the text equals
canonical_json of the bundle object with every sample as its
``[repr(re), repr(im)]`` pair.  Parsing checks an entry's pairs in one
sweep and decodes all its strings with ``float`` into the float64 view
of the samples; only a malformed entry is walked sample by sample, to
name its first bad sample.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from typing import Any, Optional

import numpy as np

from .errors import BundleFormatError, GmraFilterError
from .filters import FilterMatrix
from .torus import GridSpec, IntervalSet, SigmaChain, rat_str

FORMAT_VERSION = "1"
KIND = "gmra-filter-bundle"


def float_str(x: float) -> str:
    """Shortest decimal string that parses back to exactly this float."""
    return repr(float(x))


def complex_pair(z: complex) -> list[str]:
    return [float_str(z.real), float_str(z.imag)]


def canonical_json(obj: Any) -> str:
    """Key-sorted, indented JSON with a trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


# How canonical_json lays out one entry's list of [re, im] pairs: the
# pairs at 8 spaces, their strings at 10 and the closing bracket at 6.
_SAMPLES_OPEN = '"samples": [\n        [\n          "'
_RE_IM = '",\n          "'
_NEXT_PAIR = '"\n        ],\n        [\n          "'
_SAMPLES_CLOSE = '"\n        ]\n      ]'
_NO_SAMPLES = '"samples": []'


def _samples_text(row: np.ndarray) -> str:
    """``"samples": [...]`` for one entry, as canonical_json writes it."""
    pairs = zip(map(repr, row.real.tolist()), map(repr, row.imag.tolist()))
    return _SAMPLES_OPEN + _NEXT_PAIR.join(map(_RE_IM.join, pairs)) + _SAMPLES_CLOSE


def emit_bundle(filt: FilterMatrix, provenance: Optional[dict] = None) -> str:
    """The bundle text: canonical_json of the bundle object, samples included.

    Everything but the samples goes through canonical_json with each
    entry's samples left empty; each entry's sample text is then written
    straight from the array and spliced in where its empty list stands.
    """
    count = filt.count
    out = {
        "format_version": FORMAT_VERSION,
        "kind": KIND,
        "scale": filt.scale,
        "base": filt.grid.base,
        "depth": filt.grid.depth,
        "sigmas": [
            [[rat_str(a), rat_str(b)] for a, b in s.parts]
            for s in filt.chain.sigmas
        ],
        "entries": [
            {"row": i, "col": j, "samples": []}
            for i in range(count)
            for j in range(count)
        ],
    }
    if provenance:
        out["provenance"] = provenance
    # Only the integers "base" and "depth" sort before "entries", so the
    # first count**2 empty sample lists are the entries', in order.
    pieces = canonical_json(out).split(_NO_SAMPLES, count * count)
    text = [pieces[0]]
    for row, piece in zip(filt.samples.reshape(count * count, -1), pieces[1:]):
        text += (_samples_text(row), piece)
    return "".join(text)


def _need(obj: dict, key: str, kind: type) -> Any:
    if key not in obj:
        raise BundleFormatError(f"bundle is missing {key!r}")
    val = obj[key]
    if kind is int and isinstance(val, bool):
        raise BundleFormatError(f"{key!r} must be an integer, got a boolean")
    if not isinstance(val, kind):
        raise BundleFormatError(
            f"{key!r} must be {kind.__name__}, got {type(val).__name__}"
        )
    return val


def _parse_fraction(text: Any, where: str) -> Fraction:
    if not isinstance(text, str):
        raise BundleFormatError(f"{where}: expected a fraction string")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise BundleFormatError(f"{where}: bad fraction {text!r}") from exc


def _parse_float(text: Any, where: str) -> float:
    if not isinstance(text, str):
        raise BundleFormatError(f"{where}: expected a decimal string")
    try:
        return float(text)
    except ValueError as exc:
        raise BundleFormatError(f"{where}: bad decimal {text!r}") from exc


def _decode_samples(raw: list, out: np.ndarray, entry: str) -> None:
    """Write one entry's [re, im] decimal strings into ``out``.

    The real and imaginary parts go through the float64 view, never
    through complex arithmetic, so -0.0 and infinities keep their bits.
    Malformed input names its first bad sample.
    """
    if all(
        type(p) is list and len(p) == 2 and type(p[0]) is str and type(p[1]) is str
        for p in raw
    ):
        try:
            out.view(np.float64)[:] = np.fromiter(
                map(float, itertools.chain.from_iterable(raw)),
                dtype=np.float64,
                count=2 * len(raw),
            )
            return
        except ValueError:
            pass
    for t, pair in enumerate(raw):
        where = f"{entry} sample {t}"
        if not (isinstance(pair, list) and len(pair) == 2):
            raise BundleFormatError(f"{where}: expected [re, im]")
        _parse_float(pair[0], where)
        _parse_float(pair[1], where)
    raise AssertionError(f"{entry}: samples refused without a bad sample")


def parse_bundle(text: str) -> tuple[FilterMatrix, dict]:
    """Parse bundle text back into a filter and its provenance dict.

    Malformed input of any kind raises :class:`BundleFormatError`.  The
    sample values themselves are not validated here; verification is a
    separate step so that a corrupted but well-formed bundle can be
    loaded and then failed with a witness.
    """
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and an integer past Python's
        # digit limit; RecursionError, nesting past the recursion limit.
        raise BundleFormatError(f"bundle is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise BundleFormatError("bundle must be a JSON object")
    version = _need(obj, "format_version", str)
    if version != FORMAT_VERSION:
        raise BundleFormatError(f"unsupported format version {version!r}")
    kind = _need(obj, "kind", str)
    if kind != KIND:
        raise BundleFormatError(f"not a filter bundle: kind {kind!r}")
    scale = _need(obj, "scale", int)
    base = _need(obj, "base", int)
    depth = _need(obj, "depth", int)
    sigmas_raw = _need(obj, "sigmas", list)
    if not sigmas_raw:
        raise BundleFormatError("bundle declares no supports")
    sigmas = []
    for si, parts in enumerate(sigmas_raw):
        if not isinstance(parts, list):
            raise BundleFormatError(f"sigmas[{si}] must be a list of parts")
        arcs = []
        for pi, part in enumerate(parts):
            where = f"sigmas[{si}][{pi}]"
            if not (isinstance(part, list) and len(part) == 2):
                raise BundleFormatError(f"{where}: expected [start, end]")
            arcs.append(
                (_parse_fraction(part[0], where), _parse_fraction(part[1], where))
            )
        sigmas.append(IntervalSet.from_arcs(arcs))
    count = len(sigmas)
    entries = _need(obj, "entries", list)
    if len(entries) != count * count:
        raise BundleFormatError(
            f"expected {count * count} entries, got {len(entries)}"
        )
    provenance = obj.get("provenance", {})
    if not isinstance(provenance, dict):
        raise BundleFormatError("provenance must be an object")
    try:
        grid = GridSpec(scale, base, depth)
        chain = SigmaChain.of(sigmas)
    except GmraFilterError as exc:
        raise BundleFormatError(f"bundle does not assemble: {exc}") from exc
    cells = grid.cells
    # Every sample count is checked before the samples array exists, so a
    # declared grid far larger than the entries carry is refused without
    # allocating it.
    checked = {}
    for ei, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise BundleFormatError(f"entries[{ei}] must be an object")
        i = _need(entry, "row", int)
        j = _need(entry, "col", int)
        if not (0 <= i < count and 0 <= j < count):
            raise BundleFormatError(
                f"entries[{ei}] addresses ({i}, {j}) outside a "
                f"{count} x {count} matrix"
            )
        if (i, j) in checked:
            raise BundleFormatError(f"entry ({i}, {j}) appears twice")
        raw = _need(entry, "samples", list)
        if len(raw) != cells:
            raise BundleFormatError(
                f"entry ({i}, {j}) carries {len(raw)} samples, "
                f"the grid has {cells} cells"
            )
        checked[i, j] = raw
    samples = np.zeros((count, count, cells), dtype=np.complex128)
    for (i, j), raw in checked.items():
        _decode_samples(raw, samples[i, j], f"entry ({i}, {j})")
    try:
        filt = FilterMatrix(scale, chain, grid, samples)
    except GmraFilterError as exc:
        raise BundleFormatError(f"bundle does not assemble: {exc}") from exc
    return filt, provenance


def load_bundle(path: str) -> tuple[FilterMatrix, dict]:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise BundleFormatError(f"bundle is not UTF-8 text: {exc}") from exc
    return parse_bundle(text)
