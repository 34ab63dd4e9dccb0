"""Canonical JSON bundles for filters and shared report serialization.

A bundle is a plain JSON object that pins a filter down exactly: the
dilation factor, the grid, the support chain as exact fractions, and
every entry's samples as decimal strings that round-trip to the stored
floats.  Emission is canonical (sorted keys, fixed ordering of entries,
trailing newline) so that parse followed by emit reproduces the original
text byte for byte.

Both directions work on whole sample arrays, one run at a time: a run
is a maximal stretch of cells whose sample equals the previous cell's,
and step filters sampled on a refined grid repeat each value over long
runs.  Emission is text-level: the samples are written straight from the
array in canonical_json's layout and spliced into canonical_json of the
rest, so the text equals canonical_json of the bundle object with every
sample as its ``[repr(re), repr(im)]`` pair.  Each run's text is formed
once and repeated.  Parsing decodes each entry while the JSON decoder
runs: as soon as an object closes, its ``samples`` list of ``[str, str]``
pairs is split into runs, each run's first pair is checked and converted
with ``float``, and the values are repeated into an (n, 2) float64 array,
so only one entry's sample strings are alive at a time.  A malformed list
is left as it is and walked sample by sample afterwards, to name its
first bad sample.  Runs change neither the text nor the values: the
format has no notion of them.
"""

from __future__ import annotations

import gc
import itertools
import json
from fractions import Fraction
from operator import ne
from typing import Any, Callable, Optional

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


# Runs per piece of sample text: bounds the arrays of references that
# lay a piece out to a few hundred kB, however fine the grid.
_PIECE_RUNS = 4096


def _run_starts(bits: np.ndarray) -> Optional[np.ndarray]:
    """The first cell of each run of an entry's (cells, 2) float64 bits.

    A run is a maximal stretch of cells whose (re, im) bits equal the
    previous cell's.  None when every cell starts one.
    """
    changes = bits[1:, 0] != bits[:-1, 0]
    changes |= bits[1:, 1] != bits[:-1, 1]
    if np.count_nonzero(changes) == len(changes):
        return None
    return np.concatenate(([0], np.flatnonzero(changes) + 1))


def _samples_text(row: np.ndarray) -> list[str]:
    """``"samples": [...]`` for one entry, as canonical_json writes it, in pieces.

    The text is laid out per run (see ``_run_starts``).  ``repr`` runs
    once per distinct bit pattern among the runs' first cells, since step
    filters repeat values heavily.  Distinct by bits, not by value: -0.0
    equals 0.0 but prints otherwise, so only bits give each sample
    exactly its own ``repr``.  Each piece of ``_PIECE_RUNS`` runs is laid
    out with its separators in one array and joined once, each run as its
    first pair.  A run of k > 1 cells then gets the k - 1 copies of the
    next pair's text as a piece of their own.  The pieces are joined only
    with the whole bundle, once these distinct texts are gone.
    """
    bits = np.ascontiguousarray(row).view(np.uint64).reshape(-1, 2)
    starts = _run_starts(bits)
    if starts is None:
        # Every cell starts a run (haar): lay out the cells themselves.
        heads, repeats = bits, None
    else:
        heads = bits[starts]
        repeats = np.diff(starts, append=len(bits)) - 1
    distinct, index = np.unique(heads.ravel(), return_inverse=True)
    texts = np.array(list(map(repr, distinct.view(np.float64).tolist())), object)
    pieces = [_SAMPLES_OPEN]
    for start in range(0, len(heads), _PIECE_RUNS):
        part = index[2 * start : 2 * (start + _PIECE_RUNS)]
        out = np.empty(2 * len(part) - 1, dtype=object)
        out[0::2] = texts[part]
        out[1::4] = _RE_IM
        out[3::4] = _NEXT_PAIR
        cut = 0
        if repeats is not None:
            rep = repeats[start : start + _PIECE_RUNS]
            # Slot 4r holds run r's real text and slot 4r + 2 its imaginary
            # text; the copies of its pair follow that as a piece of their own.
            for r in np.flatnonzero(rep).tolist():
                end = 4 * r + 3
                pair = _NEXT_PAIR + out[4 * r] + _RE_IM + out[4 * r + 2]
                pieces += ("".join(out[cut:end].tolist()), pair * int(rep[r]))
                cut = end
        pieces += ("".join(out[cut:].tolist()), _NEXT_PAIR)
    pieces[-1] = _SAMPLES_CLOSE
    return pieces


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
        text += _samples_text(row)
        text.append(piece)
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


def _decode_entry(obj: dict) -> dict:
    """JSON object hook: decode a ``samples`` list the moment it closes.

    A list of [re, im] decimal strings becomes an (n, 2) float64 array of
    ``float`` of each string.  The list is read per run: a maximal stretch
    of samples equal to the previous one.  Only each run's first sample is
    checked and converted, and its values are repeated over the run.  That
    is the same as checking and converting every sample: a JSON value
    equal to a list of two strings is a list of the same two strings, and
    one string always converts to the same bits.  Any other list is left
    for ``_decode_samples`` to name its first bad sample.
    """
    raw = obj.get("samples")
    if type(raw) is not list:
        return obj
    n = len(raw)
    try:
        changes = np.fromiter(
            map(ne, itertools.islice(raw, 1, None), raw),
            dtype=bool,
            count=max(n - 1, 0),
        )
    except (RecursionError, ValueError):
        # Samples nested too deep to compare, or objects whose decoded
        # arrays have no truth value: neither is a [str, str] pair, so the
        # walk names them.
        return obj
    starts = np.flatnonzero(changes)
    if len(starts) + 1 >= n:
        heads = raw
    else:
        starts += 1
        heads = [raw[0], *map(raw.__getitem__, starts.tolist())]
    if all(
        type(p) is list and len(p) == 2 and type(p[0]) is str and type(p[1]) is str
        for p in heads
    ):
        try:
            values = np.fromiter(
                map(float, itertools.chain.from_iterable(heads)),
                dtype=np.float64,
                count=2 * len(heads),
            ).reshape(-1, 2)
        except ValueError:
            return obj
        if heads is not raw:
            values = np.repeat(values, np.diff(starts, prepend=0, append=n), axis=0)
        obj["samples"] = values
    return obj


def _holds_array(val: Any) -> bool:
    """Whether a decoded JSON value has an array anywhere inside it."""
    stack = [val]
    while stack:
        val = stack.pop()
        if isinstance(val, np.ndarray):
            return True
        if isinstance(val, dict):
            stack.extend(val.values())
        elif isinstance(val, list):
            stack.extend(val)
    return False


def _loads(text: str, object_hook: Optional[Callable] = None) -> Any:
    """``json.loads`` with the cyclic GC paused.

    The decoder builds only acyclic lists and dicts, and at deep grids
    the collector's repeated scans of them cost more than the decode.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return json.loads(text, object_hook=object_hook)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and an integer past Python's
        # digit limit; RecursionError, nesting past the recursion limit.
        raise BundleFormatError(f"bundle is not valid JSON: {exc}") from exc
    finally:
        if enabled:
            gc.enable()


def _decode_samples(raw: Any, out: np.ndarray, entry: str) -> None:
    """Write one entry's samples into ``out``.

    ``raw`` is the array the object hook decoded, written through the
    float64 view, never through complex arithmetic, so -0.0 and
    infinities keep their bits; or the list the hook refused, walked to
    name its first bad sample.
    """
    if isinstance(raw, np.ndarray):
        out.view(np.float64)[:] = raw.ravel()
        return
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
    obj = _loads(text, object_hook=_decode_entry)
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
    if _holds_array(provenance):
        # The hook decoded a "samples" list inside the provenance, which
        # must come back as plain JSON values.
        provenance = _loads(text)["provenance"]
    try:
        grid = GridSpec(scale, base, depth)
        chain = SigmaChain.of(sigmas)
    except GmraFilterError as exc:
        raise BundleFormatError(f"bundle does not assemble: {exc}") from exc
    cells = grid.cells
    # Every sample count is checked before the samples array exists, so a
    # declared grid far larger than the entries carry is refused without
    # allocating it; each entry's decoded array is sized by its own text.
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
        raw = entry.get("samples")
        if not isinstance(raw, np.ndarray):
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
    samples.setflags(write=False)
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
