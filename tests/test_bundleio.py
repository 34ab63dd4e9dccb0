"""Bundle text: byte-exact round trips, special float values, the rendering
emission must equal, per-sample parse errors, a fuzz of the parser, and
the parser's memory and GC behaviour.

Emission writes sample text straight from the array and parsing decodes
whole entries through the float64 view of the samples, both one run of
repeated samples at a time, so these tests hold both against the
per-sample forms they replaced: the dict of ``complex_pair`` lists under
``canonical_json``, the per-cell sample text that emission wrote before
it worked per run, and one ``complex(float(re), float(im))`` per sample.
"""

import gc
import json
import sys
import tracemalloc
from itertools import cycle, islice
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmrafilters import (
    BundleFormatError,
    FilterMatrix,
    GridSpec,
    SigmaChain,
    bundleio,
    emit_bundle,
    parse_bundle,
)
from gmrafilters.bundleio import FORMAT_VERSION, KIND, canonical_json, complex_pair
from gmrafilters.cli import EXIT_OK, EXIT_USAGE, GENERATOR_DEPTHS, main
from gmrafilters.torus import rat_str

# Every generator at its default depth and one deeper, and both generators
# that take --half-turn-phases (journe's half-turn bundle carries "-0.0").
# haar, shannon and constant have one channel, journe_step and journe two.
GENERATE_ARGS = [
    [name, "--depth", str(depth + extra)]
    for name, depth in sorted(GENERATOR_DEPTHS.items())
    for extra in (0, 1)
] + [
    [name, "--half-turn-phases", "--depth", str(GENERATOR_DEPTHS[name] + extra)]
    for name in ("journe_step", "journe")
    for extra in (0, 1)
]

SPECIALS = ["-0.0", "inf", "-inf", "nan", "5e-324", "1e+22", "1e-05"]


def generated_text(tmp_path, args):
    path = tmp_path / "bundle.json"
    assert main(["generate", *args, "--out", str(path)]) == EXIT_OK
    return path.read_text(encoding="utf-8")


def reference_text(filt, provenance=None):
    """The dict-of-pairs rendering that emit_bundle must reproduce."""
    out = {
        "format_version": FORMAT_VERSION,
        "kind": KIND,
        "scale": filt.scale,
        "base": filt.grid.base,
        "depth": filt.grid.depth,
        "sigmas": [
            [[rat_str(a), rat_str(b)] for a, b in s.parts] for s in filt.chain.sigmas
        ],
        "entries": [
            {
                "row": i,
                "col": j,
                "samples": [complex_pair(z) for z in filt.samples[i, j]],
            }
            for i in range(filt.count)
            for j in range(filt.count)
        ],
    }
    if provenance:
        out["provenance"] = provenance
    return canonical_json(out)


def reference_samples_text(row):
    """One entry's ``"samples": [...]`` pieces, laid out cell by cell.

    The per-cell emission that the per-run one replaced: ``repr`` once
    per distinct float64 bit pattern, and every cell's pair written out.
    """
    flat = np.ascontiguousarray(row).view(np.uint64)
    distinct, index = np.unique(flat, return_inverse=True)
    texts = np.array(list(map(repr, distinct.view(np.float64).tolist())), object)
    pieces = [bundleio._SAMPLES_OPEN]
    for start in range(0, len(index), 2 * 4096):
        part = index[start : start + 2 * 4096]
        out = np.empty(2 * len(part) - 1, dtype=object)
        out[0::2] = texts[part]
        out[1::4] = bundleio._RE_IM
        out[3::4] = bundleio._NEXT_PAIR
        pieces += ("".join(out.tolist()), bundleio._NEXT_PAIR)
    pieces[-1] = bundleio._SAMPLES_CLOSE
    return pieces


def reference_decode(obj, shape):
    """Per-sample decode of a bundle object's entries, as parse_bundle did it.

    Returns the samples, or the message of the first malformed sample.
    """
    samples = np.zeros(shape, dtype=np.complex128)
    for entry in obj["entries"]:
        i, j = entry["row"], entry["col"]
        for t, pair in enumerate(entry["samples"]):
            where = f"entry ({i}, {j}) sample {t}"
            if not (isinstance(pair, list) and len(pair) == 2):
                return f"{where}: expected [re, im]"
            parts = []
            for text in pair:
                if not isinstance(text, str):
                    return f"{where}: expected a decimal string"
                try:
                    parts.append(float(text))
                except ValueError:
                    return f"{where}: bad decimal {text!r}"
            samples[i, j, t] = complex(*parts)
    return samples


def bits(samples):
    return np.ascontiguousarray(samples).view(np.uint64)


def same_values(a, b):
    """Bitwise equal, except that any two NaNs match.

    repr writes every NaN as "nan", so a NaN's sign does not survive
    emission; every other bit does.
    """
    a = np.ascontiguousarray(a).view(np.float64)
    b = np.ascontiguousarray(b).view(np.float64)
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and np.array_equal(
        a[~nan].view(np.uint64), b[~nan].view(np.uint64)
    )


# After the pairs of SPECIALS, as float64 bits: NaNs with two other
# payloads, a negative NaN, and -0.0 beside 0.0 both ways round.
SPECIAL_BITS = [
    0x7FF8000000000001, 0x7FF0000000000123,
    0xFFF8000000000000, 0x0000000000000000,
    0x8000000000000000, 0x0000000000000000,
    0x0000000000000000, 0x8000000000000000,
]


def special_filter(tmp_path, args):
    """A generated filter whose entries hold every pair of SPECIALS, then
    the SPECIAL_BITS, then one value repeated to the end of the entry."""
    filt, _ = parse_bundle(generated_text(tmp_path, args))
    values = [float(s) for s in SPECIALS]
    combos = np.array([(re, im) for re in values for im in values]).ravel()
    extra = np.array(SPECIAL_BITS, dtype=np.uint64)
    samples = np.array(filt.samples)
    for i in range(filt.count):
        for j in range(filt.count):
            flat = samples[i, j].view(np.float64)
            flat[: len(combos)] = combos
            flat[len(combos) : len(combos) + len(extra)].view(np.uint64)[:] = extra
            flat[len(combos) + len(extra) :] = 1.0 / 3.0
    return FilterMatrix(filt.scale, filt.chain, filt.grid, samples)


@pytest.mark.parametrize("args", GENERATE_ARGS, ids=" ".join)
def test_round_trip_is_byte_exact(tmp_path, args):
    text = generated_text(tmp_path, args)
    assert emit_bundle(*parse_bundle(text)) == text


def test_half_turn_journe_bundle_carries_negative_zero(tmp_path):
    text = generated_text(tmp_path, ["journe", "--half-turn-phases"])
    assert text.count('"-0.0"') == 315


@pytest.mark.parametrize("args", GENERATE_ARGS, ids=" ".join)
def test_emit_equals_the_reference_rendering(tmp_path, args):
    text = generated_text(tmp_path, args)
    filt, provenance = parse_bundle(text)
    assert provenance
    assert reference_text(filt, provenance) == text
    assert emit_bundle(filt) == reference_text(filt)
    assert emit_bundle(filt, {}) == reference_text(filt)


@pytest.mark.parametrize(
    "args", [["haar", "--depth", "6"], ["journe_step"]], ids=" ".join
)
def test_special_values_decode_bitwise_and_re_emit(tmp_path, args):
    filt = special_filter(tmp_path, args)
    provenance = {"generator": args[0]}
    text = emit_bundle(filt, provenance)
    assert text == reference_text(filt, provenance)
    for s in SPECIALS:
        assert f'"{s}"' in text
    back, again = parse_bundle(text)
    expected = reference_decode(json.loads(text), filt.samples.shape)
    assert np.array_equal(bits(back.samples), bits(expected))
    # Every bit survives but a NaN's sign and payload (see same_values).
    assert same_values(back.samples, filt.samples)
    assert emit_bundle(back, again) == text


# Float64 bits that runs are drawn from: both zeros, NaNs with other
# payloads and signs, both infinities, two subnormals and 17-digit values.
RUN_POOL = [
    0x0000000000000000, 0x8000000000000000,
    0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000,
    0x7FF0000000000123, 0xFFF0000000000001,
    0x7FF0000000000000, 0xFFF0000000000000,
    0x0000000000000001, 0x800FFFFFFFFFFFFF,
] + np.array(
    [0.1 + 0.2, 2**0.5, -(2**0.5), 1.0000000000000002, 1 / 3]
).view(np.uint64).tolist()
RUN_PAIRS = st.tuples(st.sampled_from(RUN_POOL), st.sampled_from(RUN_POOL))


def run_rows(cells):
    """One entry's cells as (re, im) bit pairs, drawn run by run."""
    whole = RUN_PAIRS.map(lambda pair: [pair] * cells)
    alternating = (
        st.tuples(RUN_PAIRS, RUN_PAIRS)
        .filter(lambda ab: ab[0] != ab[1])
        .map(lambda ab: [ab[t % 2] for t in range(cells)])
    )
    runs = st.lists(
        st.tuples(RUN_PAIRS, st.integers(1, 9)), min_size=1, max_size=cells
    ).map(
        lambda runs: list(
            islice(cycle([pair for pair, k in runs for _ in range(k)]), cells)
        )
    )
    return st.one_of(whole, alternating, runs)


def run_heads(row):
    """The (re, im) bits of each run's first cell, found cell by cell."""
    pairs = bits(row).reshape(-1, 2).tolist()
    return [p for t, p in enumerate(pairs) if t == 0 or p != pairs[t - 1]]


@settings(deadline=None, max_examples=200)
@given(data=st.data())
def test_runs_emit_like_the_per_cell_reference_and_round_trip(data):
    count = data.draw(st.sampled_from([1, 2]), label="channels")
    grid = GridSpec(2, 1, data.draw(st.integers(1, 6), label="depth"))
    rows = [data.draw(run_rows(grid.cells)) for _ in range(count * count)]
    samples = np.array(rows, dtype=np.uint64).view(np.complex128)
    filt = FilterMatrix(
        2, SigmaChain.full_circle(count), grid, samples.reshape(count, count, -1)
    )
    # Small pieces put runs across piece boundaries.
    piece = data.draw(st.sampled_from([1, 2, 3, 4096]), label="piece runs")
    with mock.patch.object(bundleio, "_PIECE_RUNS", piece):
        for row in filt.samples.reshape(count * count, -1):
            assert "".join(bundleio._samples_text(row)) == "".join(
                reference_samples_text(row)
            )
        text = emit_bundle(filt, {"seed": 0})
    assert text == reference_text(filt, {"seed": 0})
    back, provenance = parse_bundle(text)
    expected = reference_decode(json.loads(text), filt.samples.shape)
    assert np.array_equal(bits(back.samples), bits(expected))
    assert same_values(back.samples, filt.samples)
    assert emit_bundle(back, provenance) == text


RUN_ARGS = [
    ["shannon", "--depth", "14"],
    ["journe_step"],
    ["journe", "--half-turn-phases", "--depth", "5"],
    ["haar", "--depth", "8"],
    ["constant", "--depth", "10"],
]


@pytest.mark.parametrize("args", RUN_ARGS, ids=" ".join)
def test_parse_converts_each_run_once(tmp_path, monkeypatch, args):
    text = generated_text(tmp_path, args)
    calls = []

    def counting(s):
        calls.append(s)
        return float(s)

    monkeypatch.setattr(bundleio, "float", counting, raising=False)
    filt, _ = parse_bundle(text)
    runs = sum(map(len, map(run_heads, filt.samples.reshape(filt.count**2, -1))))
    assert len(calls) == 2 * runs
    if args[0] == "shannon":
        assert runs == 3


@pytest.mark.parametrize("args", RUN_ARGS, ids=" ".join)
def test_emit_reprs_each_distinct_run_head_once(tmp_path, monkeypatch, args):
    filt, provenance = parse_bundle(generated_text(tmp_path, args))
    calls = []

    def counting(x):
        calls.append(x)
        return repr(x)

    monkeypatch.setattr(bundleio, "repr", counting, raising=False)
    emit_bundle(filt, provenance)
    rows = filt.samples.reshape(filt.count**2, -1)
    assert len(calls) == sum(
        len({b for pair in run_heads(row) for b in pair}) for row in rows
    )


@pytest.mark.parametrize(
    "args", [["journe_step", "--depth", "8"], ["journe", "--depth", "6"]], ids=" ".join
)
def test_parse_memory_follows_one_entry(tmp_path, args):
    """Each entry is decoded as the JSON decoder closes it, so the parse
    never holds every entry's sample strings at once, as json.loads does."""
    text = generated_text(tmp_path, args)
    peaks = []
    for decode in (json.loads, parse_bundle):
        tracemalloc.start()
        try:
            decode(text)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 0.5 * peaks[0]


def test_samples_in_the_provenance_stay_plain_json(tmp_path):
    filt, _ = parse_bundle(generated_text(tmp_path, ["journe_step"]))
    provenance = {"row": 0, "col": 0, "samples": [["1.50", "2"]]}
    text = emit_bundle(filt, provenance)
    back, again = parse_bundle(text)
    assert again == provenance
    assert type(again["samples"][0][0]) is str
    expected = reference_decode(json.loads(text), filt.samples.shape)
    assert np.array_equal(bits(back.samples), bits(expected))
    assert emit_bundle(back, again) == text


@pytest.mark.parametrize("valid", [True, False], ids=["bundle", "not JSON"])
@pytest.mark.parametrize("enabled", [True, False], ids=["gc on", "gc off"])
def test_gc_state_is_restored(tmp_path, monkeypatch, enabled, valid):
    text = generated_text(tmp_path, ["journe_step"]) if valid else "{not JSON"
    hook = bundleio._decode_entry
    during = []

    def recording(obj):
        during.append(gc.isenabled())
        return hook(obj)

    monkeypatch.setattr(bundleio, "_decode_entry", recording)
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        if valid:
            parse_bundle(text)
        else:
            with pytest.raises(BundleFormatError):
                parse_bundle(text)
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()
    # The hook runs inside json.loads, so it sees the collector paused.
    assert not any(during)
    assert len(during) >= 5 if valid else not during


# A malformed pair, the message it must raise, and where each is placed:
# sample 0 of entry (0, 0), then sample 0 and the last sample of entry
# (1, 0) of the two-channel journe_step bundle.
FAULTS = [
    pytest.param("1.0", "expected [re, im]", id="string"),
    pytest.param({"re": "1.0"}, "expected [re, im]", id="object"),
    pytest.param(["1.0"], "expected [re, im]", id="one part"),
    pytest.param(["1.0", "0.0", "0.0"], "expected [re, im]", id="three parts"),
    pytest.param([1.0, "0.0"], "expected a decimal string", id="number re"),
    pytest.param(["1.0", None], "expected a decimal string", id="null im"),
    pytest.param(["1.0x", "0.0"], "bad decimal '1.0x'", id="bad re"),
    pytest.param(["0.0", "1.0x"], "bad decimal '1.0x'", id="bad im"),
]
LAST = 111
PLACES = [(0, 0, 0), (1, 0, 0), (1, 0, LAST)]


def faulty_bundle(tmp_path, faults):
    """journe_step's bundle with each (row, col, sample, pair) put in place."""
    raw = json.loads(generated_text(tmp_path, ["journe_step"]))
    by_cell = {(e["row"], e["col"]): e["samples"] for e in raw["entries"]}
    assert len(by_cell[1, 0]) == LAST + 1
    for i, j, t, pair in faults:
        by_cell[i, j][t] = pair
    path = tmp_path / "faulty.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


@pytest.mark.parametrize("place", PLACES, ids=[f"{i},{j},{t}" for i, j, t in PLACES])
@pytest.mark.parametrize("pair,problem", FAULTS)
def test_malformed_sample_is_named(tmp_path, capsys, place, pair, problem):
    i, j, t = place
    path = faulty_bundle(tmp_path, [(i, j, t, pair)])
    message = f"entry ({i}, {j}) sample {t}: {problem}"
    with pytest.raises(BundleFormatError) as exc:
        parse_bundle(path.read_text(encoding="utf-8"))
    assert str(exc.value) == message
    capsys.readouterr()
    assert main(["verify", str(path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"gmrafilters: {message}"]


def test_first_malformed_sample_wins(tmp_path):
    path = faulty_bundle(
        tmp_path,
        [(1, 1, 0, "x"), (1, 0, LAST, ["1.0x", "0.0"]), (1, 0, 7, [0, 0])],
    )
    with pytest.raises(BundleFormatError) as exc:
        parse_bundle(path.read_text(encoding="utf-8"))
    assert str(exc.value) == "entry (1, 0) sample 7: expected a decimal string"


def bad_run(start, end, pair):
    return [(t, pair) for t in range(start, end)]


# shannon's default bundle is one entry of 64 cells in three runs:
# [0, 16) and [48, 64) hold sqrt(2), [16, 48) holds zero.  Each case
# replaces some samples (None: the whole list) and names the message.
RUN_FAULTS = [
    pytest.param(
        bad_run(20, 30, ["0.0x", "0.0"]),
        "entry (0, 0) sample 20: bad decimal '0.0x'",
        id="run of bad strings",
    ),
    pytest.param(
        bad_run(16, 48, ["0.0", "0.0x"]),
        "entry (0, 0) sample 16: bad decimal '0.0x'",
        id="whole run of bad strings",
    ),
    pytest.param(
        [(16, [0.0, "0.0"])],
        "entry (0, 0) sample 16: expected a decimal string",
        id="bad head before equal pairs",
    ),
    pytest.param(
        bad_run(48, 64, [1.0, "0.0"]),
        "entry (0, 0) sample 48: expected a decimal string",
        id="run of equal bad pairs",
    ),
    pytest.param(
        [(30, [0.0, 0.0])],
        "entry (0, 0) sample 30: expected a decimal string",
        id="numbers inside a run",
    ),
    pytest.param(
        [(t, ["0.0"]) for t in range(40, 64)],
        "entry (0, 0) sample 40: expected [re, im]",
        id="run of short pairs",
    ),
    pytest.param(
        bad_run(20, 22, {"samples": [["1.0", "0.0"]]}),
        "entry (0, 0) sample 20: expected [re, im]",
        id="run of objects holding samples",
    ),
    pytest.param(
        [(None, [["1.0", "0.0"]])],
        "entry (0, 0) carries 1 samples, the grid has 64 cells",
        id="one sample",
    ),
    pytest.param(
        [(None, [])],
        "entry (0, 0) carries 0 samples, the grid has 64 cells",
        id="no samples",
    ),
]


@pytest.mark.parametrize("faults,message", RUN_FAULTS)
def test_malformed_runs_are_named(tmp_path, capsys, faults, message):
    raw = json.loads(generated_text(tmp_path, ["shannon"]))
    samples = raw["entries"][0]["samples"]
    assert len(samples) == 64
    for t, pair in faults:
        if t is None:
            samples[:] = pair
        else:
            samples[t] = pair
    path = tmp_path / "faulty.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    if len(samples) == 64:
        assert reference_decode(raw, (1, 1, 64)) == message
    capsys.readouterr()
    assert main(["verify", str(path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"gmrafilters: {message}"]


def test_equal_samples_nested_near_the_recursion_limit_are_named(
    tmp_path, monkeypatch
):
    """Runs are found by comparing neighbours, which recurses into nested
    lists; samples too deep to compare are still named by the walk."""
    raw = json.loads(generated_text(tmp_path, ["haar", "--depth", "2"]))
    raw["entries"][0]["samples"][:2] = ["@", "@"]
    text = json.dumps(raw)
    hook = bundleio._decode_entry
    raised = []

    def recording(obj):
        try:
            return hook(obj)
        except RecursionError:
            raised.append(obj)
            raise

    monkeypatch.setattr(bundleio, "_decode_entry", recording)
    limit = sys.getrecursionlimit()
    messages = set()
    for depth in range(limit // 2, limit):
        with pytest.raises(BundleFormatError) as exc:
            parse_bundle(text.replace('"@"', "[" * depth + "]" * depth))
        messages.add(str(exc.value).split(":")[0])
    assert not raised
    assert messages == {"entry (0, 0) sample 0", "bundle is not valid JSON"}


# Mutations for the fuzz: float-like and arbitrary strings, other JSON
# values, pairs of strings, lists of the wrong length, nested lists, and
# objects, some holding a "samples" list that the parser's hook decodes.
DECIMALS = st.one_of(
    st.sampled_from(
        SPECIALS
        + ["NaN", "-nan", "Infinity", " 1.5 ", "1_0", "0x10", "", "1.0x", "+.5"]
        + ["1e999", "-1e-999"]
    ),
    st.floats().map(repr),
    st.text(max_size=6),
)
LEAVES = st.one_of(DECIMALS, st.integers(), st.floats(), st.booleans(), st.none())
PAIRS = st.one_of(
    st.lists(DECIMALS, min_size=2, max_size=2),
    st.lists(LEAVES, max_size=4),
    st.recursive(LEAVES, lambda inner: st.lists(inner, max_size=3), max_leaves=6),
    st.dictionaries(st.sampled_from(["samples", "re"]), LEAVES, max_size=2),
    st.fixed_dictionaries(
        {
            "samples": st.lists(
                st.lists(st.sampled_from(SPECIALS), min_size=2, max_size=2)
            )
        }
    ),
)
FUZZ_BASES = {
    "haar": ["haar", "--depth", "2"],
    "journe_step": ["journe_step", "--depth", "1"],
}


@pytest.fixture(scope="module")
def fuzz_bases(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz")
    return {name: generated_text(tmp, args) for name, args in FUZZ_BASES.items()}


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_fuzzed_samples_decode_like_the_per_sample_rule(fuzz_bases, data):
    name = data.draw(st.sampled_from(sorted(fuzz_bases)))
    base, _ = parse_bundle(fuzz_bases[name])
    raw = json.loads(fuzz_bases[name])
    mutations = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, len(raw["entries"]) - 1),
                st.integers(0, base.cells - 1),
                PAIRS,
                st.integers(1, 3),
            ),
            min_size=1,
            max_size=3,
        )
    )
    # Each mutation writes its pair over a run of up to three cells, so
    # equal neighbours of every kind are compared.
    for e, t, pair, k in mutations:
        for u in range(t, min(t + k, base.cells)):
            raw["entries"][e]["samples"][u] = pair
    text = json.dumps(raw)
    expected = reference_decode(raw, base.samples.shape)
    if isinstance(expected, str):
        with pytest.raises(BundleFormatError) as exc:
            parse_bundle(text)
        assert str(exc.value) == expected
        return
    filt, provenance = parse_bundle(text)
    assert np.array_equal(bits(filt.samples), bits(expected))
    again, _ = parse_bundle(emit_bundle(filt, provenance))
    assert same_values(again.samples, filt.samples)
