"""Bundle text: byte-exact round trips, special float values, the rendering
emission must equal, per-sample parse errors, a fuzz of the parser, and
the parser's memory and GC behaviour.

Emission writes sample text straight from the array and parsing decodes
whole entries through the float64 view of the samples, so these tests
hold both against the per-sample forms they replaced: the dict of
``complex_pair`` lists under ``canonical_json`` and one
``complex(float(re), float(im))`` per sample.
"""

import gc
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmrafilters import (
    BundleFormatError,
    FilterMatrix,
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


# Mutations for the fuzz: float-like and arbitrary strings, other JSON
# values, pairs of strings, lists of the wrong length, and nested lists.
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
            ),
            min_size=1,
            max_size=3,
        )
    )
    for e, t, pair in mutations:
        raw["entries"][e]["samples"][t] = pair
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
