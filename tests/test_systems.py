import dataclasses
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from fullgroups import systems
from fullgroups.errors import ParseError, PreconditionError, SystemConfigError
from fullgroups.systems import (
    SubstitutionSpec,
    _subst_factors,
    base_point,
    language,
    make_system,
)
from fullgroups.towers import TowerSequence
from oracles import odometer_shifted, stream_digit


def odometer2():
    return make_system({"kind": "odometer", "bases": [2]})


def fibonacci():
    return make_system({"kind": "substitution", "rule": {"a": "ab", "b": "a"}})


def thue_morse():
    return make_system({"kind": "substitution", "rule": {"a": "ab", "b": "ba"}})


def test_make_system_rejects_bad_bases():
    with pytest.raises(SystemConfigError):
        make_system({"kind": "odometer", "bases": [1, 2]})
    with pytest.raises(SystemConfigError):
        make_system({"kind": "odometer", "bases": []})


def test_make_system_rejects_nonprimitive():
    # b never reaches a
    with pytest.raises(SystemConfigError):
        make_system({"kind": "substitution", "rule": {"a": "ab", "b": "bb"}})


def test_make_system_rejects_periodic():
    with pytest.raises(SystemConfigError):
        make_system({"kind": "substitution", "rule": {"a": "ab", "b": "ab"}})


def test_make_system_rejects_nongrowing():
    with pytest.raises(SystemConfigError):
        make_system({"kind": "substitution", "rule": {"a": "b", "b": "a"}})


def test_spec_hash_is_the_field_hash_taken_once():
    for make, fields in ((odometer2, ("bases",)), (fibonacci, ("alphabet", "rule"))):
        spec = make()
        assert [f.name for f in dataclasses.fields(spec)] == list(fields)
        assert hash(spec) == hash(tuple(getattr(spec, f) for f in fields))
        assert make() == spec and hash(make()) == hash(spec)
    assert odometer2() != make_system({"kind": "odometer", "bases": [2, 3]})


def test_accepts_thue_morse():
    spec = thue_morse()
    assert spec.kind == "substitution"


def test_odometer_language():
    spec = odometer2()
    assert language(spec, 2) == {"00", "01", "10", "11"}
    mixed = make_system({"kind": "odometer", "bases": [2, 3]})
    assert len(language(mixed, 2)) == 6
    assert len(language(mixed, 4)) == 36


def test_fibonacci_language():
    spec = fibonacci()
    assert language(spec, 2) == {"aa", "ab", "ba"}
    # Sturmian complexity: L + 1 factors of length L
    for L in (1, 2, 3, 5, 9):
        assert len(language(spec, L)) == L + 1
    assert "bb" not in language(spec, 2)
    assert "aaa" not in language(spec, 3)


def test_thue_morse_language_counts():
    spec = thue_morse()
    assert len(language(spec, 1)) == 2
    assert len(language(spec, 2)) == 4
    assert len(language(spec, 3)) == 6
    assert len(language(spec, 4)) == 10


def test_base_points_odometer():
    spec = odometer2()
    primary, cert = base_point(spec, "primary")
    assert cert and primary.window(0, 4) == "00000"
    alt, cert = base_point(spec, "alternate")
    assert cert
    assert alt.window(0, 3) == "1010"


def test_base_point_fibonacci_fixed_word():
    spec = fibonacci()
    primary, cert = base_point(spec, "primary")
    assert cert
    assert primary.window(0, 4) == "abaab"
    # left tail is a suffix of iterated images of the left seed
    assert primary.window(-3, -1) == "aba"
    alt, cert = base_point(spec, "alternate")
    assert not cert
    assert alt.window(-1, 0) == "ba"


def test_point_windows_are_admissible():
    for spec in (fibonacci(), thue_morse()):
        p, _ = base_point(spec, "primary")
        for lo in (-7, -3, 0, 2):
            w = p.window(lo, lo + 5)
            assert w in language(spec, 6)


def test_odometer_shift_carries():
    spec = odometer2()
    p, _ = base_point(spec, "primary")
    assert p.shifted(1).window(0, 2) == "100"
    assert p.shifted(3).window(0, 2) == "110"
    assert p.shifted(4).window(0, 3) == "0010"
    # T^-1(0^inf) = 1^inf
    back = p.shifted(-1)
    assert back.window(0, 5) == "111111"
    # and T(1^inf) = 0^inf again
    assert back.shifted(1).window(0, 5) == "000000"


def test_odometer_shift_roundtrip():
    spec = make_system({"kind": "odometer", "bases": [2, 3]})
    p = spec.point((1, 2), (0, 1))
    for n in (1, -1, 5, -5, 17, -23):
        q = p.shifted(n).shifted(-n)
        assert q.window(0, 9) == p.window(0, 9)


def test_orbit_certificate():
    spec = odometer2()
    alt, _ = base_point(spec, "alternate")
    assert alt.orbit_certificate()
    prim, _ = base_point(spec, "primary")
    assert not prim.orbit_certificate()
    assert not prim.shifted(12).orbit_certificate()
    assert not prim.shifted(-9).orbit_certificate()


ODOMETERS = {
    "2": make_system({"kind": "odometer", "bases": [2]}),
    "2-3": make_system({"kind": "odometer", "bases": [2, 3]}),
    "3": make_system({"kind": "odometer", "bases": [3]}),
    "2-2-3": make_system({"kind": "odometer", "bases": [2, 2, 3]}),
}


@st.composite
def odometer_streams(draw, spec):
    """A valid (pre, period): a zero tail, a top tail or any valid cycle."""
    pre = tuple(draw(st.integers(0, spec.base_at(i) - 1)) for i in range(draw(st.integers(0, 4))))
    start = len(pre)
    tail = draw(st.sampled_from(["zero", "top", "any"]))
    if tail == "zero":
        return pre, (0,)
    if tail == "top":
        return pre, tuple(spec.base_at(start + j) - 1 for j in range(len(spec.bases)))
    length = draw(st.integers(1, 6))
    # digit j recurs at start + j + k * length, so it must fit every base it meets
    period = tuple(
        draw(st.integers(0, min(spec.base_at(start + j + k * length) for k in range(len(spec.bases))) - 1))
        for j in range(length)
    )
    return pre, period


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(ODOMETERS)), st.data())
def test_odometer_shift_matches_carry_reference(name, data):
    spec = ODOMETERS[name]
    pre, period = data.draw(odometer_streams(spec), label="stream")
    p = spec.point(pre, period)
    a = data.draw(st.integers(-300, 300), label="a")
    b = data.draw(st.integers(-300, 300), label="b")
    hi = data.draw(st.integers(0, 12), label="hi")
    lo = data.draw(st.integers(0, hi), label="lo")
    ref_pre, ref_period = odometer_shifted(spec, pre, period, a)
    expected = "".join(str(stream_digit(ref_pre, ref_period, i)) for i in range(lo, hi + 1))
    assert p.shifted(a).window(lo, hi) == expected
    assert p.shifted(a).shifted(b).window(0, 12) == p.shifted(a + b).window(0, 12)
    assert p.shifted(a).orbit_certificate() == p.orbit_certificate()
    # the reference stream is T^a x too, so it carries the same certificate
    assert spec.point(ref_pre, ref_period).orbit_certificate() == p.orbit_certificate()


def tribonacci():
    return make_system({"kind": "substitution", "rule": {"a": "ab", "b": "ac", "c": "a"}})


SUBSHIFTS = {"fibonacci": fibonacci(), "thue-morse": thue_morse(), "tribonacci": tribonacci()}


@pytest.mark.parametrize("name", sorted(SUBSHIFTS))
def test_word_index_is_the_sorted_language_as_strings(name):
    """The index holds the sorted language as strings, and every word of
    width <= 11 occurs in a central window of the fixed point."""
    spec = SUBSHIFTS[name]
    text = base_point(spec)[0].window(-400, 400)
    for n in range(1, 12):
        words, position = spec.word_index(n)
        assert list(words) == sorted(language(spec, n))
        assert set(words) == {text[i : i + n] for i in range(len(text) - n + 1)}
        assert all(position[w] == i for i, w in enumerate(words))


@pytest.mark.parametrize("name", sorted(SUBSHIFTS) + ["odometer-2", "odometer-2-3"])
def test_word_admissible_agrees_with_the_language(name):
    spec = SUBSHIFTS.get(name) or ODOMETERS[name.removeprefix("odometer-")]
    letters = spec.alphabet if name in SUBSHIFTS else "0123"
    for n in range(1, 7):
        admissible = language(spec, n)
        for w in map("".join, itertools.product(letters, repeat=n)):
            assert spec.word_admissible(w) == (w in admissible), w
    if name in SUBSHIFTS:
        return
    # a digit at or above its base, a non-digit, a non-ASCII digit int() reads as 3
    for bad in ("2", "012", "0a", "a", "0 ", "٣", "0٣"):
        assert not spec.word_admissible(bad), bad
        with pytest.raises(ParseError, match="bad odometer word"):
            spec.parse_word(bad)
    assert spec.parse_word("0101") == "0101"


@pytest.mark.parametrize(
    "pre, period, message",
    [
        ((), (), "nonempty periodic tail"),
        ((2,), (0,), "digit 2 invalid at position 0"),
        # the tail digit 2 fits base 3 at position 1 but not base 2 at position 2
        ((0,), (2,), "digit 2 invalid at position 2"),
        ((-1,), (0,), "digit -1 invalid at position 0"),
    ],
)
def test_odometer_point_refuses_a_bad_stream(pre, period, message):
    with pytest.raises(PreconditionError, match=message):
        ODOMETERS["2-3"].point(pre, period)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(SUBSHIFTS)), st.integers(1, 9), st.data())
def test_encode_decode_and_word_bit_round_trip(name, width, data):
    spec = SUBSHIFTS[name]
    admissible = sorted(language(spec, width))
    words = data.draw(st.sets(st.sampled_from(admissible)), label="words")
    mask = spec.encode(words, width)
    assert mask.bit_count() == len(words)
    assert spec.decode(mask, width) == sorted(words)
    for w in words:
        bit = spec.word_bit(w, width)
        assert spec.decode(1 << bit, width) == [w]
        assert bit == admissible.index(w)


# Fibonacci, Thue-Morse, tribonacci, and three rules with unequal images
WORD_TABLE_RULES = (
    {"a": "ab", "b": "a"},
    {"a": "ab", "b": "ba"},
    {"a": "ab", "b": "ac", "c": "a"},
    {"a": "aab", "b": "ba"},
    {"a": "abc", "b": "bc", "c": "ca"},
    {"a": "b", "b": "ab"},
)


@pytest.mark.parametrize("rule", WORD_TABLE_RULES, ids=lambda r: ",".join(f"{a}>{w}" for a, w in r.items()))
def test_word_index_reads_other_widths_as_prefixes(rule):
    """A width that is neither <= 2 nor a power of two is read off the next
    power of two's table, and still equals the sorted factor scan."""
    spec = make_system({"kind": "substitution", "rule": rule})
    for n in range(1, 131):
        assert spec.word_index(n)[0] == tuple(sorted(_subst_factors(spec, n))), n


def test_subshift_levels_scan_only_short_and_power_of_two_widths(monkeypatch):
    """Cold levels 1-9 scan factors only at widths <= 2 or powers of two,
    and every word index they read is sorted."""
    scanned = []
    scan = systems._subst_factors
    monkeypatch.setattr(systems, "_subst_factors", lambda spec, n: scanned.append(n) or scan(spec, n))
    index = SubstitutionSpec.word_index

    def sorted_index(spec, width):
        words, position = index(spec, width)
        assert list(words) == sorted(words), width
        return words, position

    monkeypatch.setattr(SubstitutionSpec, "word_index", sorted_index)
    index.cache_clear()
    systems._fiber_table.cache_clear()
    for spec in (fibonacci(), thue_morse()):
        TowerSequence(spec, base_point(spec)[0]).level(9)
    assert scanned and all(n <= 2 or not n & (n - 1) for n in scanned), sorted(set(scanned))


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(sorted(SUBSHIFTS)),
    st.sampled_from(("primary", "alternate")),
    st.integers(-500, 500),
    st.integers(-60, 60),
    st.integers(0, 40),
)
def test_substitution_window_matches_a_direct_expansion(name, which, shift, lo, length):
    spec = SUBSHIFTS[name]
    point = base_point(spec, which)[0]
    left, right = point.left, point.right
    while min(len(left), len(right)) < 700:
        left, right = spec.apply_rule(left, point.power), spec.apply_rule(right, point.power)
    start = shift + lo
    expected = "".join(right[i] if i >= 0 else left[i] for i in range(start, start + length + 1))
    assert point.shifted(shift).window(lo, lo + length) == expected
