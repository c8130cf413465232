"""The bitmask clopen kernel against a word-set reference, on the system matrix.

The reference keeps a clopen set as a frozenset of words on a window and
computes every operation from `language()` alone: expansion lists the
admissible words of the wider window whose slice is in the set, and the
canonical form walks down the ladder while the set is a union of whole
fibers. Kernel results are compared by their decoded canonical forms.
"""

from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from fullgroups.clopen import ClopenSet, cylinder, empty, union_all
from fullgroups.errors import ParseError, PreconditionError
from fullgroups.formats import parse_clopen
from fullgroups.sampling import random_products
from fullgroups.systems import base_point, language, make_system
from oracles import cocycle_table, cocycle_values_on

SYSTEMS = {
    "odometer-2": make_system({"kind": "odometer", "bases": [2]}),
    "odometer-2-3": make_system({"kind": "odometer", "bases": [2, 3]}),
    "fibonacci": make_system({"kind": "substitution", "rule": {"a": "ab", "b": "a"}}),
    "thue-morse": make_system({"kind": "substitution", "rule": {"a": "ab", "b": "ba"}}),
    "tribonacci": make_system({"kind": "substitution", "rule": {"a": "ab", "b": "ac", "c": "a"}}),
}
O2 = SYSTEMS["odometer-2"]


def _expand(spec, words, win, target):
    lo, hi = win
    LO, HI = target
    assert LO <= lo and hi <= HI
    a, b = lo - LO, hi - LO + 1
    return frozenset(w for w in language(spec, HI - LO + 1) if w[a:b] in words)


def _hull(spec, *wins):
    return spec.ladder_window(max(spec.ladder_size(*w) for w in wins))


def _canonical(spec, words, win):
    size = spec.ladder_size(*win)
    words = _expand(spec, words, win, spec.ladder_window(size))
    while size > spec.floor:
        lo, hi = spec.ladder_window(size)
        slo, shi = spec.ladder_window(size - 1)
        inner = frozenset(w[slo - lo : shi - lo + 1] for w in words)
        if _expand(spec, inner, (slo, shi), (lo, hi)) != words:
            break
        words, size = inner, size - 1
    lo, hi = spec.ladder_window(size)
    return lo, hi, words


def _translate(spec, words, win, n):
    """T^n on a word set: odometers add n with carry, subshifts move the window."""
    lo, hi = win
    if spec.kind != "odometer":
        return words, (lo - n, hi - n)
    moved = set()
    for w in words:
        digits, carry = [int(d) for d in w], n
        for i in range(len(digits)):
            carry, digits[i] = divmod(digits[i] + carry, spec.base_at(i))
        moved.add("".join(map(str, digits)))
    return frozenset(moved), win


def _form(c: ClopenSet):
    return c.lo, c.hi, frozenset(c.sorted_words())


@st.composite
def word_sets(draw, spec):
    """(window, words): any admissible words on a small window."""
    if spec.kind == "odometer":
        lo, width = 0, draw(st.integers(1, 4))
    else:
        lo, width = draw(st.integers(-3, 2)), draw(st.integers(1, 5))
    words = draw(st.sets(st.sampled_from(sorted(language(spec, width)))))
    return (lo, lo + width - 1), frozenset(words)


def _build(spec, win, words):
    return union_all(spec, [cylinder(spec, w, win[0]) for w in sorted(words)])


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(SYSTEMS)), st.data())
def test_kernel_matches_word_set_reference(name, data):
    spec = SYSTEMS[name]
    wa, A = data.draw(word_sets(spec), label="A")
    wb, B = data.draw(word_sets(spec), label="B")
    a, b = _build(spec, wa, A), _build(spec, wb, B)
    H = _hull(spec, wa, wb)
    EA, EB = _expand(spec, A, wa, H), _expand(spec, B, wb, H)

    assert _form(a) == _canonical(spec, A, wa)
    assert a.word_count() == len(_canonical(spec, A, wa)[2])
    assert _form(a.union(b)) == _canonical(spec, EA | EB, H)
    assert _form(a.intersect(b)) == _canonical(spec, EA & EB, H)
    assert _form(a.difference(b)) == _canonical(spec, EA - EB, H)
    everything = frozenset(language(spec, wa[1] - wa[0] + 1))
    assert _form(a.complement()) == _canonical(spec, everything - A, wa)
    assert a.subset(b) == (EA <= EB)
    assert a.disjoint(b) == (not EA & EB)

    n = data.draw(st.integers(-9, 9), label="n")
    moved, win = _translate(spec, A, wa, n)
    assert _form(a.translate(n)) == _canonical(spec, moved, win)

    x, _ = base_point(spec, "primary")
    x = x.shifted(data.draw(st.integers(-20, 20), label="shift"))
    assert a.contains_point(x) == (x.window(*wa) in A)

    radius = data.draw(st.integers(0, 4), label="radius")
    central = spec.ladder_window(radius)
    H = _hull(spec, wa, central)
    lo = H[0]
    heads = {w[central[0] - lo : central[1] - lo + 1] for w in _expand(spec, A, wa, H)}
    assert a.fits_in_radius(radius) == (len(heads) <= 1)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(SYSTEMS)), st.data())
def test_union_all_matches_pairwise_fold(name, data):
    spec = SYSTEMS[name]
    families = data.draw(st.lists(word_sets(spec), max_size=4), label="sets")
    sets = [
        reduce(ClopenSet.union, (cylinder(spec, w, win[0]) for w in sorted(words)), empty(spec))
        for win, words in families
    ]
    assert union_all(spec, sets) == reduce(ClopenSet.union, sets, empty(spec))
    assert _form(union_all(spec, iter(sets))) == _form(reduce(ClopenSet.union, sets, empty(spec)))


def test_union_all_of_nothing_is_empty_and_mixed_systems_raise():
    for spec in SYSTEMS.values():
        assert union_all(spec, []) == empty(spec)
    fib = SYSTEMS["fibonacci"]
    a, b = cylinder(O2, "0"), cylinder(fib, "a")
    with pytest.raises(PreconditionError, match="different systems"):
        union_all(O2, [a, b])
    with pytest.raises(PreconditionError, match="different systems"):
        union_all(fib, [a])


def _values_by_word_table(s, a):
    """cocycle_values_on as a lookup of the words of A in cocycle_table."""
    spec = s.spec
    win, table = cocycle_table(s)
    H = _hull(spec, win, (a.lo, a.hi))
    i, j = win[0] - H[0], win[1] - H[0] + 1
    return {table[w[i:j]] for w in _expand(spec, frozenset(a.sorted_words()), (a.lo, a.hi), H)}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(SYSTEMS)), st.integers(0, 10**6), st.data())
def test_cocycle_values_on_matches_word_table(name, seed, data):
    spec = SYSTEMS[name]
    (s,) = random_products(spec, 1, seed, max_len=3)
    win, words = data.draw(word_sets(spec), label="A")
    a = _build(spec, win, words)
    assert cocycle_values_on(s, a) == _values_by_word_table(s, a)


def test_odometer_mask_cap_names_its_knob():
    # a 40-digit cylinder would be a 2^40-bit mask
    with pytest.raises(PreconditionError, match=r"_ODOMETER_WORD_CAP = 2\^22"):
        cylinder(O2, "0000000000000000000000000000000000000000")
    with pytest.raises(ParseError, match=r"_ODOMETER_WORD_CAP = 2\^22"):
        parse_clopen("0" * 40 + "@0", O2)
    with pytest.raises(PreconditionError, match=r"_ODOMETER_WORD_CAP = 2\^22"):
        language(O2, 23)
    assert cylinder(O2, "1111111111111111111111").word_count() == 1

