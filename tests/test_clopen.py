import math
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from fullgroups import systems
from fullgroups.clopen import (
    ClopenSet,
    _expand_words,
    check_partition,
    cylinder,
    empty,
    full,
    union_all,
)
from fullgroups.errors import NotPartitionError, PreconditionError
from fullgroups.formats import parse_clopen
from fullgroups.systems import _bits, _fiber_table, base_point, language, make_system

O2 = make_system({"kind": "odometer", "bases": [2]})
FIB = make_system({"kind": "substitution", "rule": {"a": "ab", "b": "a"}})
TM = make_system({"kind": "substitution", "rule": {"a": "ab", "b": "ba"}})
O23 = make_system({"kind": "odometer", "bases": [2, 3]})
TRIB = make_system({"kind": "substitution", "rule": {"a": "ab", "b": "ac", "c": "a"}})


def rand_clopen(spec, rng):
    import random

    r = random.Random(rng)
    depth = r.randint(1, 4)
    words = sorted(language(spec, depth))
    picked = [w for w in words if r.random() < 0.5]
    out = empty(spec)
    offset = 0 if spec.kind == "odometer" else r.randint(-2, 2)
    for w in picked:
        out = out.union(cylinder(spec, w, offset))
    return out


def test_inadmissible_word_is_empty():
    assert cylinder(FIB, "bb").is_empty()
    assert cylinder(O2, "02").is_empty()


def test_a_digit_string_is_the_parsed_cylinder():
    assert cylinder(O2, "01") == parse_clopen("01@0", O2)
    assert cylinder(O2, "01").word_count() == 1


@pytest.mark.parametrize("word", [(0, 1), ("a",), ["0"], "", 0])
def test_cylinder_refuses_a_word_that_is_not_a_nonempty_string(word):
    spec = FIB if word == ("a",) else O2
    with pytest.raises(PreconditionError, match=re.escape(repr(word))):
        cylinder(spec, word)


def test_odometer_offset_rejected():
    with pytest.raises(PreconditionError):
        cylinder(O2, "0", offset=1)


def test_translate_shifts_subshift_window():
    c = cylinder(FIB, "ab", 0)
    t = c.translate(1)
    # T[ab]@0 = [ab]@-1
    assert t == cylinder(FIB, "ab", -1)
    assert t.translate(-1) == c


def test_translate_odometer_carry():
    one = cylinder(O2, "11")
    assert one.translate(1) == cylinder(O2, "00")
    assert cylinder(O2, "1").translate(1) == cylinder(O2, "0")
    # depth is preserved exactly
    third = cylinder(O2, "010")
    assert third.translate(2) == cylinder(O2, "001")
    assert third.translate(-2) == cylinder(O2, "000")
    assert third.translate(8) == third


def test_intersect_fibonacci_example():
    # {x0 = a} meets {x1 = a} exactly on the cylinder aa@0
    a0 = cylinder(FIB, "a", 0)
    a1 = cylinder(FIB, "a", 1)
    assert a0.intersect(a1) == cylinder(FIB, "aa", 0)


def test_canonical_form_merges_siblings():
    zero = cylinder(O2, "0")
    again = cylinder(O2, "00").union(cylinder(O2, "01"))
    assert again == zero
    assert again.hi == 0 and frozenset(again.sorted_words()) == frozenset({"0"})


def test_canonicalization_idempotent_and_unique():
    s = cylinder(FIB, "ab", 3).union(cylinder(FIB, "ba", -2))
    t = ClopenSet._canonical(FIB, s.mask, (s.lo, s.hi))
    assert (t.lo, t.hi, frozenset(t.sorted_words())) == (s.lo, s.hi, frozenset(s.sorted_words()))


def test_complement_roundtrip():
    c = cylinder(FIB, "aa", 0)
    assert c.complement().complement() == c
    assert c.union(c.complement()) == full(FIB)
    assert c.intersect(c.complement()) == empty(FIB)


def test_full_empty_are_fixed_points():
    for spec in (O2, FIB):
        assert full(spec).complement() == empty(spec)
        assert empty(spec).complement() == full(spec)
        assert full(spec).translate(3) == full(spec)
        assert empty(spec).translate(-2) == empty(spec)


def test_contains_point():
    p, _ = base_point(FIB, "primary")
    assert cylinder(FIB, "ab", 0).contains_point(p)
    assert not cylinder(FIB, "ba", 0).contains_point(p)
    assert cylinder(FIB, "a", -1).contains_point(p)
    q, _ = base_point(O2, "primary")
    assert cylinder(O2, "000").contains_point(q)
    assert cylinder(O2, "1").contains_point(q.shifted(1))


def test_fits_in_radius():
    assert cylinder(O2, "010").fits_in_radius(3)
    assert cylinder(O2, "0").union(cylinder(O2, "1")).fits_in_radius(0)
    assert not full(O2).fits_in_radius(1)
    c = cylinder(FIB, "aba", -1)
    assert c.fits_in_radius(1)
    assert not full(FIB).fits_in_radius(0) or len(language(FIB, 1)) == 1


def test_check_partition():
    cells = [cylinder(O2, "0"), cylinder(O2, "1")]
    check_partition(O2, cells)
    with pytest.raises(NotPartitionError):
        check_partition(O2, [cylinder(O2, "0"), cylinder(O2, "01")])
    with pytest.raises(NotPartitionError):
        check_partition(O2, [cylinder(O2, "0"), full(O2)])


def test_check_partition_refuses_cells_of_another_system():
    # the cells tile odometer [2,3], whose masks would pass a count on [2]
    with pytest.raises(PreconditionError, match="different systems"):
        check_partition(O2, [cylinder(O23, "0"), cylinder(O23, "1")])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9), st.integers(0, 10**9), st.sampled_from(["o", "f"]))
def test_boolean_algebra_laws(sa, sb, which):
    spec = O2 if which == "o" else FIB
    A = rand_clopen(spec, sa)
    B = rand_clopen(spec, sb)
    assert A.union(B) == B.union(A)
    assert A.intersect(B) == B.intersect(A)
    assert A.difference(B) == A.intersect(B.complement())
    # De Morgan
    assert A.union(B).complement() == A.complement().intersect(B.complement())
    # word by word on the widest of the three windows: union is A's words or B's
    U = A.union(B)
    size = max(spec.ladder_size(c.lo, c.hi) for c in (A, B, U))
    lo, hi = spec.ladder_window(size)

    def words(c):
        return set(spec.decode(_expand_words(spec, c.mask, (c.lo, c.hi), size), hi - lo + 1))

    assert words(U) == words(A) | words(B)
    assert A.subset(A.union(B))
    assert A.intersect(B).subset(A)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9), st.integers(-9, 9), st.sampled_from(["o", "f"]))
def test_translate_is_boolean_homomorphism(seed, n, which):
    spec = O2 if which == "o" else FIB
    A = rand_clopen(spec, seed)
    B = rand_clopen(spec, seed // 7 + 13)
    assert A.translate(n).translate(-n) == A
    assert A.union(B).translate(n) == A.translate(n).union(B.translate(n))
    assert A.complement().translate(n) == A.translate(n).complement()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9), st.integers(-40, 40), st.sampled_from(["o2", "o23"]))
def test_odometer_translate_keeps_the_canonical_window(seed, n, which):
    """T^n rotates the residues on the set's own window, and the rotated
    mask is already canonical."""
    spec = O2 if which == "o2" else O23
    A = rand_clopen(spec, seed)
    mask, lo, hi = spec.translate_mask(A.mask, A.lo, A.hi, n)
    assert (lo, hi) == (A.lo, A.hi)
    assert A.translate(n) == ClopenSet._canonical(spec, mask, (lo, hi))


def test_union_all():
    words = sorted(language(FIB, 3))
    total = union_all(FIB, [cylinder(FIB, w, 0) for w in words])
    assert total == full(FIB)


def _reference_canonical(spec, words, size):
    """Canonical form with the projection-count table rebuilt from the language on each rung."""
    while size > spec.floor:
        lo, hi = spec.ladder_window(size)
        slo, shi = spec.ladder_window(size - 1)
        a, b = slo - lo, shi - lo + 1
        groups = Counter(w[a:b] for w in words)
        full_counts = Counter(big[a:b] for big in language(spec, hi - lo + 1))
        if any(groups[u] != full_counts[u] for u in groups):
            break
        words = frozenset(groups)
        size -= 1
    lo, hi = spec.ladder_window(size)
    return lo, hi, words


SYSTEMS = {"o2": O2, "o23": O23, "fib": FIB, "tm": TM, "trib": TRIB}


def _draw_set(spec, data):
    """(size, words): a union of whole fibers of a coarser window, then a few
    words toggled, on the ladder window of a drawn size, so that a search
    from it both shrinks and stops on a rung. Subshift sizes reach
    floor + 8, so that the search both doubles its step and bisects."""
    top = spec.floor + (4 if spec.kind == "odometer" else 8)
    size = data.draw(st.integers(spec.floor, top), label="size")
    coarse = data.draw(st.integers(spec.floor, size), label="coarse")
    lo, hi = spec.ladder_window(size)
    clo, chi = spec.ladder_window(coarse)
    a, b = clo - lo, chi - lo + 1
    admissible = sorted(language(spec, hi - lo + 1))
    picked = data.draw(st.sets(st.sampled_from(sorted(language(spec, b - a)))), label="coarse words")
    words = {w for w in admissible if w[a:b] in picked}
    words ^= data.draw(st.sets(st.sampled_from(admissible), max_size=2), label="toggled")
    return size, frozenset(words)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(SYSTEMS)), st.data())
def test_canonical_matches_count_table_reference(which, data):
    spec = SYSTEMS[which]
    size, words = _draw_set(spec, data)
    lo, hi = spec.ladder_window(size)
    expected = _reference_canonical(spec, words, size)
    systems.SubstitutionSpec.word_index.cache_clear()
    systems._fiber_table.cache_clear()
    systems._repunit.cache_clear()
    mask = spec.encode(words, hi - lo + 1)
    cold = ClopenSet._canonical(spec, mask, (lo, hi))
    warm = ClopenSet._canonical(spec, mask, (lo, hi))
    assert (cold.lo, cold.hi, frozenset(cold.sorted_words())) == expected
    assert (warm.lo, warm.hi, frozenset(warm.sorted_words())) == expected


def _canonical_counting_tests(spec, mask, win):
    """(the canonical set of the mask on win, how many shrink tests it took),
    counted on both spec classes' `shrink_mask`."""
    tests = []

    def counted(shrink):
        def shrink_mask(*args):
            tests.append(args)
            return shrink(*args)
        return shrink_mask

    with pytest.MonkeyPatch.context() as mp:
        for cls in (systems.OdometerSpec, systems.SubstitutionSpec):
            mp.setattr(cls, "shrink_mask", counted(cls.shrink_mask))
        return ClopenSet._canonical(spec, mask, win), len(tests)


def _test_bound(gap: int) -> int:
    """One test per doubled step down, one for the first rung that fails
    and one per bisection of the gap above it."""
    return 2 * math.ceil(math.log2(gap + 1)) + 1


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(SYSTEMS)), st.data())
def test_the_rung_search_makes_logarithmically_many_shrink_tests(which, data):
    """A search from rung `size` makes at most 2 ceil(log2(size - floor + 1)) + 1
    shrink tests, and exactly one for a set already canonical above the floor."""
    spec = SYSTEMS[which]
    size, words = _draw_set(spec, data)
    lo, hi = spec.ladder_window(size)
    got, tests = _canonical_counting_tests(spec, spec.encode(words, hi - lo + 1), (lo, hi))
    gap = size - spec.floor
    assert tests <= _test_bound(gap)
    if words and spec.ladder_size(got.lo, got.hi) == size:
        assert tests == (1 if gap else 0)


@pytest.mark.parametrize(
    "spec, size", [(O2, 20), (O23, 12), (FIB, 40), (TM, 24)], ids=["o2", "o23", "fib", "tm"]
)
def test_a_far_full_set_reaches_the_floor_in_few_tests(spec, size):
    """The full set on a far rung drops to the floor: a walk would test every
    rung on the way, the search about 2 log2 of them."""
    lo, hi = spec.ladder_window(size)
    got, tests = _canonical_counting_tests(spec, spec.full_mask(hi - lo + 1), (lo, hi))
    assert got == full(spec)
    assert tests <= _test_bound(size - spec.floor) < size - spec.floor


def test_fiber_masks_partition_the_language():
    for spec in (FIB, TM):
        for width, a, b in ((7, 1, 6), (5, 0, 2), (9, 4, 5)):
            fibers, proj = _fiber_table(spec, width, a, b)
            outer, inner = spec.word_index(width)[0], spec.word_index(b - a)[0]
            assert sorted(outer) == sorted(language(spec, width)) == list(outer)
            assert sum(f.bit_count() for f in fibers) == len(outer)
            assert sum(fibers) == (1 << len(outer)) - 1  # disjoint and covering
            for j, fiber in enumerate(fibers):
                assert fiber and all(outer[i][a:b] == inner[j] for i in _bits(fiber))
                assert all(proj[i] == j for i in _bits(fiber))
