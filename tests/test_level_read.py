"""The one-pass cocycle read of a tower level and the per-power piece merge,
against the one-set and pairwise-union references they replace.

Elements are seeded random products or drawn words over the generator
pool; levels 1-5 of the anchored tower sequence on odometer [2],
odometer [2,3] and Fibonacci. A refused level names the first rule it
breaks, and the reference names the same one.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from fullgroups.canon import _level_data
from fullgroups.clopen import cylinder
from fullgroups.group import _build, cocycle_bound, compose, identity, shift, swaps
from fullgroups.sampling import generator_pool, random_clopen, random_products
from fullgroups.systems import make_system
from fullgroups.towers import induced, tower_sequence
from oracles import cocycle_values_on

SYSTEMS = {
    "odometer-2": make_system({"kind": "odometer", "bases": [2]}),
    "odometer-2-3": make_system({"kind": "odometer", "bases": [2, 3]}),
    "fibonacci": make_system({"kind": "substitution", "rule": {"a": "ab", "b": "a"}}),
}


@st.composite
def elements(draw):
    """(spec, element): a seeded random product, or a drawn pool word,
    optionally after the induced map of a random set finer than the
    shallow levels' windows."""
    spec = SYSTEMS[draw(st.sampled_from(sorted(SYSTEMS)), label="system")]
    seed = draw(st.integers(0, 10**6), label="seed")
    kind = draw(st.sampled_from(["product", "word", "fine word"]), label="kind")
    if kind == "product":
        (s,) = random_products(spec, 1, seed, max_len=4)
        return spec, s
    pool = generator_pool(spec)
    s = identity(spec)
    if kind == "fine word":
        s = induced(spec, random_clopen(spec, random.Random(seed), pieces=3, depth=7))
    for g in draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=4), label="word"):
        s = compose(s, pool[g])
    return spec, s


def _rows_by_atom(s, xi):
    return [
        [cocycle_values_on(s, xi.atom(v, i)) for i in range(h)]
        for v, (b, h) in enumerate(xi.towers)
    ]


def _reference_level_data(q_elem, xi, q):
    """The level data read atom by atom through cocycle_values_on, or the
    reason of the first rule the level breaks."""
    m = xi.band
    if q > m:
        return f"band half-width m = {m} is below q = {q}"
    f_atoms = []
    for v, row in enumerate(_rows_by_atom(q_elem, xi)):
        for i, vals in enumerate(row):
            if len(vals) != 1:
                return f"cocycle is not constant on atom ({v}, {i})"
        f_atoms.append([min(vals) for vals in row])
    f_bands = {}
    for i in range(-m - 1, m + 1):
        vals = {f_atoms[v][i if i >= 0 else h + i] for v, (b, h) in enumerate(xi.towers)}
        if len(vals) != 1:
            return f"cocycle is not constant on band {i}"
        f_bands[i] = vals.pop()
    perms = []
    for v, (b, h) in enumerate(xi.towers):
        targets = [(i + f_atoms[v][i]) % h for i in range(h)]
        if sorted(targets) != list(range(h)):
            return f"levels collide inside tower {v}"
        perms.append(tuple(targets))
    return f_atoms, f_bands, perms


def _fold(raw):
    """Pieces merged per power by pairwise union, one canonicalization each."""
    by_power = {}
    for n, c in raw:
        if not c.is_empty():
            by_power[n] = by_power[n].union(c) if n in by_power else c
    return tuple(sorted(by_power.items()))


@settings(max_examples=60, deadline=None)
@given(elements(), st.integers(1, 5))
def test_cocycle_rows_match_the_one_set_read(case, level):
    spec, s = case
    xi = tower_sequence(spec).level(level)
    assert [list(row) for row in xi.cocycle_rows(s)] == _rows_by_atom(s, xi)


@settings(max_examples=60, deadline=None)
@given(elements(), st.integers(1, 5), st.data())
def test_level_data_matches_the_atom_by_atom_reference(case, level, data):
    spec, s = case
    xi = tower_sequence(spec).level(level)
    # bounds below the cocycle bound reach the atom read at shallow levels too
    q = data.draw(st.integers(0, cocycle_bound(s)), label="q")
    got, want = _level_data(s, xi, q), _reference_level_data(s, xi, q)
    assert (got if got else got.reason) == want


def _atom_split(xi):
    # a swap of a depth-6 cylinder moves only part of the depth-2 atom holding it
    return swaps(xi.spec, [(cylinder(xi.spec, "000000"), 1)])


def _one_tower_swapped(xi):
    # on Fibonacci's two towers, swapping the bottom atoms of tower 0 moves band 0 there only
    return swaps(xi.spec, [(xi.atom(0, 0), 1)])


def _two_atoms_onto_one(xi):
    # unvalidated: atoms 0 and 1 both land on level 1, which no bijection does
    return _build(xi.spec, [(int(i == 0), a) for v, i, a in xi.iter_atoms()])


@pytest.mark.parametrize("system, make, reason", [
    ("odometer-2", lambda xi: shift(xi.spec, 2), "band half-width m = 1 is below q = 2"),
    ("odometer-2", _atom_split, "cocycle is not constant on atom (0, 0)"),
    ("fibonacci", _one_tower_swapped, "cocycle is not constant on band 0"),
    ("odometer-2", _two_atoms_onto_one, "levels collide inside tower 0"),
], ids=["band-width", "atom", "band", "collision"])
def test_each_level_refusal_names_its_rule(system, make, reason):
    xi = tower_sequence(SYSTEMS[system]).level(1)
    s = make(xi)
    refusal = _level_data(s, xi, cocycle_bound(s))
    assert not refusal
    assert refusal.reason == reason
    assert refusal.reason == _reference_level_data(s, xi, cocycle_bound(s))


def test_an_atom_refusal_carries_its_atom():
    xi = tower_sequence(SYSTEMS["odometer-2"]).level(1)
    refusal = _level_data(_atom_split(xi), xi, 1)
    assert refusal.atom == xi.atom(0, 0)
    assert cylinder(xi.spec, "000000").subset(refusal.atom)


@settings(max_examples=60, deadline=None)
@given(elements(), elements(), st.integers(1, 5), st.integers(0, 10**6))
def test_build_matches_the_pairwise_union_fold(case1, case2, level, seed):
    spec, s1 = case1
    _, s2 = case2
    if s2.spec != spec:
        s2 = identity(spec)
    rng = random.Random(seed)
    # the intersections compose merges, then atoms and random sets on mixed
    # windows sharing a few powers
    raw = [
        (n1 + n2, c2.intersect(c1.translate(-n2)))
        for n2, c2 in s2.pieces
        for n1, c1 in s1.pieces
    ]
    for v, i, a in tower_sequence(spec).level(level).iter_atoms():
        raw.append((rng.randint(-2, 2), a))
    raw += [(rng.randint(-2, 2), random_clopen(spec, rng)) for _ in range(4)]
    assert _build(spec, raw).pieces == _fold(raw)
