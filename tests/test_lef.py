"""Finite permutation groups, LEF witnesses, odometer structure reports."""

import math
import pathlib

import pytest

from fullgroups import canon, lef, systems
from fullgroups.canon import PermutationForm, factorize
from fullgroups.errors import PreconditionError, VerificationError
from fullgroups.clopen import cylinder
from fullgroups.group import (
    compose,
    disjoint_cylinder_block,
    embed_symmetric,
    equals,
    identity,
    invert,
    is_identity,
    make_element,
    shift,
)
from fullgroups.lef import (
    LEFWitness,
    lef_map,
    odometer_structure,
    perm_group,
    structure_decompose,
    structure_partition,
    verify_lef,
)
from fullgroups.systems import make_system
from fullgroups.towers import induced, tower_sequence
from oracles import perm_order

ODO2 = make_system({"kind": "odometer", "bases": [2]})
FIB = make_system({"kind": "substitution", "rule": {"a": "ab", "b": "a"}})
# no other test builds the levels of odometer [5], so no cached level hides a cap
ODO5 = make_system({"kind": "odometer", "bases": [5]})

# odometer_structure(ODO2, n, seed=0).text() for n = 1, 2, 3, one line per check
STRUCTURE_GOLDEN = pathlib.Path(__file__).parent / "data" / "structure.txt"


def test_perm_group_order():
    xi = tower_sequence(ODO2).level(1)
    desc = perm_group(xi)
    assert desc.heights == (4,)
    assert math.prod(map(math.factorial, desc.heights)) == 24


def test_perm_group_ops():
    xi = tower_sequence(FIB).level(1)
    desc = perm_group(xi)
    e = tuple(tuple(range(h)) for h in desc.heights)
    assert desc.contains(e)
    assert perm_order(e) == 1
    a = tuple(tuple((i + 1) % h for i in range(h)) for h in desc.heights)
    assert desc.contains(a)
    assert desc.compose(a, desc.invert(a)) == e
    # composition order matches element composition: second argument first
    hs = desc.heights
    b = tuple(
        tuple(1 if i == 0 else 0 if i == 1 else i for i in range(h)) for h in hs
    )
    ab = desc.compose(a, b)
    assert ab[0][0] == a[0][b[0][0]]


def test_perm_group_isomorphism_on_forms():
    # converting elements to H and composing there matches composing first
    xi = tower_sequence(ODO2).level(3)
    desc = perm_group(xi)
    t = shift(ODO2, 1)
    f1 = factorize(t, level=3).permutation
    f2 = factorize(compose(t, t), level=3).permutation
    assert desc.compose(f1.perms, f1.perms) == f2.perms
    assert equals(PermutationForm(xi, f1.perms).to_element(), f1.to_element())


def test_lef_map_identity_only():
    w = lef_map([identity(ODO2)])
    assert len(w.elements) == 1
    assert len(w.table) == 1
    assert verify_lef(w).ok


def test_lef_map_shift():
    w = lef_map([shift(ODO2, 1)])
    t_img = w.image(shift(ODO2, 1))
    # a single tower whose levels the shift cycles
    assert len(t_img) == 1
    h = len(t_img[0])
    assert t_img[0] == tuple((i + 1) % h for i in range(h))
    assert verify_lef(w).ok


def test_lef_map_three_cycle_order():
    g = embed_symmetric(ODO2, 3, (1, 2, 0), disjoint_cylinder_block(ODO2, 3))
    w = lef_map([shift(ODO2, 1), g])
    assert perm_order(w.image(g)) == 3
    assert verify_lef(w).ok


def test_lef_map_fibonacci():
    g = embed_symmetric(FIB, 2, (1, 0), disjoint_cylinder_block(FIB, 2))
    w = lef_map([shift(FIB, 1), g])
    assert verify_lef(w).ok


def test_lef_witness_monotone_in_level():
    t = shift(ODO2, 1)
    w = lef_map([t])
    w2 = lef_map([t], level=w.level + 1)
    assert w2.level == w.level + 1
    assert verify_lef(w2).ok


def test_lef_map_rejects_too_low_level():
    with pytest.raises(PreconditionError):
        lef_map([shift(ODO2, 3)], level=1)


def test_verify_lef_catches_corruption():
    g = embed_symmetric(ODO2, 3, (1, 2, 0), disjoint_cylinder_block(ODO2, 3))
    w = lef_map([shift(ODO2, 1), g])
    table = list(w.table)
    (i, (si, hi)), (j, (sj, hj)) = (1, table[1]), (2, table[2])
    table[i], table[j] = (si, hj), (sj, hi)
    bad = LEFWitness(w.elements, w.level, w.group, tuple(table))
    rep = verify_lef(bad)
    assert not rep.ok
    assert any("FAIL" in line for line in rep.lines)


def test_verify_lef_refuses_a_table_that_is_not_injective():
    """F = {id, g} with g a 3-cycle, and id, g and g² all sent to H's
    identity: every image lies in H and every product holds, so only the
    distinctness lines can refuse the table."""
    g = embed_symmetric(ODO2, 3, (1, 2, 0), disjoint_cylinder_block(ODO2, 3))
    one = identity(ODO2)
    h = lef.FinitePermGroupDesc((4,))
    unit = (tuple(range(4)),)
    w = LEFWitness((one, g), 1, h, tuple((s, unit) for s in (one, g, compose(g, g))))
    rep = verify_lef(w)
    assert not rep.ok
    failed = [line for line in rep.lines if line.endswith("FAIL")]
    assert len(failed) == 3 and all(line.startswith("distinct ") for line in failed)
    assert all(line.endswith(": ok") for line in rep.lines if line.startswith("product "))


def test_repeated_rows_keep_their_first_image():
    t = shift(ODO2, 1)
    w = lef_map([t, t, identity(ODO2)])
    assert w.elements == (identity(ODO2), t)  # deduplicated, first occurrence kept
    (s, h), (_, other) = w.table[0], w.table[1]
    twice = LEFWitness(w.elements, w.level, w.group, w.table + ((s, other),))
    assert twice.image(s) == h and twice.images[s] == h
    with pytest.raises(PreconditionError):
        w.image(shift(ODO2, 5))


def test_structure_report_n1(monkeypatch):
    monkeypatch.setattr(lef, "_SAMPLES", 15)
    r = odometer_structure(ODO2, 1)
    assert r.ok
    assert r.lines == (
        "level n=1 tower height=2",
        "transpositions realized: 1 of 1",
        "kernel generators commute: ok",
        "kernel generator order exceeds 64: ok",
        "exponent tuples checked: 15",
        "tuples pairwise distinct: ok",
        "tuples add under composition: ok",
        "unique permutation-kernel factorization on 15 samples: ok",
        "structure: ok",
    )


def test_structure_reports_match_golden_file():
    reports = [odometer_structure(ODO2, n, seed=0) for n in (1, 2, 3)]
    assert all(r.ok for r in reports)
    assert "".join(r.text() + "\n" for r in reports) == STRUCTURE_GOLDEN.read_text()


def test_structure_n1_example_identities():
    xi = structure_partition(ODO2, 1)
    o0 = induced(ODO2, xi.atom(0, 0))
    o1 = induced(ODO2, xi.atom(0, 1))
    assert is_identity(compose(compose(o0, o1), invert(shift(ODO2, 2))))
    # each generator doubles on its own cylinder
    assert o0.pieces != o1.pieces


def test_structure_decompose_roundtrip():
    xi = structure_partition(ODO2, 2)
    perm = (2, 0, 3, 1)
    exps = (1, -2, 0, 3)
    p = PermutationForm(xi, (perm,)).to_element()
    from fullgroups.lef import _kernel_element

    s = compose(p, _kernel_element(ODO2, xi, exps))
    got_perm, got_exps = structure_decompose(s, xi)
    assert got_perm == perm
    assert got_exps == exps


def test_structure_decompose_rejects_incompatible():
    # a swap over depth-5 cylinders moves only part of each depth-3 atom
    xi = structure_partition(ODO2, 3)
    from fullgroups.clopen import cylinder

    s = embed_symmetric(ODO2, 2, (1, 0), cylinder(ODO2, "00000"))
    with pytest.raises(PreconditionError):
        structure_decompose(s, xi)


def test_shift_is_structure_compatible():
    xi = structure_partition(ODO2, 3)
    perm, exps = structure_decompose(shift(ODO2, 1), xi)
    assert perm == tuple((i + 1) % 8 for i in range(8))
    assert exps == (0,) * 7 + (1,)


def test_structure_rejects_subshift():
    with pytest.raises(PreconditionError):
        odometer_structure(FIB, 1)


def test_witness_level_search_cap_names_its_knob(monkeypatch):
    monkeypatch.setattr(canon, "_LEVEL_CAP", 0)
    with pytest.raises(VerificationError, match=r"^witness level search exceeded _LEVEL_CAP = 0$"):
        lef_map([shift(ODO2, 1)])


def test_one_level_cap_bounds_both_searches(monkeypatch):
    # T on [2] factorizes at level 1 but has its witness only at level 3
    monkeypatch.setattr(canon, "_LEVEL_CAP", 2)
    assert factorize.__wrapped__(shift(ODO2, 1)).level == 1
    with pytest.raises(VerificationError, match=r"_LEVEL_CAP = 2$"):
        lef_map([shift(ODO2, 1)])


def test_fixed_witness_level_names_its_refusal():
    with pytest.raises(PreconditionError) as err:
        lef_map([shift(ODO2, 1)], level=1)
    assert str(err.value).startswith("no witness at level 1: a product of F does not factorize")


def test_a_cap_passes_through_the_witness_search_unchanged(monkeypatch):
    # T^4 on [5] first factorizes at level 4, whose tower of height 5^4 is over 2^7
    monkeypatch.setattr(systems, "_ODOMETER_WORD_CAP", 1 << 7)
    cap = r"_ODOMETER_WORD_CAP = 2\^7"
    with pytest.raises(PreconditionError, match=cap):
        factorize.__wrapped__(shift(ODO5, 4))
    with pytest.raises(PreconditionError, match=cap):
        lef_map([shift(ODO5, 4)])


def test_the_witness_search_leaves_the_factorization_cache_empty():
    # README's `lef` example: {id, T, sw} on the 2-odometer
    sw = make_element(ODO2, [
        (cylinder(ODO2, "10"), 1), (cylinder(ODO2, "01"), -1),
        (cylinder(ODO2, "00"), 0), (cylinder(ODO2, "11"), 0),
    ])
    factorize.cache_clear()
    assert verify_lef(lef_map([identity(ODO2), shift(ODO2, 1), sw])).ok
    assert factorize.cache_info().currsize == 0
