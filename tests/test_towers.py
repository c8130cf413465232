"""First-return decomposition, KR partitions, and anchored tower sequences."""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from fullgroups import towers
from fullgroups.clopen import central_cylinder, check_partition, cylinder, empty
from fullgroups.errors import PreconditionError, VerificationError
from fullgroups.group import (
    cocycle_at,
    compose,
    invert,
    is_identity,
    support,
)
from fullgroups.sampling import random_clopen
from fullgroups.systems import base_point, language, make_system
from fullgroups.towers import (
    first_return,
    induced,
    kr_from_set,
    refine_against,
    tower_sequence,
)
from oracles import directsum_generator, peeled_first_return, return_word_towers

ODO2 = make_system({"kind": "odometer", "bases": [2]})
ODO23 = make_system({"kind": "odometer", "bases": [2, 3]})
FIB = make_system({"kind": "substitution", "alphabet": "ab", "rule": {"a": "ab", "b": "a"}})


def test_return_ceiling_names_its_knob(monkeypatch):
    # the depth-3 cylinder returns after 8 steps, past a ceiling of 4
    monkeypatch.setattr(towers, "_RETURN_CEILING", 4)
    with pytest.raises(VerificationError, match=r"_RETURN_CEILING = 2\^2\b") as err:
        first_return(ODO2, cylinder(ODO2, "000"))
    assert "return time 8 " in str(err.value) and "minimal" not in str(err.value)
    assert towers._RETURN_CEILING == 4
    assert sorted(first_return(ODO2, cylinder(ODO2, "00")).cells) == [4]


def test_return_ceiling_names_the_level_whose_base_needed_it(monkeypatch):
    # level 2 of [2] has height 8 and level 3 height 16, past a ceiling of 8
    monkeypatch.setattr(towers, "_RETURN_CEILING", 8)
    seq = towers.TowerSequence(ODO2, base_point(ODO2)[0])
    assert seq.level(2).heights() == [8]
    with pytest.raises(VerificationError, match=(
        r"^return time 16 exceeds _RETURN_CEILING = 2\^3 at the base of tower level 3, on \[0, 3\]$"
    )):
        seq.level(3)


def test_first_return_odometer_constant():
    rf = first_return(ODO2, cylinder(ODO2, "0"))
    assert sorted(rf.cells) == [2]
    assert rf.cells[2] == cylinder(ODO2, "0")
    rf3 = first_return(ODO2, cylinder(ODO2, "000"))
    assert sorted(rf3.cells) == [8]


def test_first_return_fibonacci():
    rf = first_return(FIB, cylinder(FIB, "a"))
    assert sorted(rf.cells) == [1, 2]
    assert rf.cells[1] == cylinder(FIB, "aa")
    assert rf.cells[2] == cylinder(FIB, "ab")


def test_first_return_rejects_empty():
    with pytest.raises(PreconditionError):
        first_return(ODO2, empty(ODO2))


def test_induced_map_is_first_return():
    a = cylinder(FIB, "a")
    s = induced(FIB, a)
    assert support(s).subset(a)
    x, _ = base_point(FIB, "primary")
    # primary point starts "ab", so it sits in the return-time-2 cell
    assert cocycle_at(s, x) == 2
    assert is_identity(compose(s, invert(s)))


def test_induced_on_odometer_cylinder():
    a = cylinder(ODO2, "00")
    s = induced(ODO2, a)
    x, _ = base_point(ODO2, "primary")
    assert cocycle_at(s, x) == 4
    y = x.shifted(1)
    assert cocycle_at(s, y) == 0


def test_kr_partition_odometer():
    xi = kr_from_set(ODO2, cylinder(ODO2, "00"))
    assert xi.heights() == [4]
    xi.validate()
    assert xi.base() == cylinder(ODO2, "00")
    assert xi.top() == cylinder(ODO2, "11")
    assert xi.atom(0, 1) == cylinder(ODO2, "10")


def test_kr_partition_fibonacci():
    xi = kr_from_set(FIB, cylinder(FIB, "a"))
    assert sorted(xi.heights()) == [1, 2]
    xi.validate()
    atoms = [a for _, _, a in xi.iter_atoms()]
    check_partition(FIB, atoms)


def test_band_set_identities():
    xi = kr_from_set(FIB, cylinder(FIB, "a"))
    b = xi.base()
    h = min(xi.heights())
    for i in range(h):
        assert xi.u_set(i) == b.translate(-(i + 1))
        assert xi.d_set(i) == b.translate(i)
    with pytest.raises(PreconditionError):
        xi.u_set(h)


@pytest.mark.parametrize("spec", [ODO23, FIB], ids=["odometer-2-3", "fibonacci"])
@pytest.mark.parametrize("level", [1, 2, 3])
def test_successors_split_each_base_both_ways(spec, level):
    xi = tower_sequence(spec).level(level)
    succ = xi.successors
    assert xi.successors is succ
    into = [b.translate(h) for b, h in xi.towers]
    for v, (b, h) in enumerate(xi.towers):
        outs = [b.intersect(xi.towers[w][0].translate(-h)) for w in succ[v]]
        assert not any(c.is_empty() for c in outs)
        check_partition(spec, outs + [b.complement()])
    for w, (bw, _) in enumerate(xi.towers):
        ins = [bw.intersect(into[v]) for v in range(len(xi.towers)) if w in succ[v]]
        assert ins
        check_partition(spec, ins + [bw.complement()])


def test_refine_against():
    xi = kr_from_set(FIB, cylinder(FIB, "a"))
    # the letter one step back cuts the base cell [aa] in two
    c = cylinder(FIB, "a", -1)
    assert not xi.refines_set(c)
    fine = refine_against(xi, c)
    assert fine.refines_set(c)
    assert fine.heights()[0] in (1, 2)
    assert sum(fine.heights()) >= sum(xi.heights())
    fine.validate()
    assert fine.base() == xi.base()


def test_tower_sequence_odometer():
    seq = tower_sequence(ODO2)
    xi1 = seq.level(1)
    assert min(xi1.heights()) >= 4
    xi1.validate()
    xi2 = seq.level(2)
    assert min(xi2.heights()) >= 6
    xi2.validate()
    assert xi2.base().subset(xi1.base())
    # nesting: every level-2 atom sits inside a single level-1 atom
    for _, _, a in xi2.iter_atoms():
        assert sum(1 for _, _, b in xi1.iter_atoms() if a.subset(b)) == 1


def test_tower_sequence_bands():
    seq = tower_sequence(ODO2)
    for n in (1, 2, 3):
        xi = seq.level(n)
        assert xi.band == n
        assert min(xi.heights()) >= 2 * n + 2


def test_tower_sequence_fibonacci():
    seq = tower_sequence(FIB)
    xi1 = seq.level(1)
    xi1.validate()
    assert min(xi1.heights()) >= 4
    xi2 = seq.level(2)
    xi2.validate()
    assert xi2.base().subset(xi1.base())
    for _, _, a in xi2.iter_atoms():
        assert sum(1 for _, _, b in xi1.iter_atoms() if a.subset(b)) == 1


def test_tower_sequence_refines_central_cylinders():
    # condition (1): level n is compatible with every width window around 0
    seq = tower_sequence(FIB)
    xi = seq.level(2)
    for w in ("a", "b"):
        for off in range(-2, 2):
            c = cylinder(FIB, w, off)
            assert xi.refines_set(c)


@pytest.mark.parametrize("spec", [ODO2, ODO23], ids=["odometer-2", "odometer-2-3"])
def test_odometer_levels_need_no_refinement(spec):
    """Refinement, which the level path does not run, is a no-op here:
    refining a level against the previous cells and every length-n
    cylinder keeps its towers, and the level is the first-return tower
    over the anchor's central cylinder of the level's size."""
    seq = tower_sequence(spec)
    for n in range(1, 7):
        xi = seq.level(n)
        refined = xi
        for cell, _ in seq.level(n - 1).towers if n > 1 else ():
            refined = refine_against(refined, cell)
        lo, hi = spec.ladder_window(n)
        for w in sorted(language(spec, hi - lo + 1)):
            refined = refine_against(refined, cylinder(spec, w, lo))
        assert refined.towers == xi.towers
        base = central_cylinder(spec, seq.anchor, seq._sizes[n - 1])
        assert kr_from_set(spec, base).towers == xi.towers


TM = make_system({"kind": "substitution", "rule": {"a": "ab", "b": "ba"}})
TRIB = make_system({"kind": "substitution", "rule": {"a": "ab", "b": "ac", "c": "a"}})


MATRIX = [ODO2, ODO23, FIB, TRIB, TM]
MATRIX_IDS = ["odometer-2", "odometer-2-3", "fibonacci", "tribonacci", "thue-morse"]


@pytest.mark.parametrize("spec", MATRIX, ids=MATRIX_IDS)
def test_levels_are_one_tower_per_return_word(spec):
    """Each level is the first-return partition of its base with every
    return-time cell split by the return word it reads."""
    seq = tower_sequence(spec)
    for n in range(1, 10):
        xi = seq.level(n)
        assert xi.towers == return_word_towers(xi.base()), f"level {n}"


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([FIB, TRIB, TM]),
    st.integers(0, 6),
    st.integers(-200, 200),
)
def test_return_word_towers_match_the_first_return_oracle(spec, size, j):
    """A central cylinder around any orbit point, anchored level or not,
    has one tower per return word, as the first-return oracle splits it."""
    base = central_cylinder(spec, base_point(spec)[0].shifted(j), size)
    assert towers.central_level(spec, base).towers == return_word_towers(base)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(MATRIX),
    st.integers(0, 2**32),
    st.integers(1, 4),
    st.integers(1, 7),
    st.booleans(),
)
def test_first_return_cells_match_the_peeled_oracle(spec, seed, pieces, depth, flip):
    """Cells read from words equal the cells peeled one return time at a
    time, on random clopen sets and their complements."""
    a = random_clopen(spec, random.Random(seed), pieces=pieces, depth=depth)
    if flip:
        a = a.complement()
    assume(not a.is_empty())
    assert first_return(spec, a).cells == peeled_first_return(a)


def _refuse(*args, **kwargs):
    raise AssertionError("called on the level path")


@pytest.mark.parametrize("spec", MATRIX, ids=MATRIX_IDS)
def test_level_path_does_not_refine(spec, monkeypatch):
    """Levels are built from words: no refinement, no language scan and no
    first-return peeling, on odometers and subshifts alike."""
    monkeypatch.setattr(towers, "refine_against", _refuse)
    monkeypatch.setattr(towers.KRPartition, "refines_set", _refuse)
    monkeypatch.setattr(towers, "language", _refuse)
    monkeypatch.setattr(towers, "first_return", _refuse)
    seq = towers.TowerSequence(spec, base_point(spec)[0])
    for n in range(1, 7):
        assert seq.level(n).towers == tower_sequence(spec).level(n).towers


@pytest.mark.parametrize("spec", [FIB, TRIB, TM], ids=["fibonacci", "tribonacci", "thue-morse"])
def test_subshift_levels_keep_the_tower_conditions(spec):
    """Levels 1-9 tile the space, hold the anchor, have towers of height at
    least 2n+2, meet the diameter condition and nest their bases."""
    seq = tower_sequence(spec)
    prev = None
    for n in range(1, 10):
        xi = seq.level(n)
        xi.validate()
        base = xi.base()
        assert base.contains_point(seq.anchor)
        assert min(xi.heights()) >= 2 * n + 2
        rad = 1 + (n - 1).bit_length()
        assert all(base.translate(i).fits_in_radius(rad) for i in range(-n - 1, n + 1))
        if prev is not None:
            assert base.subset(prev)
        prev = base


def test_odometer_level_needs_one_word():
    with pytest.raises(VerificationError, match="not one"):
        towers.central_level(ODO2, cylinder(ODO2, "00").union(cylinder(ODO2, "11")))


def test_tower_sequence_cached():
    assert tower_sequence(ODO23) is tower_sequence(ODO23)
    for spec in (ODO23, FIB):
        assert tower_sequence(spec) is tower_sequence(spec, base_point(spec)[0])


def test_anchor_in_every_base():
    seq = tower_sequence(ODO23)
    x, _ = base_point(ODO23, "primary")
    for n in (1, 2):
        assert seq.level(n).base().contains_point(x)


def test_directsum_generators_disjoint():
    gens = [directsum_generator(ODO2, k) for k in (1, 2, 3)]
    for g in gens:
        assert not is_identity(g)
    for i in range(3):
        for j in range(i + 1, 3):
            assert support(gens[i]).disjoint(support(gens[j]))
            assert is_identity(
                compose(compose(gens[i], gens[j]), invert(compose(gens[j], gens[i])))
            )
