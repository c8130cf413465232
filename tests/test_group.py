"""Group element construction, composition, and cocycle arithmetic."""

import pytest
from hypothesis import given, settings, strategies as st

from fullgroups.clopen import cylinder, empty, full
from fullgroups.errors import NotPartitionError, PreconditionError
from fullgroups import canon, group
from fullgroups.group import (
    agree_on,
    cocycle_at,
    cocycle_bound,
    commutator,
    compose,
    disjoint_cylinder_block,
    element_hash,
    embed_symmetric,
    equals,
    identity,
    invert,
    is_identity,
    make_element,
    order,
    shift,
    support,
    swaps,
)
from fullgroups.sampling import random_products
from fullgroups.systems import base_point, make_system
import oracles
from oracles import cocycle_table, cocycle_values_on, directsum_generator, image

ODO2 = make_system({"kind": "odometer", "bases": [2]})
ODO23 = make_system({"kind": "odometer", "bases": [2, 3]})
FIB = make_system({"kind": "substitution", "alphabet": "ab", "rule": {"a": "ab", "b": "a"}})


def test_shift_composition():
    t = shift(ODO2, 1)
    assert equals(compose(t, t), shift(ODO2, 2))
    assert equals(invert(shift(ODO2, 3)), shift(ODO2, -3))
    assert is_identity(compose(t, invert(t)))


def test_identity_element():
    e = identity(FIB)
    assert is_identity(e)
    assert support(e).is_empty()
    assert cocycle_bound(e) == 0


def test_make_element_rejects_overlap():
    a = cylinder(ODO2, "0")
    with pytest.raises(NotPartitionError):
        make_element(ODO2, [(a, 0), (a, 1)])


def test_make_element_rejects_gap():
    a = cylinder(ODO2, "00")
    b = cylinder(ODO2, "10")
    with pytest.raises(NotPartitionError):
        make_element(ODO2, [(a, 1), (b, -1)])


def test_make_element_refuses_a_piece_of_another_system():
    with pytest.raises(PreconditionError, match="different systems"):
        make_element(ODO2, [(full(ODO23), 1)])


def test_make_element_rejects_noninjective_images():
    # domains partition X but both pieces land in [0]
    a = cylinder(ODO2, "0")
    b = cylinder(ODO2, "1")
    with pytest.raises(NotPartitionError):
        make_element(ODO2, [(a, 0), (b, 1)])


def test_translate_cylinder_exactly():
    # adding 1 to the full block wraps: T[11] = [00]
    top = cylinder(ODO2, "11")
    assert top.translate(1) == cylinder(ODO2, "00")
    assert image(shift(ODO2, 1), cylinder(ODO2, "1")) == cylinder(ODO2, "0")


def test_embed_symmetric_involution():
    u = cylinder(ODO2, "00")
    s = embed_symmetric(ODO2, 2, (1, 0), u)
    assert order(s, 8) == 2
    assert support(s) == u.union(u.translate(1))
    assert cocycle_values_on(s, u) == {1}
    assert cocycle_values_on(s, u.translate(1)) == {-1}
    x, _ = base_point(ODO2, "primary")
    y = x.shifted(cocycle_at(s, x))
    assert y.window(0, 2) == "100"


def test_embed_symmetric_three_cycle():
    u = cylinder(ODO2, "000")
    s = embed_symmetric(ODO2, 3, (1, 2, 0), u)
    assert order(s, 8) == 3
    assert is_identity(compose(s, compose(s, s)))


def test_embed_symmetric_rejects_overlap():
    # translating [0] twice wraps back onto itself in the 2-odometer
    u = cylinder(ODO2, "0")
    with pytest.raises(PreconditionError):
        embed_symmetric(ODO2, 3, (1, 2, 0), u)


def test_cocycle_table_hull():
    u = cylinder(ODO2, "00")
    s = embed_symmetric(ODO2, 2, (1, 0), u)
    win, table = cocycle_table(s)
    assert win == (0, 1)
    assert table == {"00": 1, "10": -1, "01": 0, "11": 0}


def test_cocycle_at_point():
    x, _ = base_point(ODO2, "primary")
    t = shift(ODO2, 1)
    assert cocycle_at(t, x) == 1
    assert cocycle_at(invert(t), x) == -1


def test_order_of_shift_is_infinite():
    assert order(shift(ODO2, 1), 32) is None


def test_commutator_of_commuting_is_identity():
    u = cylinder(ODO2, "000")
    s = embed_symmetric(ODO2, 2, (1, 0), u)
    t = embed_symmetric(ODO2, 2, (1, 0), u.translate(4))
    assert support(s).disjoint(support(t))
    assert is_identity(commutator(s, t))


def test_agree_on():
    t = shift(ODO2, 1)
    assert agree_on(t, t, full(ODO2))
    assert not agree_on(t, identity(ODO2), cylinder(ODO2, "0"))
    u = cylinder(ODO2, "00")
    s = embed_symmetric(ODO2, 2, (1, 0), u)
    assert agree_on(s, identity(ODO2), cylinder(ODO2, "01"))


def test_disjoint_cylinder_block():
    for spec, m in [(ODO2, 4), (FIB, 3)]:
        u = disjoint_cylinder_block(spec, m)
        assert not u.is_empty()
        blocks = [u.translate(i) for i in range(m)]
        for i in range(m):
            for j in range(i + 1, m):
                assert blocks[i].disjoint(blocks[j])


def test_subshift_shift_cocycle():
    t = shift(FIB, 1)
    a = cylinder(FIB, "ab")
    assert image(t, a) == cylinder(FIB, "ab", -1)
    assert cocycle_values_on(t, full(FIB)) == {1}


def _sample_pool(spec):
    u = disjoint_cylinder_block(spec, 3)
    return [
        shift(spec, 1),
        shift(spec, -1),
        embed_symmetric(spec, 2, (1, 0), u),
        embed_symmetric(spec, 3, (1, 2, 0), u),
    ]


def _product(spec, picks):
    pool = _sample_pool(spec)
    out = identity(spec)
    for i in picks:
        out = compose(out, pool[i])
    return out


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(0, 3), max_size=3),
    st.lists(st.integers(0, 3), max_size=3),
    st.lists(st.integers(0, 3), max_size=3),
)
def test_associativity(p1, p2, p3):
    a = _product(ODO2, p1)
    b = _product(ODO2, p2)
    c = _product(ODO2, p3)
    assert equals(compose(compose(a, b), c), compose(a, compose(b, c)))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 3), max_size=4))
def test_inverse_law(picks):
    s = _product(ODO23, picks)
    assert is_identity(compose(s, invert(s)))
    assert is_identity(compose(invert(s), s))
    assert equals(invert(invert(s)), s)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 3), max_size=3), st.lists(st.integers(0, 3), max_size=3))
def test_cocycle_law(p1, p2):
    s1 = _product(FIB, p1)
    s2 = _product(FIB, p2)
    x, _ = base_point(FIB, "primary")
    for n in range(-2, 3):
        p = x.shifted(n)
        assert cocycle_at(compose(s1, s2), p) == cocycle_at(s2, p) + cocycle_at(
            s1, p.shifted(cocycle_at(s2, p))
        )
        q = p.shifted(cocycle_at(invert(s1), p))
        assert cocycle_at(invert(s1), p) == -cocycle_at(s1, q)


def test_swaps_is_the_hand_built_involution():
    u = cylinder(ODO2, "000")
    s = swaps(ODO2, [(u, 1), (u.translate(4), 2)])
    blocks = [u, u.translate(1), u.translate(4), u.translate(6)]
    rest = full(ODO2).difference(blocks[0].union(blocks[1]).union(blocks[2]).union(blocks[3]))
    by_hand = make_element(
        ODO2, [(blocks[0], 1), (blocks[1], -1), (blocks[2], 2), (blocks[3], -2), (rest, 0)]
    )
    assert equals(s, by_hand)
    assert is_identity(compose(s, s))
    with pytest.raises(NotPartitionError):
        swaps(ODO2, [(cylinder(ODO2, "0"), 2)])  # T^2[0] = [0]


@pytest.fixture
def fresh_caches():
    oracles._directsum_step.cache_clear()
    yield
    oracles._directsum_step.cache_clear()


def _kernel_element():
    # swaps [11] and T[11] = [00]: the points T^-1 x and x cross the anchor x = 0^inf
    s = embed_symmetric(ODO2, 2, (1, 0), cylinder(ODO2, "11"))
    return canon.kernel_decompose(s)


CAPPED_SEARCHES = {
    "disjoint_cylinder_block": lambda: disjoint_cylinder_block(ODO2, 3),
    "kernel_decompose": _kernel_element,
    "separation_witness": lambda: canon.separation_witness(
        ODO2, cylinder(ODO2, "0"), base_point(ODO2, "primary")[0]
    ),
    "directsum_generator": lambda: directsum_generator(ODO2, 1),
}


@pytest.mark.parametrize("name", sorted(CAPPED_SEARCHES))
def test_every_cylinder_search_stops_at_the_depth_cap(name, monkeypatch, fresh_caches):
    CAPPED_SEARCHES[name]()  # succeeds at the default cap
    oracles._directsum_step.cache_clear()
    monkeypatch.setattr(group, "_DEPTH_CAP", 0)
    with pytest.raises(PreconditionError, match="within _DEPTH_CAP = 0$"):
        CAPPED_SEARCHES[name]()


def test_a_sub_cylinder_found_at_the_cap_is_kept(monkeypatch, fresh_caches):
    # on [2] the first separated sub-cylinder of the carved [0] has depth 2
    monkeypatch.setattr(group, "_DEPTH_CAP", 2)
    gen = directsum_generator(ODO2, 1)
    assert support(gen) == cylinder(ODO2, "00").union(cylinder(ODO2, "01"))


def test_element_hash_keeps_digit_letters_as_strings():
    """A subshift over the letters 0 and 1 hashes its words as letters: the
    digests pinned here would change if they were read as int digits."""
    tm = make_system({"kind": "substitution", "rule": {"0": "01", "1": "10"}})
    assert element_hash(shift(tm, 1)) == "a276779d170d71dc"
    assert [element_hash(s) for s in random_products(tm, 3, 0, max_len=3)] == [
        "5f081c7fd9717b56",
        "20e87e6750697380",
        "3628e07ef13753e9",
    ]
