"""Conjugate presentations of one system must agree.

σ, σ² and σ³ generate the same subshift with the same points (Durand,
Discrete Math. 1998), but they are different specs: different rules,
different spec hashes and so separate caches, and different fixed-point
seeds. Each presentation runs the whole stack on its own, so a fault that
is consistent within one shows as a disagreement between two.
`element_hash` covers the spec, so rendered text is compared instead.

The odometers [p, q] and [pq] are one system too: the digit pair
(x_2j, x_2j+1) of [p, q] is the digit x_2j + p x_2j+1 of [pq], and both
streams spell the same integer, so a residue set mod p_1...p_2k carries
over unchanged to depth k. An element carries over piece by piece, each
mask at even depth, an odd depth expanded one digit first. Their levels
differ, so the comparison reads what no level fixes: the index, the
stabilizer test, the order and the kernel decomposition's checks. The primary
points are both 0^inf; the alternate point (10)^inf of [p, q] is 1^inf
of [pq].

The letter swap a <-> b maps the Thue-Morse subshift onto itself and
commutes with T, so conjugating an element by it keeps its index and its
order. It acts piece by piece: each piece's words, swapped letter for
letter, are a piece on the same window.
"""

import pytest

from fullgroups.canon import factorize, in_stabilizer, index, kernel_decompose
from fullgroups.clopen import ClopenSet, _expand_words
from fullgroups.formats import render_element, render_factorization, render_towers
from fullgroups.group import compose, equals, make_element, order, shift
from fullgroups.lef import lef_map
from fullgroups.sampling import generator_pool, random_products
from fullgroups.systems import base_point, make_system
from fullgroups.towers import tower_sequence

RULES = {
    "fibonacci": {"a": "ab", "b": "a"},
    "thue-morse": {"a": "ab", "b": "ba"},
    "tribonacci": {"a": "ab", "b": "ac", "c": "a"},
}


def _power(spec, k):
    return make_system({
        "kind": "substitution",
        "rule": {a: spec.apply_rule(a, k) for a in spec.alphabet},
    })


def _readings(spec) -> dict:
    seq = tower_sequence(spec)
    products = random_products(spec, 20, 0, max_len=4)
    pool = generator_pool(spec)
    w = lef_map([pool[0], pool[2]])
    return {
        "levels": [render_towers(seq.level(n)) for n in range(1, 10)],
        "elements": [render_element(s, "x") for s in products],
        "factorizations": [render_factorization(factorize(s)) for s in products],
        "indexes": [index(s) for s in products],
        "lef": (w.level, [(render_element(s, "x"), h) for s, h in w.table]),
    }


def _assert_power_agrees(name, k):
    spec = make_system({"kind": "substitution", "rule": RULES[name]})
    power = _power(spec, k)
    assert power.rule_map != spec.rule_map
    assert _readings(power) == _readings(spec)


@pytest.mark.parametrize("name", RULES)
def test_sigma_and_sigma_squared_agree(name):
    _assert_power_agrees(name, 2)


@pytest.mark.parametrize("name", RULES)
def test_sigma_and_sigma_cubed_agree(name):
    _assert_power_agrees(name, 3)


def _carried(s, spec):
    """s over the odometer spec whose bases multiply s's in pairs."""
    pieces = []
    for n, c in s.pieces:
        size = c.hi + 1 + (c.hi + 1) % 2  # the depth, made even
        mask = _expand_words(s.spec, c.mask, (c.lo, c.hi), size)
        pieces.append((ClopenSet._canonical(spec, mask, (0, size // 2 - 1)), n))
    return make_element(spec, pieces)


@pytest.mark.parametrize("pair, product", [([2, 2], [4]), ([2, 3], [6])], ids=["2-2", "2-3"])
def test_an_odometer_and_its_paired_bases_agree(pair, product):
    fine = make_system({"kind": "odometer", "bases": pair})
    coarse = make_system({"kind": "odometer", "bases": product})
    y = coarse.point((), (1,))
    assert base_point(fine, "alternate")[0].window(0, 7) == "10" * 4
    for s in random_products(fine, 20, 0, max_len=4):
        t = _carried(s, coarse)
        k = index(s)
        assert index(t) == k
        assert in_stabilizer(t) == in_stabilizer(s)
        assert order(t, 50) == order(s, 50)
        # a power of T brings the index to 0. The swap-site searches climb
        # different ladders, so the carried factors pass the coarse side's
        # checks rather than equal its factors
        p1, p2 = (_carried(p, coarse) for p in kernel_decompose(compose(s, shift(fine, -k))))
        q1, q2 = kernel_decompose(compose(t, shift(coarse, -k)), y=y)
        assert equals(compose(p1, p2), compose(q1, q2))
        assert in_stabilizer(p1) and in_stabilizer(p2, y)
        assert order(p2, 2) == order(q2, 2)


FLIP = str.maketrans("ab", "ba")


def _flipped(s):
    """s conjugated by the Thue-Morse letter swap a <-> b."""
    spec = s.spec
    pieces = []
    for n, c in s.pieces:
        words = [w.translate(FLIP) for w in c.sorted_words()]
        mask = spec.encode(words, c.hi - c.lo + 1)
        pieces.append((ClopenSet._canonical(spec, mask, (c.lo, c.hi)), n))
    return make_element(spec, pieces)


def test_the_thue_morse_flip_keeps_index_and_order():
    spec = make_system({"kind": "substitution", "rule": RULES["thue-morse"]})
    products = random_products(spec, 20, 0, max_len=3)
    flips = [_flipped(s) for s in products]
    assert not all(equals(f, s) for s, f in zip(products, flips))
    for s, f in zip(products, flips):
        assert equals(_flipped(f), s)
        assert index(f) == index(s)
        assert order(f, 12) == order(s, 12)
    for s, t, f, g in zip(products, products[1:], flips, flips[1:]):
        assert equals(_flipped(compose(s, t)), compose(f, g))
