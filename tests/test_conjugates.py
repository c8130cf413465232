"""Conjugate presentations of one system must agree.

σ, σ² and σ³ generate the same subshift with the same points (Durand,
Discrete Math. 1998), but they are different specs: different rules,
different spec hashes and so separate caches, and different fixed-point
seeds. Each presentation runs the whole stack on its own, so a fault that
is consistent within one shows as a disagreement between two.
`element_hash` covers the spec, so rendered text is compared instead.
"""

import pytest

from fullgroups.canon import factorize, index
from fullgroups.formats import render_element, render_factorization, render_towers
from fullgroups.lef import lef_map
from fullgroups.sampling import generator_pool, random_products
from fullgroups.systems import make_system
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
