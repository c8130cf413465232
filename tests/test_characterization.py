"""Characterization of tower and factorization output on the system matrix.

The fixture `data/characterization.json` pins, for each system, the
rendered tower levels 1-3 and the hash and rendered factorization of five
seeded products. Regenerate it (only when an output change is intended) with

    PYTHONPATH=src python tests/test_characterization.py
"""

import json
import pathlib

import pytest

from fullgroups.canon import factorize
from fullgroups.formats import render_factorization, render_towers
from fullgroups.group import element_hash
from fullgroups.sampling import random_products
from fullgroups.systems import make_system
from fullgroups.towers import tower_sequence

FIXTURE = pathlib.Path(__file__).parent / "data" / "characterization.json"

SYSTEMS = {
    "odometer-2": {"kind": "odometer", "bases": [2]},
    "odometer-2-3": {"kind": "odometer", "bases": [2, 3]},
    "fibonacci": {"kind": "substitution", "rule": {"a": "ab", "b": "a"}},
    "thue-morse": {"kind": "substitution", "rule": {"a": "ab", "b": "ba"}},
    "tribonacci": {"kind": "substitution", "rule": {"a": "ab", "b": "ac", "c": "a"}},
}


def snapshot(desc: dict) -> dict:
    spec = make_system(desc)
    seq = tower_sequence(spec)
    products = random_products(spec, 5, 0, max_len=3)
    return {
        "towers": [render_towers(seq.level(n)) for n in (1, 2, 3)],
        "products": [
            {"hash": element_hash(p), "factorization": render_factorization(factorize(p))}
            for p in products
        ],
    }


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_output_matches_fixture(name):
    expected = json.loads(FIXTURE.read_text())[name]
    assert snapshot(SYSTEMS[name]) == expected


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    data = {name: snapshot(desc) for name, desc in sorted(SYSTEMS.items())}
    FIXTURE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
