"""Round-trips for every emitted text artifact."""

import dataclasses
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from fullgroups.canon import PermutationForm, RotationForm, factorize
from fullgroups.clopen import cylinder, empty, full
from fullgroups.errors import ParseError
from fullgroups.formats import (
    parse_clopen,
    parse_element,
    parse_factorization,
    parse_lef_witness,
    parse_system_config,
    parse_towers,
    render_clopen,
    render_element,
    render_factorization,
    render_lef_witness,
    render_system_config,
    render_towers,
)
from fullgroups.group import (
    disjoint_cylinder_block,
    element_hash,
    embed_symmetric,
    equals,
    identity,
    invert,
    shift,
)
from fullgroups.lef import lef_map
from fullgroups.sampling import random_clopen, random_products
from fullgroups.systems import make_system
from fullgroups.towers import kr_from_set, tower_sequence

ODO2 = make_system({"kind": "odometer", "bases": [2]})
FIB = make_system({"kind": "substitution", "rule": {"a": "ab", "b": "a"}})
SYSTEMS = {"odo2": ODO2, "fib": FIB}


def test_clopen_round_trip():
    c = cylinder(ODO2, "01").union(cylinder(ODO2, "11"))
    text = render_clopen(c)
    assert text == "01@0 + 11@0"
    assert parse_clopen(text, ODO2) == c
    assert render_clopen(parse_clopen(text, ODO2)) == text


MATRIX = {
    "odometer-2": ODO2,
    "odometer-2-3": make_system({"kind": "odometer", "bases": [2, 3]}),
    "fibonacci": FIB,
    "thue-morse": make_system({"kind": "substitution", "rule": {"a": "ab", "b": "ba"}}),
    "tribonacci": make_system({"kind": "substitution", "rule": {"a": "ab", "b": "ac", "c": "a"}}),
}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(MATRIX)), st.integers(0, 2**32), st.integers(1, 4), st.integers(1, 5))
def test_clopen_text_round_trip_fuzz(name, seed, pieces, depth):
    spec = MATRIX[name]
    c = random_clopen(spec, random.Random(seed), pieces=pieces, depth=depth)
    for s in (c, c.complement()):
        text = render_clopen(s)
        assert parse_clopen(text, spec) == s
        assert render_clopen(parse_clopen(text, spec)) == text


def test_clopen_literals():
    assert render_clopen(empty(FIB)) == "EMPTY"
    assert render_clopen(full(FIB)) == "FULL"
    assert parse_clopen("EMPTY", FIB) == empty(FIB)
    assert parse_clopen("FULL", FIB) == full(FIB)


def test_clopen_subshift_offsets():
    c = cylinder(FIB, "aba", -1)
    text = render_clopen(c)
    assert parse_clopen(text, FIB) == c


def test_clopen_parse_errors():
    with pytest.raises(ParseError):
        parse_clopen("01", ODO2)
    with pytest.raises(ParseError):
        parse_clopen("01@x", ODO2)
    with pytest.raises(ParseError):
        parse_clopen("02@0", ODO2)
    with pytest.raises(ParseError):
        parse_clopen("01@1", ODO2)
    with pytest.raises(ParseError):
        parse_clopen("ac@0", FIB)
    with pytest.raises(ParseError):  # a digit character that int() refuses
        parse_clopen("\u00b2@0", ODO2)


def test_element_round_trip():
    s = embed_symmetric(ODO2, 2, (1, 0), cylinder(ODO2, "00"))
    text = render_element(s, "odo2")
    name, back = parse_element(text, SYSTEMS)
    assert name == "odo2"
    assert equals(back, s)
    assert render_element(back, name) == text


def test_element_identity_renders_full():
    text = render_element(identity(FIB), "fib")
    assert text.splitlines()[1] == "FULL -> 0"
    assert equals(parse_element(text, SYSTEMS)[1], identity(FIB))


def test_element_parse_errors():
    with pytest.raises(ParseError):
        parse_element("00@0 -> 1", SYSTEMS)
    with pytest.raises(ParseError):
        parse_element("system nope\nFULL -> 0", SYSTEMS)
    with pytest.raises(ParseError):
        parse_element("system odo2\nFULL 0", SYSTEMS)
    with pytest.raises(ParseError):
        parse_element("system odo2\nFULL -> x", SYSTEMS)


def test_towers_round_trip():
    for spec in (ODO2, FIB):
        xi = tower_sequence(spec).level(2)
        text = render_towers(xi)
        back = parse_towers(text, spec)
        assert back.towers == xi.towers
        assert render_towers(back) == text


def test_towers_refuse_heights_below_one():
    text = render_towers(tower_sequence(ODO2).level(1))
    for bad in ("0", "-3"):
        with pytest.raises(ParseError):
            parse_towers(text.replace("height=4", f"height={bad}"), ODO2)


def test_factorization_report_round_trip():
    fac = factorize(shift(ODO2, 1))
    text = render_factorization(fac)
    assert text.splitlines()[0] == "level n=1 n0=1"
    assert "U(0)^1" in text
    n, n0, perms, u_levels, d_levels = parse_factorization(text)
    assert (n, n0) == (fac.level, fac.n0)
    assert perms == fac.permutation.perms
    assert u_levels == fac.rotation.u_levels
    assert d_levels == fac.rotation.d_levels


def test_factorization_report_inverse_shift():
    fac = factorize(invert(shift(FIB, 1)))
    text = render_factorization(fac)
    _, _, _, u_levels, d_levels = parse_factorization(text)
    assert u_levels == ()
    assert d_levels == ((0, -1),)


def test_factorization_report_parse_errors():
    head = "level n=1 n0=1\n"
    with pytest.raises(ParseError):  # a non-integer permutation entry
        parse_factorization(head + "tower 0: 1 x\n")
    with pytest.raises(ParseError):  # no ': ' after the tower number
        parse_factorization(head + "tower 0 1 0\n")
    for bad in ("level n=1 ab=1\n", "level n=1 n0=1 junk\n", "level n0=1 n=1\n"):
        with pytest.raises(ParseError):
            parse_factorization(bad + "tower 0: 0\n")
    with pytest.raises(ParseError):  # towers out of order
        parse_factorization(head + "tower 7: 1 0\ntower 0: 0\n")


def test_lef_witness_round_trip():
    g = embed_symmetric(ODO2, 3, (1, 2, 0), disjoint_cylinder_block(ODO2, 3))
    w = lef_map([shift(ODO2, 1), g])
    text = render_lef_witness(w)
    level, elements, entries = parse_lef_witness(text)
    assert level == w.level
    assert elements == tuple(sorted(element_hash(s) for s in w.elements))
    assert len(entries) == len(w.table)
    assert render_lef_witness(w) == text
    images = {h for _, h in entries}
    assert len(images) == len(entries)


def test_lef_witness_parse_errors():
    with pytest.raises(ParseError):
        parse_lef_witness("level=3\nabc -> 0 1")
    with pytest.raises(ParseError):
        parse_lef_witness("lef level=3\nabc 0 1")
    with pytest.raises(ParseError):
        parse_lef_witness("lef level=3\nelements abc\nabc 0 1")
    with pytest.raises(ParseError):  # no F line
        parse_lef_witness("lef level=3\nabc -> 0 1")
    with pytest.raises(ParseError):
        parse_lef_witness("lef level=3\nelements\nabc -> 0 1")
    with pytest.raises(ParseError):
        parse_lef_witness("lef level=3\nelements abc\nabc -> 0 x")


def test_system_config_round_trip():
    for spec in (ODO2, FIB, make_system({"kind": "odometer", "bases": [3, 2]})):
        text = render_system_config(spec)
        assert parse_system_config(text) == spec


def test_system_config_parse_errors():
    with pytest.raises(ParseError):
        parse_system_config("kind = banana")
    with pytest.raises(ParseError):
        parse_system_config("kind = odometer")
    with pytest.raises(ParseError):
        parse_system_config("kind = odometer\nbases = a,b")
    with pytest.raises(ParseError):
        parse_system_config("kind = substitution\nalphabet = a,b")


# -- byte-for-byte round trips on the five-system matrix --------------------

# Products stay short where deep tower levels take seconds to build.
MAX_LEN = {"thue-morse": 2, "tribonacci": 3}
NAMES = {spec: name for name, spec in MATRIX.items()}


@st.composite
def products(draw):
    name = draw(st.sampled_from(sorted(MATRIX)), label="system")
    seed = draw(st.integers(0, 10**6), label="seed")
    (s,) = random_products(MATRIX[name], 1, seed, max_len=MAX_LEN.get(name, 4))
    return s


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(MATRIX)), st.integers(0, 10**6), st.integers(1, 3), st.booleans())
def test_towers_text_round_trip_fuzz(name, seed, level, from_set):
    spec = MATRIX[name]
    if from_set:
        xi = kr_from_set(spec, random_clopen(spec, random.Random(seed), pieces=2, depth=3))
    else:
        xi = tower_sequence(spec).level(level)
    text = render_towers(xi)
    back = parse_towers(text, spec)
    assert back.towers == xi.towers
    assert render_towers(back) == text


@settings(max_examples=40, deadline=None)
@given(products())
def test_element_text_round_trip_fuzz(s):
    name = NAMES[s.spec]
    text = render_element(s, name)
    back_name, back = parse_element(text, MATRIX)
    assert back_name == name
    assert equals(back, s)
    assert render_element(back, back_name) == text


@settings(max_examples=40, deadline=None)
@given(products())
def test_factorization_text_round_trip_fuzz(s):
    fac = factorize(s)
    text = render_factorization(fac)
    n, n0, perms, u_levels, d_levels = parse_factorization(text)
    back = dataclasses.replace(
        fac,
        level=n,
        n0=n0,
        permutation=PermutationForm(fac.xi, perms),
        rotation=RotationForm(fac.xi, u_levels, d_levels),
    )
    assert back == fac
    assert render_factorization(back) == text


@settings(max_examples=40, deadline=None)
@given(st.one_of(
    st.sampled_from(sorted(MATRIX)).map(MATRIX.get),
    st.lists(st.integers(2, 9), min_size=1, max_size=4).map(
        lambda bases: make_system({"kind": "odometer", "bases": bases})
    ),
))
def test_system_config_text_round_trip_fuzz(spec):
    text = render_system_config(spec)
    back = parse_system_config(text)
    assert back == spec
    assert render_system_config(back) == text


# -- mutated towers and factorization reports on the five-system matrix -----


def _mutate(lines, kind, spec):
    """Apply one mutation in place; False when it does not apply."""
    towers = [i for i, ln in enumerate(lines) if ln.startswith("tower ")]
    if kind == "renumbered tower":
        lines[towers[-1]] = f"tower {len(towers)}: " + lines[towers[-1]].partition(": ")[2]
    elif kind == "reordered towers":
        if len(towers) < 2:
            return False
        a, b = towers[0], towers[-1]
        lines[a], lines[b] = lines[b], lines[a]
    elif kind == "duplicated tower":
        lines.insert(towers[-1] + 1, lines[towers[-1]])
    elif kind == "renamed header field":
        lines[0] = lines[0].replace(" n0=", " m0=")
    elif kind == "extra header token":
        lines[0] += " 0"
    elif kind in ("edited base", "edited top"):
        key = kind.split()[1] + "="
        at = next(i for i, ln in enumerate(lines) if ln.startswith(key))
        lines[at] = key + render_clopen(parse_clopen(lines[at][len(key):], spec).complement())
    elif kind in ("missing base", "missing top"):
        key = kind.split()[1] + "="
        lines[:] = [ln for ln in lines if not ln.startswith(key)]
    return True


TOWER_MUTATIONS = ("renumbered tower", "reordered towers", "duplicated tower",
                   "edited base", "edited top", "missing base", "missing top")
REPORT_MUTATIONS = ("renumbered tower", "reordered towers", "duplicated tower",
                    "renamed header field", "extra header token")


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(MATRIX)), st.integers(0, 10**6), st.integers(1, 3), st.booleans(),
       st.sampled_from(TOWER_MUTATIONS))
def test_mutated_towers_are_refused(name, seed, level, from_set, kind):
    spec = MATRIX[name]
    if from_set:
        xi = kr_from_set(spec, random_clopen(spec, random.Random(seed), pieces=2, depth=3))
    else:
        xi = tower_sequence(spec).level(level)
    lines = render_towers(xi).splitlines()
    assume(_mutate(lines, kind, spec))
    with pytest.raises(ParseError):
        parse_towers("\n".join(lines) + "\n", spec)


@settings(max_examples=60, deadline=None)
@given(products(), st.sampled_from(REPORT_MUTATIONS))
def test_mutated_factorization_reports_are_refused(s, kind):
    lines = render_factorization(factorize(s)).splitlines()
    assume(_mutate(lines, kind, s.spec))
    with pytest.raises(ParseError):
        parse_factorization("\n".join(lines) + "\n")
