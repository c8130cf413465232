"""The level-table check of Q = P∘R against the element oracle.

`canon._check_factorization` verifies a factorization on the level's
cocycle table; the oracle rebuilds P and R as elements, composes them and
compares the result with Q. On the five-system matrix both accept what
`factorize` returns, and both refuse each mutation below:

- two entries of one tower permutation swapped;
- a U-band exponent flipped to -1;
- a supportive level dropped, or moved by one;
- Q's power on one off-band atom changed by +-h_v. This needs a level of
  one tower, as on the odometers: there T^{h_v} maps each atom onto
  itself, so the mutated Q is still an element, and its permutation
  reduced mod h_v is P's.

Each refusal of the table check is also reached by one fixed mutation,
and its message names the check that refused. The oracle refuses all but
the band-agreement one, where Q = P∘R still holds.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from fullgroups.canon import _bands_agree, _check_factorization, factorize
from fullgroups.clopen import cylinder
from fullgroups.errors import PreconditionError, VerificationError
from fullgroups.group import compose, equals, identity, make_element, shift, swaps
from fullgroups.sampling import random_products
from fullgroups.systems import make_system

SYSTEMS = {
    "odometer-2": make_system({"kind": "odometer", "bases": [2]}),
    "odometer-2-3": make_system({"kind": "odometer", "bases": [2, 3]}),
    "fibonacci": make_system({"kind": "substitution", "rule": {"a": "ab", "b": "a"}}),
    "thue-morse": make_system({"kind": "substitution", "rule": {"a": "ab", "b": "ba"}}),
    "tribonacci": make_system(
        {"kind": "substitution", "rule": {"a": "ab", "b": "ac", "c": "a"}}
    ),
}
# Thue-Morse products stay short: at length 4 some reach level 7, where
# rebuilding the mutated factorizations as elements takes seconds.
MAX_LEN = {"thue-morse": 3}


def table_accepts(fac) -> bool:
    try:
        _check_factorization(fac)
    except VerificationError:
        return False
    return True


def oracle_accepts(fac) -> bool:
    try:
        p, r = fac.permutation.to_element(), fac.rotation.to_element()
    except PreconditionError:
        return False  # a band past the shortest tower has no band set
    return equals(compose(p, r), fac.element)


def _with_levels(fac, side, edit):
    levels = list(getattr(fac.rotation, side))
    edit(levels)
    rotation = dataclasses.replace(fac.rotation, **{side: tuple(levels)})
    return dataclasses.replace(fac, rotation=rotation)


def _supportive(fac):
    return [(side, k) for side in ("u_levels", "d_levels")
            for k in range(len(getattr(fac.rotation, side)))]


def swapped_entries(fac, pick):
    perms = fac.permutation.perms
    v = pick(range(len(perms)))
    i = pick(range(len(perms[v])))
    j = pick([j for j in range(len(perms[v])) if j != i])
    pv = list(perms[v])
    pv[i], pv[j] = pv[j], pv[i]
    new = perms[:v] + (tuple(pv),) + perms[v + 1:]
    return dataclasses.replace(
        fac, permutation=dataclasses.replace(fac.permutation, perms=new)
    )


def flipped_u_exponent(fac, pick):
    if not fac.rotation.u_levels:
        return None
    k = pick(range(len(fac.rotation.u_levels)))

    def edit(levels):
        levels[k] = (levels[k][0], -1)

    return _with_levels(fac, "u_levels", edit)


def dropped_level(fac, pick):
    levels = _supportive(fac)
    if not levels:
        return None
    side, k = pick(levels)
    return _with_levels(fac, side, lambda levels: levels.pop(k))


def moved_level(fac, pick):
    levels = _supportive(fac)
    if not levels:
        return None
    side, k = pick(levels)
    i, e = getattr(fac.rotation, side)[k]
    step = pick([1, -1] if i > 0 else [1])

    def edit(levels):
        levels[k] = (i + step, e)

    return _with_levels(fac, side, edit)


def wrapped_atom(fac, pick):
    """Q∘W, where W is T^{+-h} on one off-band atom and the identity off it."""
    xi = fac.xi
    if len(xi.towers) != 1:
        return None
    (h,) = xi.heights()
    up = {h - 1 - a for a, _ in fac.rotation.u_levels}
    down = {b for b, _ in fac.rotation.d_levels}
    i = pick([i for i in range(h) if i not in up | down])
    return _wrapped(fac, i, pick([h, -h]))


def _wrapped(fac, i, power):
    """Q∘W, where W is T^power on atom i of the one tower and the identity off it."""
    atom = fac.xi.atom(0, i)
    w = make_element(fac.xi.spec, [(atom, power), (atom.complement(), 0)])
    return dataclasses.replace(fac, element=compose(fac.element, w))


MUTATIONS = (swapped_entries, flipped_u_exponent, dropped_level, moved_level, wrapped_atom)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(SYSTEMS)), st.integers(0, 10**6), st.data())
def test_table_check_and_oracle_agree(name, seed, data):
    spec = SYSTEMS[name]
    (s,) = random_products(spec, 1, seed, max_len=MAX_LEN.get(name, 4))
    fac = factorize(s)
    assert table_accepts(fac) and oracle_accepts(fac)

    def pick(seq):
        return data.draw(st.sampled_from(list(seq)))

    for mutate in MUTATIONS:
        bad = mutate(fac, pick)
        if bad is not None:
            assert not table_accepts(bad), mutate.__name__
            assert not oracle_accepts(bad), mutate.__name__


@pytest.mark.parametrize("mutate", MUTATIONS, ids=lambda m: m.__name__)
@pytest.mark.parametrize("name", sorted(SYSTEMS))
@pytest.mark.parametrize("power", [2, -2])
def test_each_mutation_is_refused_on_a_shift(power, name, mutate):
    spec = SYSTEMS[name]
    fac = factorize(shift(spec, power))
    bad = mutate(fac, lambda seq: list(seq)[-1])
    if bad is None:
        # no U band under T^-2, and no single-tower level on a subshift
        assert (mutate is flipped_u_exponent and power < 0) or (
            mutate is wrapped_atom and len(fac.xi.towers) > 1
        )
        return
    assert not table_accepts(bad)
    assert not oracle_accepts(bad)


@pytest.mark.parametrize("name", ["odometer-2", "odometer-2-3"])
def test_a_wrapped_atom_keeps_the_permutation_mod_h(name):
    fac = factorize(shift(SYSTEMS[name], 2))
    bad = wrapped_atom(fac, lambda seq: list(seq)[0])
    (h,) = fac.xi.heights()
    (row,) = fac.xi.cocycle_rows(bad.element)
    wrapped = [(i + f) % h for i, f in enumerate(row)]
    assert tuple(wrapped) == fac.permutation.perms[0]
    assert not equals(bad.element, fac.element)


ODO2 = SYSTEMS["odometer-2"]
ODO3 = make_system({"kind": "odometer", "bases": [3]})
FIB = SYSTEMS["fibonacci"]


def _with(fac, n0=None, perms=None, **rotation):
    """fac with n0, the permutation's perms or the rotation's levels replaced."""
    return dataclasses.replace(
        fac,
        n0=fac.n0 if n0 is None else n0,
        permutation=dataclasses.replace(fac.permutation, perms=perms or fac.permutation.perms),
        rotation=dataclasses.replace(fac.rotation, **rotation),
    )


def _finer_element():
    # T^2 on [2] factorizes at level 2 (one tower of height 8, atoms of depth 3);
    # a swap of a depth-6 cylinder is not constant on the atom that holds it
    fac = factorize(shift(ODO2, 2))
    return dataclasses.replace(fac, element=swaps(ODO2, [(cylinder(ODO2, "000000"), 1)]))


def _repeated_entry():
    fac = factorize(shift(ODO2, 2))
    (pv,) = fac.permutation.perms
    return _with(fac, perms=((pv[0],) + pv[:-1],))


def _band_past_half_height():
    # height 8: band 4 reaches the middle of the tower
    return _with(factorize(shift(ODO2, 2)), n0=5, u_levels=((4, 1),))


def _shared_band_atom():
    # T on [3] factorizes at level 1, height 9: U band 4 and D band 4 are atom 4
    return _with(factorize(shift(ODO3, 1)), n0=5, u_levels=((4, 1),), d_levels=((4, -1),))


def _wrapped_u_band():
    fac = factorize(shift(ODO2, 2))
    (h,) = fac.xi.heights()
    return _wrapped(fac, h - 1, h)  # the atom of U band 0


def _wrapped_d_band():
    fac = factorize(shift(ODO2, -2))
    (h,) = fac.xi.heights()
    return _wrapped(fac, 0, h)  # the atom of D band 0


def _u_band_on_two_heights():
    # T on Fibonacci factorizes at level 1, towers of heights 8 and 13: U band 1
    # would move the second-highest atoms by 9 and 14, and Q moves them by 1
    fac = factorize(shift(FIB, 1))
    return _with(fac, n0=2, u_levels=fac.rotation.u_levels + ((1, 1),))


def _d_band_on_two_heights():
    fac = factorize(shift(FIB, -1))
    return _with(fac, n0=2, d_levels=fac.rotation.d_levels + ((1, -1),))


def _transposed_in_one_tower():
    # the identity on Fibonacci factorizes at level 1, towers of heights 8 and 13;
    # swapping the two bottom atoms of tower 0 only moves band 0 in one tower
    fac = factorize(identity(FIB))
    pv0, pv1 = fac.permutation.perms
    element = swaps(FIB, [(fac.xi.atom(0, 0), 1)])
    return dataclasses.replace(_with(fac, perms=((1, 0) + pv0[2:], pv1)), element=element)


def _band_twice():
    # T^2 on [2]: U bands 0 and 1 at level 2; band 0 listed twice
    fac = factorize(shift(ODO2, 2))
    return _with(fac, u_levels=fac.rotation.u_levels[:1] + fac.rotation.u_levels)


def _band_at_n0():
    # the same form with n0 = 1: U band 1 sits at i == n0, just outside [0, n0)
    fac = factorize(shift(ODO2, 2))
    assert max(a for a, _ in fac.rotation.u_levels) == 1
    return _with(fac, n0=1)


def _far_move_under_small_n0():
    # the swap of a depth-3 cylinder with its T^3 image crosses no anchor,
    # so the form has no bands; n0 = 1 is below its displacement 3
    fac = factorize(swaps(ODO2, [(cylinder(ODO2, "010"), 3)]))
    assert fac.rotation.is_trivial()
    return _with(fac, n0=1)


REFUSALS = {
    "Q's cocycle is not constant on atom": _finer_element,
    "P is not a within-tower permutation": _repeated_entry,
    "a rotation band exceeds the shortest tower": _band_past_half_height,
    "a U band and a D band share an atom": _shared_band_atom,
    "P∘R does not reproduce Q on U band 0": _wrapped_u_band,
    "P∘R does not reproduce Q on D band 0": _wrapped_d_band,
    "P∘R does not reproduce Q on U band 1": _u_band_on_two_heights,
    "P∘R does not reproduce Q on D band 1": _d_band_on_two_heights,
    "band permutation disagrees across towers": _transposed_in_one_tower,
    "a band appears twice in the rotation": _band_twice,
    "supportive set outside [0, n0)": _band_at_n0,
    "displacement exceeds n0": _far_move_under_small_n0,
}
# Q = P∘R holds there, so only the table check sees the broken form
FORM_ONLY = {
    "band permutation disagrees across towers",
    "supportive set outside [0, n0)",
    "displacement exceeds n0",
}


@pytest.mark.parametrize("message", sorted(REFUSALS), ids=lambda m: REFUSALS[m].__name__[1:])
def test_each_refusal_names_its_check(message):
    bad = REFUSALS[message]()
    with pytest.raises(VerificationError) as err:
        _check_factorization(bad)
    assert str(err.value).startswith(message)
    assert oracle_accepts(bad) == (message in FORM_ONLY)


def test_band_agreement_reads_both_ends_of_the_band():
    """Two towers' rows that agree at signed positions -d, ..., d - 1 and
    differ only at +d: the band [-d, d] is closed at both ends."""
    d, heights = 2, (7, 9)
    rows = [[0] * h for h in heights]
    rows[1][d] = 1
    assert _bands_agree(rows, heights, d - 1)
    assert not _bands_agree(rows, heights, d)
