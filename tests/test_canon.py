"""Factorization, index, kernel decomposition, separation witnesses."""

import random

import pytest

from fullgroups.canon import (
    Refusal,
    factorize,
    in_stabilizer,
    index,
    is_n_permutation,
    is_n_rotation,
    kernel_decompose,
    orbit_counts,
    rotation_escapes,
    separation_parts,
    separation_witness,
)
from fullgroups import canon
from fullgroups.clopen import central_cylinder, cylinder
from fullgroups.errors import PreconditionError, VerificationError
from fullgroups.group import (
    cocycle_at,
    cocycle_bound,
    commutator,
    compose,
    disjoint_cylinder_block,
    embed_symmetric,
    equals,
    identity,
    invert,
    is_identity,
    make_element,
    order,
    shift,
    support,
)
from fullgroups.sampling import random_products
from fullgroups.systems import base_point, make_system
from fullgroups.towers import induced, tower_sequence
from oracles import index_by_measure

ODO2 = make_system({"kind": "odometer", "bases": [2]})
ODO32 = make_system({"kind": "odometer", "bases": [3, 2]})
FIB = make_system({"kind": "substitution", "rule": {"a": "ab", "b": "a"}})


def sample_pool(spec):
    t = shift(spec, 1)
    u3 = disjoint_cylinder_block(spec, 3)
    u2 = disjoint_cylinder_block(spec, 2)
    a = cylinder(spec, "0") if spec.kind == "odometer" else cylinder(spec, "a")
    return [
        t,
        invert(t),
        embed_symmetric(spec, 3, (1, 2, 0), u3),
        embed_symmetric(spec, 2, (1, 0), u2),
        induced(spec, a),
    ]


def products(spec, count, seed, max_len=6):
    rng = random.Random(seed)
    pool = sample_pool(spec)
    out = []
    for _ in range(count):
        s = identity(spec)
        for _ in range(rng.randint(1, max_len)):
            s = compose(s, rng.choice(pool))
        out.append(s)
    return out


def test_factorize_shift_oracle():
    # single tower of height 4: the shift climbs one level and wraps once
    fac = factorize(shift(ODO2, 1))
    assert fac.level == 1
    assert fac.n0 == 1
    assert [h for _, h in fac.xi.towers] == [4]
    assert fac.permutation.perms == ((1, 2, 3, 0),)
    assert fac.rotation.u_levels == ((0, 1),)
    assert fac.rotation.d_levels == ()


def test_factorize_composes_back():
    for s in products(ODO32, 6, seed=3):
        fac = factorize(s)
        recomposed = compose(fac.permutation.to_element(), fac.rotation.to_element())
        assert equals(recomposed, s)


def test_factorize_deterministic():
    s = products(FIB, 1, seed=11)[0]
    assert factorize(s) == factorize(s)


def test_factorize_fixed_level():
    t = shift(ODO2, 1)
    fac = factorize(t, level=4)
    assert fac.level == 4
    assert fac.n0 == 4
    assert equals(
        compose(fac.permutation.to_element(), fac.rotation.to_element()), t
    )


def test_factorize_rejects_low_level():
    s = compose(shift(ODO2, 3), identity(ODO2))
    with pytest.raises(PreconditionError):
        factorize(s, level=1)


def test_rotation_bounds():
    for s in products(FIB, 5, seed=5):
        fac = factorize(s)
        rot = fac.rotation
        assert all(abs(e) == 1 for _, e in rot.u_levels + rot.d_levels)
        su, sd = rot.supportive_sets()
        assert all(0 <= i < fac.n0 for i in su | sd)


def test_index_oracles():
    for spec in (ODO2, ODO32, FIB):
        t = shift(spec, 1)
        assert index(t) == 1
        assert index(invert(t)) == -1
        a = cylinder(spec, "0") if spec.kind == "odometer" else cylinder(spec, "a")
        assert index(induced(spec, a)) == 1
    u = cylinder(ODO2, "00")
    assert index(embed_symmetric(ODO2, 2, (1, 0), u)) == 0


@pytest.mark.parametrize("bases", [[2], [2, 3], [3, 2, 2]], ids=str)
def test_index_is_the_cocycle_integral(bases):
    spec = make_system({"kind": "odometer", "bases": bases})
    for s in random_products(spec, 20, seed=18):
        assert index(s) == index_by_measure(s)


def test_orbit_counts_oracle():
    x, _ = base_point(ODO2, "primary")
    assert orbit_counts(shift(ODO2, 1), x) == (1, 0)
    assert orbit_counts(shift(ODO2, -1), x) == (0, 1)
    assert orbit_counts(identity(ODO2), x) == (0, 0)


def test_index_additive():
    for spec in (ODO2, FIB):
        elems = products(spec, 6, seed=9, max_len=3)
        vals = [index(s) for s in elems]
        for s, vs in zip(elems[:3], vals[:3]):
            for z, vz in zip(elems[3:], vals[3:]):
                assert index(compose(s, z)) == vs + vz


def test_stabilizer_matches_rotation_part():
    # the crossing-count route agrees with the factorization anchored at x
    x, _ = base_point(ODO2, "primary")
    for s in products(ODO2, 8, seed=13, max_len=4):
        fac = factorize(s)
        assert in_stabilizer(s, x) == fac.rotation.is_trivial()


def test_in_stabilizer():
    assert not in_stabilizer(shift(ODO2, 1))
    u = cylinder(ODO2, "00")
    assert in_stabilizer(embed_symmetric(ODO2, 2, (1, 0), u))
    assert not in_stabilizer(induced(ODO2, cylinder(ODO2, "0")))


def test_permutation_recognizer():
    t = shift(ODO2, 1)
    xi = tower_sequence(ODO2).level(3)
    r = is_n_permutation(t, xi)
    assert isinstance(r, Refusal)
    assert r.atom is not None
    fac = factorize(t, level=3)
    p = fac.permutation.to_element()
    form = is_n_permutation(p, xi)
    assert not isinstance(form, Refusal)
    assert form.perms == fac.permutation.perms
    assert equals(form.to_element(), p)


def test_rotation_recognizer():
    xi = tower_sequence(ODO2).level(3)
    s = compose(induced(ODO2, xi.u_set(0)), induced(ODO2, xi.d_set(1)))
    form = is_n_rotation(s, xi)
    assert not isinstance(form, Refusal)
    assert form.u_levels == ((0, 1),)
    assert form.d_levels == ((1, 1),)
    assert equals(form.to_element(), s)
    # a transposition inside the towers breaks the rotation shape
    u = cylinder(ODO2, "0000")
    pert = compose(s, embed_symmetric(ODO2, 2, (1, 0), u))
    assert isinstance(is_n_rotation(pert, xi), Refusal)


def test_forms_exclude_each_other():
    for s in products(ODO2, 4, seed=21):
        fac = factorize(s)
        xi = fac.xi
        r = fac.rotation.to_element()
        if not fac.rotation.is_trivial():
            assert isinstance(is_n_permutation(r, xi), Refusal)
        p = fac.permutation.to_element()
        rec = is_n_rotation(p, xi)
        if not fac.permutation.is_trivial():
            assert isinstance(rec, Refusal)


def test_rotation_part_has_infinite_order():
    # a non-stabilizer element leaves behind an infinite-order rotation
    for s in (shift(ODO2, 1), invert(shift(ODO2, 1)), induced(FIB, cylinder(FIB, "a"))):
        fac = factorize(s)
        assert not fac.rotation.is_trivial()
        assert rotation_escapes(fac, 64)


def test_kernel_decompose_oracle():
    # swap of [11] with its successor block [00] crosses the anchor once
    s = embed_symmetric(ODO2, 2, (1, 0), cylinder(ODO2, "11"))
    assert index(s) == 0
    p1, p2 = kernel_decompose(s)
    assert equals(compose(p1, p2), s)
    assert order(p2, 4) == 2
    x, _ = base_point(ODO2, "primary")
    y, _ = base_point(ODO2, "alternate")
    assert in_stabilizer(p1, x)
    assert in_stabilizer(p2, y)


def test_kernel_decompose_crossing_free():
    u = cylinder(ODO2, "00")
    s = embed_symmetric(ODO2, 2, (1, 0), u)
    p1, p2 = kernel_decompose(s)
    assert is_identity(p2)
    assert equals(p1, s)


def test_kernel_decompose_sampled():
    x, _ = base_point(ODO32, "primary")
    y, _ = base_point(ODO32, "alternate")
    done = 0
    for s in products(ODO32, 10, seed=41, max_len=4):
        if index(s) != 0:
            continue
        p1, p2 = kernel_decompose(s)
        assert equals(compose(p1, p2), s)
        assert in_stabilizer(p1, x)
        assert in_stabilizer(p2, y)
        assert order(p2, 4) in (1, 2)
        done += 1
    assert done >= 2


def _swap_sites_by_scan(spec, x, y, q):
    """The (depth, p) candidates in scan order whose blocks T^l(C), T^(l+p)(C),
    0 <= l <= 2q, are pairwise disjoint, each pair tested by its
    intersection, and miss the orbit points T^j(y), |j| <= q."""
    for depth in range(1, 33):
        c = central_cylinder(spec, x, depth)
        for p in range(1, 4 * q + 1):
            blocks = [c.translate(l + off) for l in range(2 * q + 1) for off in (0, p)]
            if any(
                not a.intersect(b).is_empty() for i, a in enumerate(blocks) for b in blocks[i + 1 :]
            ):
                continue
            if any(b.contains_point(y.shifted(j)) for b in blocks[:2] for j in range(-q, q + 1)):
                continue
            yield c, p


@pytest.mark.parametrize(
    "spec",
    [ODO2, ODO32, FIB, make_system({"kind": "substitution", "rule": {"a": "ab", "b": "ba"}})],
    ids=["odometer-2", "odometer-3-2", "fibonacci", "thue-morse"],
)
def test_swap_site_is_the_first_disjoint_one(spec):
    """C and T^p(C) can be disjoint while their union canonicalizes on a
    smaller window (a subshift's T^p moves the window; an odometer's union
    can fill a fiber), so word counts do not decide disjointness."""
    x, _ = base_point(spec, "primary")
    y, _ = base_point(spec, "alternate")
    for q in range(1, 6):
        sites = _swap_sites_by_scan(spec, x, y, q)
        site = next(sites)
        for p_floor in range(1, 2 * q + 1):
            while site[1] < p_floor:
                site = next(sites)
            assert canon._find_swap_site(spec, x, y, q, p_floor) == site, (q, p_floor)


def test_kernel_decompose_rejects_nonzero_index():
    with pytest.raises(PreconditionError):
        kernel_decompose(shift(ODO2, 1))


def test_kernel_decompose_is_commutator_with_shift():
    s = embed_symmetric(ODO2, 2, (1, 0), cylinder(ODO2, "11"))
    _, p2 = kernel_decompose(s)
    # P2 splits into an involution and its shift conjugate
    halves = {}
    for power, piece in p2.pieces:
        if power != 0:
            halves.setdefault(power, []).append(piece)
    assert set(halves) == {1, -1}


def test_separation_witness_oracle():
    x, _ = base_point(ODO2, "primary")
    o = cylinder(ODO2, "0")
    g = separation_witness(ODO2, o, x)
    nontrivial = {
        tuple(sorted(c.sorted_words())): p for p, c in g.pieces if p != 0
    }
    assert nontrivial == {
        ("000", "010"): 2,
        ("001",): -4,
    }
    assert order(g, 8) == 3
    assert index(g) == 0
    assert cocycle_at(g, x) == 2
    assert support(g).subset(o)


def test_separation_parts_commutator():
    x, _ = base_point(FIB, "primary")
    o = cylinder(FIB, x.window(0, 0))
    sigma, tau = separation_parts(FIB, o, x)
    assert order(sigma, 4) == 2
    assert order(tau, 4) == 2
    g = commutator(tau, sigma)
    assert equals(g, separation_witness(FIB, o, x))
    assert order(g, 8) == 3
    assert cocycle_at(g, x) != 0
    assert support(g).subset(o)


def test_separation_witness_rejects_outside_point():
    x, _ = base_point(ODO2, "primary")
    o = cylinder(ODO2, "1")
    with pytest.raises(PreconditionError):
        separation_witness(ODO2, o, x)


def test_index_kernel_matches_stabilizer_product():
    # every index-0 sample splits into two stabilizer members whose product it is
    for s in products(ODO2, 10, seed=29):
        if index(s) == 0:
            p1, p2 = kernel_decompose(s)
            assert equals(compose(p1, p2), s)


def test_level_search_cap_names_its_knob(monkeypatch):
    monkeypatch.setattr(canon, "_LEVEL_CAP", 0)
    with pytest.raises(VerificationError, match=r"_LEVEL_CAP = 0"):
        factorize.__wrapped__(shift(ODO2, 1))


def test_factorization_cache_stays_bounded():
    maxsize = factorize.cache_info().maxsize
    assert maxsize == canon._FACT_CACHE_SIZE
    # products over the pool, shortest first, until there are maxsize + 1
    pool = sample_pool(ODO2)
    seen = dict.fromkeys([identity(ODO2)])
    frontier = list(seen)
    while len(seen) <= maxsize:
        frontier = list(dict.fromkeys(
            s for s in (compose(e, g) for e in frontier for g in pool) if s not in seen
        ))
        seen.update(dict.fromkeys(frontier))
    for s in seen:
        factorize(s)
    assert factorize.cache_info().currsize == maxsize
