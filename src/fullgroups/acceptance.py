"""Property-based acceptance suite over the exact constructions.

Nine criteria, each a function returning (ok, detail). run_all prints one
verdict line per criterion and is deterministic for a fixed seed.
"""

from __future__ import annotations

import random

from . import canon
from .canon import (
    Refusal,
    factorize,
    in_stabilizer,
    index,
    is_n_rotation,
    kernel_decompose,
    orbit_counts,
    separation_parts,
    separation_witness,
)
from .clopen import cylinder, union_all
from .errors import FullGroupsError
from .group import (
    cocycle_at,
    commutator,
    compose,
    disjoint_cylinder_block,
    embed_symmetric,
    equals,
    identity,
    invert,
    make_element,
    order,
    shift,
    support,
)
from .lef import lef_map, odometer_structure, verify_lef
from .sampling import point_inside, random_clopen, random_products
from .systems import base_point, language, make_system
from .towers import first_return, induced, tower_sequence

ODO2 = make_system({"kind": "odometer", "bases": [2]})
FIB = make_system({"kind": "substitution", "rule": {"a": "ab", "b": "a"}})
SYSTEMS = (ODO2, FIB)


def _recheck(fac) -> None:
    """canon's verifier on the level's tables, then the independent
    element oracle: P and R rebuilt as elements and composed."""
    canon._check_factorization(fac)
    assert equals(
        compose(fac.permutation.to_element(), fac.rotation.to_element()), fac.element
    )


def criterion_factorization(seed: int):
    """200 seeded elements on both systems: exact recomposition and the
    factorization postconditions, rerun for determinism."""
    total = 0
    for spec in SYSTEMS:
        for s in random_products(spec, 100, seed + total, max_len=6):
            fac = factorize(s)
            _recheck(fac)
            again = factorize.__wrapped__(s)
            assert fac.level == again.level and fac.n0 == again.n0
            assert fac.permutation.perms == again.permutation.perms
            assert fac.rotation == again.rotation
            total += 1
    return True, f"{total} factorizations rechecked and reproduced"


def criterion_uniqueness(seed: int):
    """Perturbing the permutation part by a within-tower transposition
    always breaks the rotation shape of the remainder."""
    rng = random.Random(seed)
    checked = 0
    for spec in SYSTEMS:
        for s in random_products(spec, 25, seed + checked, max_len=3):
            fac = factorize(s)
            xi = fac.xi
            for _ in range(3):
                v = rng.randrange(len(xi.towers))
                h = xi.heights()[v]
                i, j = sorted(rng.sample(range(h), 2))
                tau = make_element(
                    spec,
                    [
                        (xi.atom(v, i), j - i),
                        (xi.atom(v, j), i - j),
                        (xi.atom(v, i).union(xi.atom(v, j)).complement(), 0),
                    ],
                )
                perturbed = compose(fac.permutation.to_element(), tau)
                remainder = compose(invert(perturbed), s)
                assert isinstance(is_n_rotation(remainder, xi), Refusal)
                checked += 1
    return True, f"{checked} perturbed remainders refused as rotations"


def criterion_index(seed: int):
    """Index of the shift and of induced maps is 1; additivity on pairs;
    both computation routes agree on every element."""
    rng = random.Random(seed)
    induced_checked = 0
    for spec in SYSTEMS:
        assert index(shift(spec, 1)) == 1
        for _ in range(10):
            c = random_clopen(spec, rng)
            assert index(induced(spec, c)) == 1
            induced_checked += 1
    pairs = 0
    for spec in SYSTEMS:
        elems = random_products(spec, 20, seed + pairs, max_len=3)
        vals = [index(s) for s in elems]
        for i in range(10):
            for j in range(10, 15):
                assert index(compose(elems[i], elems[j])) == vals[i] + vals[j]
                pairs += 1
    return True, f"{induced_checked} induced maps, {pairs} additive pairs"


def criterion_structure(seed: int):
    """Levels 1..4 of the 2-odometer: realized transpositions, commuting
    free-abelian kernel, unique permutation-kernel factorization."""
    for n in range(1, 5):
        report = odometer_structure(ODO2, n, seed=seed, samples=50, radius=5)
        assert report.ok, f"structure report failed at n={n}"
    return True, "structure reports ok for n=1..4"


def criterion_lef(seed: int):
    """LEF witnesses for products of length <= 2 over {id, T, 3-cycle}
    terminate and verify on both systems."""
    details = []
    for spec in SYSTEMS:
        base = [
            identity(spec),
            shift(spec, 1),
            embed_symmetric(spec, 3, (1, 2, 0), disjoint_cylinder_block(spec, 3)),
        ]
        f_set = list(base)
        for a in base:
            for b in base:
                f_set.append(compose(a, b))
        w = lef_map(f_set)
        rep = verify_lef(w)
        assert w.injective and w.multiplicative and rep.ok
        details.append(f"level {w.level} table {len(w.table)}")
    return True, "; ".join(details)


def criterion_towers(seed: int):
    """Conditions on levels 1..6 of both anchored sequences: topology
    generation, nesting, height and diameter bounds, exact tower shape."""
    for spec in SYSTEMS:
        seq = tower_sequence(spec)
        x, _ = base_point(spec, "primary")
        prev = None
        for n in range(1, 7):
            xi = seq.level(n)
            xi.validate()
            m = xi.band
            assert m == n
            assert min(xi.heights()) >= 2 * m + 2
            rad = 1 + (n - 1).bit_length()
            for i in range(-m - 1, m + 1):
                assert xi.base().translate(i).fits_in_radius(rad)
            assert xi.base().contains_point(x)
            lo, hi = spec.ladder_window(n)
            for w in language(spec, hi - lo + 1):
                assert xi.refines_set(cylinder(spec, w, lo))
            if prev is not None:
                assert xi.base().subset(prev.base())
                for _, _, atom in xi.iter_atoms():
                    hits = sum(
                        1
                        for _, _, prev_atom in prev.iter_atoms()
                        if atom.subset(prev_atom)
                    )
                    assert hits == 1
            prev = xi
    return True, "conditions hold at levels 1..6 for both systems"


def criterion_kernel(seed: int):
    """20 seeded index-0 elements of the 2-odometer decompose into
    forward-orbit stabilizer members with an involution second factor."""
    x, _ = base_point(ODO2, "primary")
    y, _ = base_point(ODO2, "alternate")
    crossing = flat = 0
    batch = 0
    while crossing + flat < 20:
        for s in random_products(ODO2, 30, seed + batch, max_len=4):
            a, b = orbit_counts(s, x)
            if a != b or (a == 0 and flat >= 15):
                continue
            p1, p2 = kernel_decompose(s)
            assert equals(compose(p1, p2), s)
            assert order(p2, 2) in (1, 2)
            assert in_stabilizer(p1, x)
            assert in_stabilizer(p2, y)
            if a > 0:
                crossing += 1
            else:
                flat += 1
            if crossing + flat == 20:
                break
        batch += 1
        assert batch < 12, "not enough index-0 samples"
    assert crossing >= 5
    return True, f"20 kernel elements verified, {crossing} with orbit crossings"


def criterion_separation(seed: int):
    """10 seeded (region, point) pairs: the witness is an order-3
    commutator supported in the region, moving the point, of index 0."""
    rng = random.Random(seed)
    done = 0
    for spec in SYSTEMS:
        for _ in range(5):
            o = union_all(
                spec, [random_clopen(spec, rng, pieces=1, depth=2) for _ in range(2)]
            )
            x = point_inside(spec, o)
            g = separation_witness(spec, o, x)
            sigma, tau = separation_parts(spec, o, x)
            assert equals(g, commutator(tau, sigma))
            assert support(g).subset(o)
            assert cocycle_at(g, x) != 0
            assert order(g, 4) == 3
            assert index(g) == 0
            done += 1
    return True, f"{done} separation witnesses verified"


def _brute_return_time(spec, word, target) -> int | None:
    # least k >= 1 with T^k(point) back in the target cylinder, read off
    # the window alone; None when the window cannot decide
    if spec.kind == "odometer":
        digits = list(word)
        for k in range(1, len(word) + 1):
            carry = k
            out = []
            for i, d in enumerate(digits):
                base = spec.bases[i % len(spec.bases)]
                carry, r = divmod(d + carry, base)
                out.append(r)
            if out[0] == target:
                return k
        return None
    for k in range(1, len(word)):
        if word[k] == target:
            return k
    return None


def criterion_first_return(seed: int):
    """First-return cells match a brute-force window-tracing oracle."""
    width = 12
    for digit in (0, 1):
        rf = first_return(ODO2, cylinder(ODO2, (digit,)))
        assert set(rf.cells) == {2}
        assert rf.cells[2] == cylinder(ODO2, (digit,))
        for word in sorted(language(ODO2, width)):
            if word[0] != digit:
                continue
            assert _brute_return_time(ODO2, word, digit) == 2
    rf = first_return(FIB, cylinder(FIB, ("a",)))
    assert set(rf.cells) == {1, 2}
    assert rf.cells[1] == cylinder(FIB, ("a", "a"))
    assert rf.cells[2] == cylinder(FIB, ("a", "b"))
    buckets = {1: [], 2: []}
    for word in sorted(language(FIB, width)):
        if word[0] != "a":
            continue
        k = _brute_return_time(FIB, word, "a")
        assert k in (1, 2)
        buckets[k].append(cylinder(FIB, word))
    for k in (1, 2):
        assert union_all(FIB, buckets[k]) == rf.cells[k]
    return True, "return cells equal the brute-force oracle on width-12 windows"


CRITERIA = (
    ("factorization", criterion_factorization),
    ("uniqueness", criterion_uniqueness),
    ("index", criterion_index),
    ("odometer-structure", criterion_structure),
    ("lef", criterion_lef),
    ("towers", criterion_towers),
    ("kernel-decomposition", criterion_kernel),
    ("separation", criterion_separation),
    ("first-return", criterion_first_return),
)


def run_all(seed: int = 0, out=print) -> bool:
    ok_all = True
    for k, (name, fn) in enumerate(CRITERIA, start=1):
        try:
            ok, detail = fn(seed)
        except (AssertionError, FullGroupsError) as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        ok_all = ok_all and ok
        out(f"criterion {k} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok_all
