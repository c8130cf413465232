"""Permutation and rotation canonical forms over tower partitions.

Every group element splits, at a deep enough tower level, into a
within-tower permutation P and a boundary rotation R with Q = P∘R. The
rotation is a product of induced maps on the bands near the tower tops
and bottoms with exponents +-1; its supportive sets equal the orbit
crossing counts past the anchor, which is how the index homomorphism is
cross-checked. Index-0 elements split further into two forward-orbit
stabilizer members, and every nonempty clopen set supports an order-3
commutator witness moving a designated point.

`factorize` checks Q = P∘R on the level's tables, not on elements: one
equation per atom off the rotation bands and one per band, over all
towers at once, stated in `_check_factorization`, the only place that
knows the band maps' closed form. It needs no tower graph: T maps the
tops onto the bases, so every tower has a successor and a predecessor.
Composing `PermutationForm.to_element()` with `RotationForm.to_element()`
stays as the independent oracle in the tests and in `selftest`: its band
maps are `towers.induced` first returns, read off words.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .clopen import ClopenSet, central_cylinder
from .errors import PreconditionError, VerificationError
from .group import (
    GroupElement,
    _build,
    cocycle_at,
    cocycle_bound,
    commutator,
    compose,
    first_overlap,
    identity,
    invert,
    is_identity,
    is_permutation,
    ladder_sizes,
    support,
    swaps,
)
from .systems import PointRep, SystemSpec, base_point
from .towers import KRPartition, first_return, induced, tower_sequence

_LEVEL_CAP = 24


@dataclass(frozen=True)
class Refusal:
    """Falsy answer of a recognizer or level reader: the rule it found broken."""

    reason: str

    def __bool__(self) -> bool:
        return False


def search_levels(attempt, level: int | None, what: str):
    """(n, answer) for the first level n whose attempt(n) answer is truthy.

    A fixed level is the only one tried, and its Refusal raises a
    PreconditionError naming the reason; auto mode tries 1, 2, ...,
    _LEVEL_CAP and then raises a VerificationError naming the cap.
    """
    for n in [level] if level is not None else range(1, _LEVEL_CAP + 1):
        answer = attempt(n)
        if answer:
            return n, answer
    if level is not None:
        raise PreconditionError(f"no {what} at level {level}: {answer.reason}")
    raise VerificationError(f"{what} level search exceeded _LEVEL_CAP = {_LEVEL_CAP}")


@dataclass(frozen=True)
class PermutationForm:
    """Within-tower level permutations, one per tower of the partition."""

    xi: KRPartition
    perms: tuple  # per tower v, a one-line permutation of range(h_v)

    def to_element(self) -> GroupElement:
        raw = []
        for v, (b, h) in enumerate(self.xi.towers):
            pv = self.perms[v]
            for i in range(h):
                raw.append((pv[i] - i, self.xi.atom(v, i)))
        return _build(self.xi.spec, raw, validate=False)


@dataclass(frozen=True)
class RotationForm:
    """Product of induced maps on boundary bands with integer exponents."""

    xi: KRPartition
    u_levels: tuple  # sorted (band index, exponent), exponents nonzero
    d_levels: tuple

    def supportive_sets(self) -> tuple[frozenset, frozenset]:
        return (
            frozenset(i for i, _ in self.u_levels),
            frozenset(j for j, _ in self.d_levels),
        )

    def to_element(self) -> GroupElement:
        out = identity(self.xi.spec)
        for band_of, levels in ((self.xi.u_set, self.u_levels), (self.xi.d_set, self.d_levels)):
            for i, e in levels:
                gen = induced(self.xi.spec, band_of(i))
                step = gen if e > 0 else invert(gen)
                for _ in range(abs(e)):
                    out = compose(out, step)
        return out

    def is_trivial(self) -> bool:
        return not self.u_levels and not self.d_levels


@dataclass(frozen=True)
class Factorization:
    element: GroupElement
    level: int
    n0: int
    permutation: PermutationForm
    rotation: RotationForm

    @property
    def xi(self) -> KRPartition:
        return self.permutation.xi


def _atom_values(q_elem: GroupElement, xi: KRPartition):
    """Q's power on each atom, tower by tower, or a Refusal naming the
    first atom (v, i) where it is not constant."""
    f_atoms = []
    for v, row in enumerate(xi.cocycle_rows(q_elem)):
        if None in row:
            return Refusal(f"cocycle is not constant on atom ({v}, {row.index(None)})")
        f_atoms.append(row)
    return f_atoms


def _tower_perms(f_atoms, xi: KRPartition):
    """Per tower, the level map i -> (i + f_atoms[v][i]) mod h_v, or a
    Refusal naming the first tower where two levels collide."""
    perms = []
    for v, (f_row, h) in enumerate(zip(f_atoms, xi.heights())):
        perms.append(tuple((i + f) % h for i, f in enumerate(f_row)))
        if not is_permutation(perms[-1], h):
            return Refusal(f"levels collide inside tower {v}")
    return perms


def is_n_permutation(s: GroupElement, xi: KRPartition):
    """PermutationForm when s permutes atoms within each tower, else Refusal."""
    f_atoms = _atom_values(s, xi)
    if not f_atoms:
        return f_atoms
    for v, (h, f_row) in enumerate(zip(xi.heights(), f_atoms)):
        for i, f in enumerate(f_row):
            if not 0 <= i + f < h:
                return Refusal(f"atom ({v}, {i}) leaves its tower")
    perms = _tower_perms(f_atoms, xi)
    return perms and PermutationForm(xi, tuple(perms))


def is_n_rotation(s: GroupElement, xi: KRPartition):
    """RotationForm when s is a product of band-induced-map powers, else Refusal.

    Each band s moves is peeled off with its own induced map; what is left
    is RotationForm.to_element()^-1∘s, and s is accepted iff it is the identity.
    """
    min_h = min(xi.heights())
    r_max = cocycle_bound(s) // min_h + 1
    supp = support(s)
    rest = s
    u_levels, d_levels = [], []
    for band_of, levels in ((xi.u_set, u_levels), (xi.d_set, d_levels)):
        for i in range(min_h // 2):
            band = band_of(i)
            if supp.disjoint(band):
                continue
            peeled = _peel(rest, induced(xi.spec, band), band, r_max)
            if peeled is None:
                return Refusal("no band exponent matches")
            rest, e = peeled
            levels.append((i, e))
    if not is_identity(rest):
        return Refusal("support extends past the boundary bands")
    return RotationForm(xi, tuple(u_levels), tuple(d_levels))


def _peel(rest: GroupElement, gen: GroupElement, band: ClopenSet, r_max: int):
    """(gen^-e∘rest, e) for the first e of ±1, ..., ±r_max at which
    gen^-e∘rest fixes every point of the band, or None."""
    up, down, inv = rest, rest, invert(gen)
    for e in range(1, r_max + 1):
        up, down = compose(inv, up), compose(gen, down)
        for stepped, exp in ((up, e), (down, -e)):
            if all(n == 0 or c.disjoint(band) for n, c in stepped.pieces):
                return stepped, exp
    return None


def _level_data(q_elem: GroupElement, xi: KRPartition, q: int):
    """Cocycle tables for one level, or a Refusal naming the first rule broken.

    Valid means: bandwidth covers the cocycle bound, the cocycle is
    constant on every atom and on every band T^i(base) for i in
    [-m-1, m], and the induced level maps are within-tower bijections
    after reduction mod height. The atom values come from one lazy pass
    of `KRPartition.cocycle_rows`, so a level is rejected at the first
    atom where the cocycle is not constant.
    """
    m = xi.band
    if q > m:
        return Refusal(f"band half-width m = {m} is below q = {q}")
    f_atoms = _atom_values(q_elem, xi)
    if not f_atoms:
        return f_atoms
    f_bands = {}
    for i in range(-m - 1, m + 1):
        vals = {f_row[i] for f_row in f_atoms}
        if len(vals) != 1:
            return Refusal(f"cocycle is not constant on band {i}")
        f_bands[i] = vals.pop()
    perms = _tower_perms(f_atoms, xi)
    return perms and (f_atoms, f_bands, perms)


# Keyed by caller input, so this is the one bounded cache: selftest leaves
# 209 entries and a factor-odometer trial at most 350 distinct elements.
_FACT_CACHE_SIZE = 1024


@lru_cache(maxsize=_FACT_CACHE_SIZE)
def factorize(q_elem: GroupElement, level: int | None = None) -> Factorization:
    """Split Q = P∘R over the tower sequence of the primary point.

    Auto mode returns the smallest valid level; a fixed level the level
    data refuses is a precondition error naming the refusal. Q = P∘R is
    checked exactly on the level's tables before returning.
    """
    seq = tower_sequence(q_elem.spec)
    return search_levels(lambda n: _factor_at(q_elem, seq, n), level, "factorization")[1]


def _factor_at(q_elem: GroupElement, seq, n: int):
    """The checked factorization of Q at level n of seq, or the Refusal of its level data."""
    xi = seq.level(n)
    q = cocycle_bound(q_elem)
    data = _level_data(q_elem, xi, q)
    if not data:
        return data
    f_atoms, f_bands, perms = data
    s_u = tuple((a, 1) for a in range(q) if f_bands[-(a + 1)] >= a + 1)
    s_d = tuple((b, -1) for b in range(q) if f_bands[b] <= -(b + 1))
    p_form = PermutationForm(xi, tuple(perms))
    r_form = RotationForm(xi, s_u, s_d)
    fac = Factorization(q_elem, n, max(q, n), p_form, r_form)
    _check_factorization(fac, f_atoms)
    return fac


def _check_factorization(fac: Factorization, f_atoms: list | None = None) -> None:
    """Exact check of Q = P∘R and of the form's postconditions, on the level's tables.

    f_atoms[v][i] is Q's power on atom T^i(B_v), read from Q when not
    given. R = id off its bands; on U band a with exponent +1 it moves
    level h_v-1-a of tower v to level h_w-1-a of the tower w that the
    orbit enters next, a power h_w, and on D band b with exponent -1 it
    moves level b of w to level b of the tower v it came from, a power
    -h_v. The checks, one per atom off the bands and one per band:

    - off the active bands, f_atoms[v][i] == perms[v][i] - i;
    - on U band a, the set {f_atoms[v][h_v-1-a]} ∪
      {perms[w][h_w-1-a] + a + 1} over all towers v, w holds one value;
    - on D band b, the set {f_atoms[w][b]} ∪ {perms[v][b] - b - h_v}
      over all towers v, w holds one value.

    This is the per-cell equation, for every pair (v, w) of a tower and
    the next one, plus one more condition: Q takes one power on each
    active band. `_level_data` requires that on every band in [-m-1, m],
    so nothing `factorize` or the LEF search returns is refused for it.
    Given that condition the two are equal: T maps the tops onto the
    bases, so every tower has a successor and a predecessor, and each
    term of the set meets the one power of Q in some pair's equation.
    So no tower graph is built. The cells partition X, so this is exact;
    powers are compared as integers, since a check mod h_v would accept
    an atom that wraps once round its tower. Any other exponent is
    refused.
    """
    xi = fac.xi
    heights = xi.heights()
    perms = fac.permutation.perms
    if f_atoms is None:
        f_atoms = _atom_values(fac.element, xi)
        if not f_atoms:
            raise VerificationError(f"Q's {f_atoms.reason}")
    if not all(map(is_permutation, perms, heights)):
        raise VerificationError("P is not a within-tower permutation")
    up = dict(fac.rotation.u_levels)
    down = dict(fac.rotation.d_levels)
    if len(up) != len(fac.rotation.u_levels) or len(down) != len(fac.rotation.d_levels):
        raise VerificationError("a band appears twice in the rotation")
    if any(e != 1 for e in up.values()) or any(e != -1 for e in down.values()):
        raise VerificationError("rotation exponent is not +1 on a U band or -1 on a D band")
    if any(not 0 <= i < fac.n0 for i in (*up, *down)):
        raise VerificationError("supportive set outside [0, n0)")
    if any(2 * i >= min(heights) for i in (*up, *down)):
        raise VerificationError("a rotation band exceeds the shortest tower")
    if any(h - 1 - a in down for a in up for h in heights):
        raise VerificationError("a U band and a D band share an atom")
    for v, h in enumerate(heights):
        fv, pv = f_atoms[v], perms[v]
        for i in range(h):
            if h - 1 - i not in up and i not in down and fv[i] != pv[i] - i:
                raise VerificationError(f"P∘R does not reproduce Q on atom ({v}, {i})")
            d = abs(pv[i] - i)
            if min(d, h - d) > fac.n0:
                raise VerificationError("displacement exceeds n0")
    rows = list(zip(f_atoms, perms, heights))
    for a in up:
        if len({x for f, p, h in rows for x in (f[h - 1 - a], p[h - 1 - a] + a + 1)}) != 1:
            raise VerificationError(f"P∘R does not reproduce Q on U band {a}")
    for b in down:
        if len({x for f, p, h in rows for x in (f[b], p[b] - b - h)}) != 1:
            raise VerificationError(f"P∘R does not reproduce Q on D band {b}")
    displacements = [[p - i for i, p in enumerate(pv)] for pv in perms]
    if not _bands_agree(displacements, heights, xi.band):
        raise VerificationError("band permutation disagrees across towers")


def _bands_agree(rows, heights, d: int) -> bool:
    """True when, for each i in [-d, d], the towers' rows agree at signed
    position i: rows[v][i mod h_v] is one signed residue mod h_v for all v."""
    for i in range(-d, d + 1):
        if len({_signed_residue(row[i % h], h) for row, h in zip(rows, heights)}) != 1:
            return False
    return True


def _signed_residue(r: int, h: int) -> int:
    r %= h
    return r if 2 * r <= h else r - h


def order_exceeds(s: GroupElement, bound: int, z: PointRep) -> bool:
    """True when the displacements of z under s, s², ..., s^bound are all
    nonzero, refuting every order up to the bound. False is inconclusive."""
    n = 0
    for _ in range(bound):
        n += cocycle_at(s, z.shifted(n))
        if n == 0:
            return False
    return True


def rotation_escapes(fac: Factorization, bound: int) -> bool:
    """Refute order <= bound for a nontrivial rotation part.

    Each supportive band carries an anchor orbit point, and the band's
    induced map moves it strictly in one direction, so the pointwise
    check always concludes.
    """
    if fac.rotation.is_trivial():
        raise PreconditionError("the rotation part is trivial")
    x, _ = base_point(fac.element.spec, "primary")
    if fac.rotation.u_levels:
        a, _ = fac.rotation.u_levels[0]
        z = x.shifted(-(a + 1))
    else:
        b, _ = fac.rotation.d_levels[0]
        z = x.shifted(b)
    return order_exceeds(fac.rotation.to_element(), bound, z)


def _crossings(q_elem: GroupElement, x: PointRep) -> tuple[list[int], list[int]]:
    """Orbit offsets of x that Q moves across the anchor, in one scan.

    n + f(T^n x) is read once for each n in [-q, q); the first list holds
    the n < 0 that land at or past x, the second the n >= 0 that land
    before it.
    """
    q = cocycle_bound(q_elem)
    i_minus, i_plus = [], []
    for n in range(-q, q):
        lands = n + cocycle_at(q_elem, x.shifted(n))
        if n < 0 <= lands:
            i_minus.append(n)
        elif lands < 0 <= n:
            i_plus.append(n)
    return i_minus, i_plus


def orbit_counts(q_elem: GroupElement, x: PointRep) -> tuple[int, int]:
    """Orbit crossing counts (a, b) of Q past the point x."""
    i_minus, i_plus = _crossings(q_elem, x)
    return len(i_minus), len(i_plus)


def index(q_elem: GroupElement) -> int:
    """Index homomorphism value a(Q) - b(Q), cross-checked two ways."""
    x, _ = base_point(q_elem.spec, "primary")
    a, b = orbit_counts(q_elem, x)
    s_u, s_d = factorize(q_elem).rotation.supportive_sets()
    if (a, b) != (len(s_u), len(s_d)):
        raise VerificationError("orbit counts disagree with the rotation levels")
    return a - b


def in_stabilizer(q_elem: GroupElement, x: PointRep | None = None) -> bool:
    """True iff Q preserves the forward orbit of x.

    Equivalent to the rotation part of the x-anchored factorization being
    trivial: the bands at a valid level carry the orbit points T^n(x) for
    |n| <= cocycle bound, so the supportive sets have exactly the crossing
    counts as sizes. The crossing counts are what is computed.
    """
    if x is None:
        x, _ = base_point(q_elem.spec, "primary")
    return orbit_counts(q_elem, x) == (0, 0)


def kernel_decompose(
    q_elem: GroupElement,
    x: PointRep | None = None,
    y: PointRep | None = None,
) -> tuple[GroupElement, GroupElement]:
    """Split an index-0 element as Q = P1∘P2 with P1, P2 in the stabilizers
    of the forward orbits of x and y.

    P2 is an involution: matched swap pairs carry the orbit points that Q
    moves across the anchor, duplicated over Y = C ∪ T^p(C) so that P2 is
    a product of two isomorphic involutions (hence a commutator with T^p).
    """
    spec = q_elem.spec
    if x is None:
        x, _ = base_point(spec, "primary")
    if y is None:
        y, _ = base_point(spec, "alternate")
    if not x.certified_apart(y):
        raise PreconditionError(
            "cannot certify the two anchor orbits are distinct: subshift points carry no "
            "orbit certificate, and two odometer points need exactly one eventually constant"
        )
    i_minus, i_plus = _crossings(q_elem, x)
    if len(i_minus) != len(i_plus):
        raise PreconditionError(f"index is {len(i_minus) - len(i_plus)}, decomposition needs 0")
    q = cocycle_bound(q_elem)
    if not i_minus:
        # no crossings: Q already stabilizes the forward orbit of x
        return q_elem, identity(spec)
    p_floor = -min(i_minus)
    c, p = _find_swap_site(spec, x, y, q, p_floor)
    blocks = []
    for n_minus, n_plus in zip(i_minus, i_plus):
        for off in (0, p):
            blocks.append((c.translate(n_minus + off), n_plus - n_minus))
    p2 = swaps(spec, blocks)
    p1 = compose(q_elem, invert(p2))
    if not in_stabilizer(p1, x):
        raise VerificationError("P1 failed the x-stabilizer check")
    if not in_stabilizer(p2, y):
        raise VerificationError("P2 failed the y-stabilizer check")
    return p1, p2


def _find_swap_site(spec, x, y, q: int, p_floor: int):
    """Smallest central cylinder C at x and shift p making all swap blocks
    pairwise disjoint and keeping y clear of them.

    With Y = C ∪ T^p(C), Y meets T^k(Y) iff C meets T^m(C) for some m in
    {k, p + k, |p - k|}. At k = p that m is 0, so p > 2q; then m = p (C
    against T^p(C)) and the m of every k in [1, 2q] fill [1, p + 2q], as
    p <= 4q. So the first offset m in [1, 6q] where C meets its translate
    bounds p below m - 2q, and p is tried in the order of the p-by-k search.
    """
    for depth in ladder_sizes(1, "swap site"):
        c = central_cylinder(spec, x, depth)
        m = first_overlap(c, range(1, 6 * q + 1)) or 6 * q + 1
        for p in range(max(p_floor, 2 * q + 1), m - 2 * q):
            yset = c.union(c.translate(p))
            if any(
                yset.contains_point(y.shifted(-j)) for j in range(-q, q + 1)
            ):
                continue
            return c, p


def separation_parts(
    spec: SystemSpec, o: ClopenSet, x: PointRep
) -> tuple[GroupElement, GroupElement]:
    """Two block transpositions along the induced map of O whose commutator
    is an order-3 element supported in O and moving x."""
    if o.is_empty():
        raise PreconditionError("witness region must be nonempty")
    if not o.contains_point(x):
        raise PreconditionError("the point must lie inside the witness region")
    rf = first_return(spec, o)
    for depth in ladder_sizes(1, "block system"):
        u = central_cylinder(spec, x, depth).intersect(o)
        if not u.contains_point(x):
            continue
        k = _cell_time(rf, u)
        if k is None:
            continue
        j = _cell_time(rf, u.translate(k))
        if j is None:
            continue
        if first_overlap(u, (k, j, k + j)) is None:
            return swaps(spec, [(u, k)]), swaps(spec, [(u.translate(k), j)])


def _cell_time(rf, u: ClopenSet) -> int | None:
    for k, cell in rf.cells.items():
        if u.subset(cell):
            return k
    return None


def separation_witness(spec: SystemSpec, o: ClopenSet, x: PointRep) -> GroupElement:
    """Commutator of the two block transpositions: order 3, supported in O,
    moving x."""
    sigma, tau = separation_parts(spec, o, x)
    g = commutator(tau, sigma)
    if not support(g).subset(o):
        raise VerificationError("witness support leaks outside O")
    if cocycle_at(g, x) == 0:
        raise VerificationError("witness fixes the designated point")
    return g
