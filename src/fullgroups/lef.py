"""Finite approximations: tower permutation groups and locally
embeddable-into-finite witnesses.

At a deep enough level every element of a finite set F (and every product
of two of them) is a within-tower permutation times a boundary rotation;
dropping the rotation maps F² into the finite group H of per-tower level
permutations. The map is injective on F and multiplicative on F×F, which
is checked pair by pair and recorded in a witness. The odometer structure
report verifies the semidirect shape of the level-n compatible subgroup:
level permutations on top of a free-abelian kernel of induced maps.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property

from .canon import (
    _LEVEL_CAP, PermutationForm, Refusal, _atom_values, _signed_residue, _tower_perm,
    factorize, is_n_permutation, order_exceeds,
)
from .clopen import central_cylinder
from .errors import PreconditionError, VerificationError
from .group import (
    GroupElement,
    commutator,
    compose,
    element_hash,
    embed_symmetric,
    equals,
    identity,
    is_identity,
    make_element,
)
from .systems import SystemSpec, base_point
from .towers import KRPartition, central_level, induced

HElement = tuple  # one one-line permutation per tower


@dataclass(frozen=True)
class FinitePermGroupDesc:
    """The group of within-tower level permutations of one partition."""

    xi: KRPartition
    heights: tuple

    def order(self) -> int:
        n = 1
        for h in self.heights:
            n *= math.factorial(h)
        return n

    def identity(self) -> HElement:
        return tuple(tuple(range(h)) for h in self.heights)

    def contains(self, a: HElement) -> bool:
        return len(a) == len(self.heights) and all(
            sorted(pv) == list(range(h)) for pv, h in zip(a, self.heights)
        )

    def compose(self, a: HElement, b: HElement) -> HElement:
        # matches element composition: b acts first
        return tuple(
            tuple(pa[pb[i]] for i in range(h))
            for pa, pb, h in zip(a, b, self.heights)
        )

    def invert(self, a: HElement) -> HElement:
        out = []
        for pv, h in zip(a, self.heights):
            inv = [0] * h
            for i, j in enumerate(pv):
                inv[j] = i
            out.append(tuple(inv))
        return tuple(out)

    def element_order(self, a: HElement) -> int:
        n = 1
        for pv in a:
            seen = set()
            for start in range(len(pv)):
                if start in seen:
                    continue
                length, j = 0, start
                while j not in seen:
                    seen.add(j)
                    j = pv[j]
                    length += 1
                n = n * length // math.gcd(n, length)
        return n

    def to_form(self, a: HElement) -> PermutationForm:
        return PermutationForm(self.xi, a)


def perm_group(xi: KRPartition) -> FinitePermGroupDesc:
    return FinitePermGroupDesc(xi, tuple(xi.heights()))


@dataclass(frozen=True)
class LEFWitness:
    elements: tuple  # F, canonicalized, identity included
    squares: tuple  # F·F in a fixed order
    level: int
    group: FinitePermGroupDesc
    table: tuple  # (element, HElement) pairs covering squares
    injective: bool
    multiplicative: bool

    @cached_property
    def images(self) -> dict:
        """The table as element -> HElement; a repeated row keeps its first image."""
        images: dict = {}
        for s, h in self.table:
            images.setdefault(s, h)
        return images

    def image(self, s: GroupElement) -> HElement:
        h = self.images.get(s)
        if h is None:
            raise PreconditionError("element outside the witnessed set")
        return h


def _inverse_agreement(desc: FinitePermGroupDesc, a: HElement, d: int) -> bool:
    # every tower's inverse permutation must send each signed band
    # position near the boundary to one common signed position
    inv = desc.invert(a)
    for i in range(-d, d + 1):
        vals = {
            _signed_residue(pv[i % h], h) for pv, h in zip(inv, desc.heights)
        }
        if len(vals) != 1:
            return False
    return True


def lef_map(f_elems, level: int | None = None) -> LEFWitness:
    """Witness that the permutation parts at one level embed F into H.

    The level search accepts the first level where every product of two
    F-members factorizes, their rotations fit in a common boundary band
    whose positions all inverse permutations respect, the towers are tall
    enough to keep signed positions unambiguous, and the resulting table
    is injective on F² and multiplicative on F×F.
    """
    f_list = list(f_elems)
    if not f_list:
        raise PreconditionError("F must be nonempty")
    spec = f_list[0].spec
    ident = identity(spec)
    # GroupElement equality is `equals`; dict keys keep the first of each
    f_set = list(dict.fromkeys([ident] + f_list))
    squares = list(dict.fromkeys(compose(s, t) for s in f_set for t in f_set))
    levels = [level] if level is not None else range(1, _LEVEL_CAP + 1)
    for n in levels:
        w = _witness_at(spec, tuple(f_set), tuple(squares), n)
        if w is not None:
            return w
    if level is not None:
        raise PreconditionError(f"level {level} does not support a witness for F")
    raise VerificationError(f"witness level search exceeded _LEVEL_CAP = {_LEVEL_CAP}")


def _witness_at(spec, f_set, squares, n) -> LEFWitness | None:
    facs = []
    for s in squares:
        try:
            facs.append(factorize(s, level=n))
        except PreconditionError:
            return None
    xi = facs[0].xi
    desc = perm_group(xi)
    d = 0
    q = 0
    for fac in facs:
        su, sd = fac.rotation.supportive_sets()
        d = max([d] + [i + 1 for i in su] + [j + 1 for j in sd])
        q = max(q, fac.n0)
    if min(desc.heights) <= 2 * (d + q):
        return None
    table = tuple((s, fac.permutation.perms) for s, fac in zip(squares, facs))
    if not all(_inverse_agreement(desc, h, d) for _, h in table):
        return None
    images = dict(table)
    injective = len(set(images.values())) == len(images)
    multiplicative = all(
        desc.compose(images[s], images[t]) == images[compose(s, t)]
        for s in f_set for t in f_set
    )
    if not (injective and multiplicative):
        return None
    return LEFWitness(
        f_set, squares, n, desc, table, injective, multiplicative
    )


@dataclass(frozen=True)
class LEFReport:
    ok: bool
    lines: tuple

    def text(self) -> str:
        return "\n".join(self.lines)


def verify_lef(w: LEFWitness) -> LEFReport:
    """Re-check injectivity on F and multiplicativity on F×F pair by pair,
    after checking that every table image is a level permutation of H."""
    desc = w.group
    outside = [s for s, h in w.table if not desc.contains(h)]
    if outside:
        heights = ",".join(str(h) for h in desc.heights)
        return LEFReport(False, tuple(
            f"image of {element_hash(s)} in H (tower heights {heights}): FAIL" for s in outside
        ))
    lines = []
    ok = True
    for i, s in enumerate(w.squares):
        for t in w.squares[i + 1:]:
            distinct = w.image(s) != w.image(t)
            ok = ok and distinct
            lines.append(
                f"distinct {element_hash(s)} {element_hash(t)}: "
                f"{'ok' if distinct else 'FAIL'}"
            )
    for s in w.elements:
        for t in w.elements:
            # a member or product missing from the table fails its line
            hs, ht, hst = (w.images.get(u) for u in (s, t, compose(s, t)))
            good = None not in (hs, ht, hst) and desc.compose(hs, ht) == hst
            ok = ok and good
            lines.append(
                f"product {element_hash(s)}*{element_hash(t)}: "
                f"{'ok' if good else 'FAIL'}"
            )
    return LEFReport(ok, tuple(lines))


@dataclass(frozen=True)
class StructureReport:
    n: int
    height: int
    transpositions: int
    kernel_commutes: bool
    kernel_order_bound: int
    tuples_checked: int
    tuples_distinct: bool
    tuples_add: bool
    samples: int
    unique_factorization: bool
    ok: bool
    lines: tuple

    def text(self) -> str:
        return "\n".join(self.lines)


def _kernel_element(spec, xi: KRPartition, exps) -> GroupElement:
    m = xi.heights()[0]
    pieces = [(xi.atom(0, i), e * m) for i, e in enumerate(exps) if e != 0]
    rest = [xi.atom(0, i) for i, e in enumerate(exps) if e == 0]
    for a in rest:
        pieces.append((a, 0))
    return make_element(spec, pieces)


def structure_partition(spec: SystemSpec, n: int) -> KRPartition:
    """Towers over the size-n central cylinder of the primary point; one on an odometer."""
    x, _ = base_point(spec, "primary")
    return central_level(spec, central_cylinder(spec, x, n), index=n)


def structure_decompose(s: GroupElement, xi: KRPartition):
    """Unique split of a level-compatible element into a level permutation
    and a kernel exponent tuple (applied kernel first)."""
    m = xi.heights()[0]
    f_atoms = _atom_values(s, xi)
    perm = None if isinstance(f_atoms, tuple) else _tower_perm(f_atoms[0], m)
    if perm is None:
        raise PreconditionError("element is not compatible with the partition")
    return perm, tuple((i + f - perm[i]) // m for i, f in enumerate(f_atoms[0]))


def odometer_structure(
    spec: SystemSpec,
    n: int,
    seed: int = 0,
    samples: int = 50,
    radius: int = 5,
    order_bound: int = 64,
) -> StructureReport:
    """Desk-scale verification of the level-n semidirect structure of an
    odometer: realized transpositions on top of a free-abelian kernel of
    induced maps, with unique permutation-kernel factorization."""
    if spec.kind != "odometer":
        raise PreconditionError("structure report is for odometers")
    if n < 1:
        raise PreconditionError("levels are numbered from 1")
    xi = structure_partition(spec, n)
    m = xi.heights()[0]
    x, _ = base_point(spec, "primary")
    lines = [f"level n={n} tower height={m}"]

    realized = 0
    for i in range(m - 1):
        s = embed_symmetric(spec, 2, (1, 0), xi.atom(0, i))
        form = is_n_permutation(s, xi)
        want = tuple(
            i + 1 if j == i else i if j == i + 1 else j for j in range(m)
        )
        if isinstance(form, Refusal) or form.perms[0] != want:
            raise VerificationError(f"transposition ({i} {i + 1}) not realized")
        realized += 1
    lines.append(f"transpositions realized: {realized} of {m - 1}")

    gens = [induced(spec, xi.atom(0, i)) for i in range(m)]
    commutes = all(
        is_identity(commutator(gens[i], gens[j]))
        for i in range(m)
        for j in range(i + 1, m)
    )
    lines.append(f"kernel generators commute: {'ok' if commutes else 'FAIL'}")
    escapes = all(
        order_exceeds(gens[i], order_bound, x.shifted(i)) for i in range(m)
    )
    lines.append(
        f"kernel generator order exceeds {order_bound}: {'ok' if escapes else 'FAIL'}"
    )

    rng = random.Random(seed)
    tuples = {tuple(0 for _ in range(m)), (1,) + (0,) * (m - 1), (0, 1) + (0,) * (m - 2)}
    want = min(samples, (2 * radius + 1) ** m)
    while len(tuples) < want:
        tuples.add(tuple(rng.randint(-radius, radius) for _ in range(m)))
    tuples = sorted(tuples)
    built = {t: _kernel_element(spec, xi, t) for t in tuples}
    distinct = True
    for i, t1 in enumerate(tuples):
        for t2 in tuples[i + 1:]:
            if equals(built[t1], built[t2]):
                distinct = False
    nonzero_ok = all(
        is_identity(built[t]) == all(e == 0 for e in t) for t in tuples
    )
    distinct = distinct and nonzero_ok
    adds = all(
        equals(
            compose(built[t1], built[t2]),
            _kernel_element(spec, xi, tuple(a + b for a, b in zip(t1, t2))),
        )
        for t1, t2 in zip(tuples, reversed(tuples))
    )
    lines.append(f"exponent tuples checked: {len(tuples)}")
    lines.append(f"tuples pairwise distinct: {'ok' if distinct else 'FAIL'}")
    lines.append(f"tuples add under composition: {'ok' if adds else 'FAIL'}")

    unique = True
    for _ in range(samples):
        perm = list(range(m))
        rng.shuffle(perm)
        exps = tuple(rng.randint(-2, 2) for _ in range(m))
        p_elem = PermutationForm(xi, (tuple(perm),)).to_element()
        s = compose(p_elem, built.get(exps) or _kernel_element(spec, xi, exps))
        got_perm, got_exps = structure_decompose(s, xi)
        if got_perm != tuple(perm) or got_exps != exps:
            unique = False
    lines.append(
        f"unique permutation-kernel factorization on {samples} samples: "
        f"{'ok' if unique else 'FAIL'}"
    )

    ok = commutes and escapes and distinct and adds and unique and realized == m - 1
    lines.append(f"structure: {'ok' if ok else 'FAIL'}")
    return StructureReport(
        n,
        m,
        realized,
        commutes,
        order_bound,
        len(tuples),
        distinct,
        adds,
        samples,
        unique,
        ok,
        tuple(lines),
    )
