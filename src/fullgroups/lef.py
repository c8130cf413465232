"""Finite approximations: tower permutation groups and locally
embeddable-into-finite witnesses.

At a deep enough level every element of a finite set F (and every product
of two of them) is a within-tower permutation times a boundary rotation;
dropping the rotation maps F² into the finite group H of per-tower level
permutations. The map is injective on F and multiplicative on F×F, which
is checked pair by pair before a witness is returned. The odometer structure
report verifies the semidirect shape of the level-n compatible subgroup:
level permutations on top of a free-abelian kernel of induced maps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

from .canon import (
    PermutationForm, Refusal, _atom_values, _bands_agree, _factor_at, _tower_perms,
    is_n_permutation, order_exceeds, search_levels,
)
from .clopen import central_cylinder
from .errors import PreconditionError, VerificationError
from .group import (
    GroupElement,
    commutator,
    compose,
    element_hash,
    equals,
    identity,
    is_identity,
    is_permutation,
    make_element,
    swaps,
)
from .systems import SystemSpec, base_point
from .towers import KRPartition, central_level, induced, tower_sequence

HElement = tuple  # one one-line permutation per tower

# The structure report's fixed scale: kernel exponents drawn from
# [-_EXPONENT_RADIUS, _EXPONENT_RADIUS], generator orders refuted up to _ORDER_BOUND,
# and _SAMPLES exponent tuples and permutation-kernel products checked.
_EXPONENT_RADIUS = 5
_ORDER_BOUND = 64
_SAMPLES = 50


@dataclass(frozen=True)
class FinitePermGroupDesc:
    """The group of within-tower level permutations of one partition."""

    heights: tuple

    def contains(self, a: HElement) -> bool:
        return len(a) == len(self.heights) and all(map(is_permutation, a, self.heights))

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


def perm_group(xi: KRPartition) -> FinitePermGroupDesc:
    return FinitePermGroupDesc(tuple(xi.heights()))


@dataclass(frozen=True)
class LEFWitness:
    elements: tuple  # F, canonicalized, identity included
    level: int
    group: FinitePermGroupDesc
    table: tuple  # (element, HElement) rows, one per member of F·F in a fixed order

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
    # GroupElement equality is `equals`; dict keys keep the first of each
    f_set = tuple(dict.fromkeys([identity(f_list[0].spec)] + f_list))
    squares = tuple(dict.fromkeys(compose(s, t) for s in f_set for t in f_set))
    return search_levels(lambda n: _witness_at(f_set, squares, n), level, "witness")[1]


def _witness_at(f_set, squares, n):
    """The witness at level n, or a Refusal naming the first rule it breaks."""
    seq = tower_sequence(f_set[0].spec)
    facs = []
    for s in squares:
        fac = _factor_at(s, seq, n)
        if not fac:
            return Refusal(f"a product of F does not factorize ({fac.reason})")
        facs.append(fac)
    desc = perm_group(facs[0].xi)
    # d is one past the widest rotation band of any product
    bands = [i for fac in facs for i, _ in fac.rotation.u_levels + fac.rotation.d_levels]
    d = max(bands, default=-1) + 1
    q = max(fac.n0 for fac in facs)
    if min(desc.heights) <= 2 * (d + q):
        return Refusal(f"a tower of height {min(desc.heights)} is too short for d = {d}, n0 = {q}")
    table = tuple((s, fac.permutation.perms) for s, fac in zip(squares, facs))
    # every tower's inverse permutation must send each signed band
    # position near the boundary to one common signed position
    if not all(_bands_agree(desc.invert(h), desc.heights, d) for _, h in table):
        return Refusal(f"inverse permutations disagree on the bands up to {d}")
    w = LEFWitness(f_set, n, desc, table)
    return w if verify_lef(w).ok else Refusal("verify_lef refuses the table")


@dataclass(frozen=True)
class Report:
    """A verdict and the lines that state each check behind it."""

    ok: bool
    lines: tuple

    def text(self) -> str:
        return "\n".join(self.lines)


def verify_lef(w: LEFWitness) -> Report:
    """Re-check injectivity on F and multiplicativity on F×F pair by pair,
    after checking that every table image is a level permutation of H."""
    desc = w.group
    names = {s: element_hash(s) for s in (*w.elements, *w.images)}
    outside = [s for s, h in w.table if not desc.contains(h)]
    if outside:
        heights = ",".join(str(h) for h in desc.heights)
        return Report(False, tuple(
            f"image of {names[s]} in H (tower heights {heights}): FAIL" for s in outside
        ))
    lines = []
    ok = True
    rows = [s for s, _ in w.table]
    for i, s in enumerate(rows):
        for t in rows[i + 1:]:
            distinct = w.image(s) != w.image(t)
            ok = ok and distinct
            lines.append(f"distinct {names[s]} {names[t]}: {'ok' if distinct else 'FAIL'}")
    for s in w.elements:
        for t in w.elements:
            # a member or product missing from the table fails its line
            hs, ht, hst = (w.images.get(u) for u in (s, t, compose(s, t)))
            good = None not in (hs, ht, hst) and desc.compose(hs, ht) == hst
            ok = ok and good
            lines.append(f"product {names[s]}*{names[t]}: {'ok' if good else 'FAIL'}")
    return Report(ok, tuple(lines))


def _kernel_element(spec, xi: KRPartition, exps) -> GroupElement:
    m = xi.heights()[0]
    return make_element(spec, [(xi.atom(0, i), e * m) for i, e in enumerate(exps)])


def structure_partition(spec: SystemSpec, n: int) -> KRPartition:
    """Towers over the size-n central cylinder of the primary point; one on an odometer."""
    x, _ = base_point(spec, "primary")
    return central_level(spec, central_cylinder(spec, x, n))


def structure_decompose(s: GroupElement, xi: KRPartition):
    """Unique split of a level-compatible element into a level permutation
    and a kernel exponent tuple (applied kernel first)."""
    m = xi.heights()[0]
    f_atoms = _atom_values(s, xi)
    perms = f_atoms and _tower_perms(f_atoms, xi)
    if not perms:
        raise PreconditionError(f"element is not compatible with the partition: {perms.reason}")
    return perms[0], tuple((i + f - perms[0][i]) // m for i, f in enumerate(f_atoms[0]))


def odometer_structure(spec: SystemSpec, n: int, seed: int = 0) -> Report:
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
        s = swaps(spec, [(xi.atom(0, i), 1)])
        form = is_n_permutation(s, xi)
        want = tuple(
            i + 1 if j == i else i if j == i + 1 else j for j in range(m)
        )
        if not form or form.perms[0] != want:
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
        order_exceeds(gens[i], _ORDER_BOUND, x.shifted(i)) for i in range(m)
    )
    lines.append(
        f"kernel generator order exceeds {_ORDER_BOUND}: {'ok' if escapes else 'FAIL'}"
    )

    rng = random.Random(seed)
    tuples = {tuple(0 for _ in range(m)), (1,) + (0,) * (m - 1), (0, 1) + (0,) * (m - 2)}
    want = min(_SAMPLES, (2 * _EXPONENT_RADIUS + 1) ** m)
    while len(tuples) < want:
        tuples.add(tuple(rng.randint(-_EXPONENT_RADIUS, _EXPONENT_RADIUS) for _ in range(m)))
    tuples = sorted(tuples)
    built = {t: _kernel_element(spec, xi, t) for t in tuples}
    # canonical elements hash and compare by value, so equal ones collapse
    distinct = len(set(built.values())) == len(tuples)
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
    for _ in range(_SAMPLES):
        perm = list(range(m))
        rng.shuffle(perm)
        exps = tuple(rng.randint(-2, 2) for _ in range(m))
        p_elem = PermutationForm(xi, (tuple(perm),)).to_element()
        s = compose(p_elem, built.get(exps) or _kernel_element(spec, xi, exps))
        got_perm, got_exps = structure_decompose(s, xi)
        if got_perm != tuple(perm) or got_exps != exps:
            unique = False
    lines.append(
        f"unique permutation-kernel factorization on {_SAMPLES} samples: "
        f"{'ok' if unique else 'FAIL'}"
    )

    ok = commutes and escapes and distinct and adds and unique and realized == m - 1
    lines.append(f"structure: {'ok' if ok else 'FAIL'}")
    return Report(ok, tuple(lines))
