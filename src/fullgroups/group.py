"""Group elements: homeomorphisms acting as powers of T on a clopen partition.

An element S is stored as its orbit cocycle f_S, a finite partition of the
space into clopen pieces with an integer power per piece: S = T^n on piece
C_n. Canonical form merges pieces by power, so two elements are equal iff
their canonical forms coincide. Composition follows
f_{S1 S2}(x) = f_{S2}(x) + f_{S1}(S2 x).

`_build` merges the raw pieces of one power in one step: their masks are
OR-ed on the widest of their windows and the union is canonicalized once.
Canonical forms are unique, so this equals a fold of pairwise unions.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cache

from .clopen import (
    ClopenSet,
    _expand_words,
    central_cylinder,
    check_partition,
    cylinder,
    empty,
    full,
    union_all,
)
from .errors import NotPartitionError, PreconditionError
from .systems import SystemSpec, PointRep, base_point, language

# Largest ladder size the cylinder searches here, and canon's, try.
_DEPTH_CAP = 64


@dataclass(frozen=True)
class GroupElement:
    """Element of the topological full group over its system."""

    spec: SystemSpec
    pieces: tuple[tuple[int, ClopenSet], ...]  # sorted by power, merged, disjoint, covering

    def cocycle_values(self) -> list[int]:
        return [n for n, _ in self.pieces]

    def __repr__(self):
        return f"GroupElement({len(self.pieces)} pieces, powers {self.cocycle_values()})"


def _build(spec: SystemSpec, raw_pieces, validate: bool = False) -> GroupElement:
    by_power: dict[int, list[ClopenSet]] = {}
    for n, c in raw_pieces:
        if not c.is_empty():
            by_power.setdefault(n, []).append(c)
    if not by_power:
        raise NotPartitionError("element has no pieces")
    pieces = []
    for n in sorted(by_power):
        cells = by_power[n]
        piece = cells[0]
        if len(cells) > 1:
            size = max(spec.ladder_size(c.lo, c.hi) for c in cells)
            mask = 0
            for c in cells:
                mask |= _expand_words(spec, c.mask, (c.lo, c.hi), size)
            piece = ClopenSet._canonical(spec, mask, spec.ladder_window(size))
        pieces.append((n, piece))
    elem = GroupElement(spec, tuple(pieces))
    if validate:
        _validate(elem)
    return elem


def _validate(elem: GroupElement) -> None:
    cells = [c for _, c in elem.pieces]
    try:
        check_partition(elem.spec, cells)
    except NotPartitionError as e:
        raise NotPartitionError(f"domain pieces: {e}") from e
    try:
        check_partition(elem.spec, [c.translate(n) for n, c in elem.pieces])
    except NotPartitionError as e:
        raise NotPartitionError(f"image pieces: {e}") from e


def make_element(spec: SystemSpec, pieces) -> GroupElement:
    """Build an element from (clopen, power) pieces, validating bijectivity.

    The pieces must partition the space and so must their T^power images.
    """
    return _build(spec, [(int(n), c) for c, n in pieces], validate=True)


def identity(spec: SystemSpec) -> GroupElement:
    return _build(spec, [(0, full(spec))])


def shift(spec: SystemSpec, n: int = 1) -> GroupElement:
    """T^n as a group element (constant cocycle)."""
    return _build(spec, [(n, full(spec))])


def compose(s1: GroupElement, s2: GroupElement) -> GroupElement:
    """s1 after s2."""
    if s1.spec != s2.spec:
        raise PreconditionError("elements live over different systems")
    raw = []
    for n2, c2 in s2.pieces:
        for n1, c1 in s1.pieces:
            cell = c2.intersect(c1.translate(-n2))
            if not cell.is_empty():
                raw.append((n1 + n2, cell))
    return _build(s1.spec, raw)


def invert(s: GroupElement) -> GroupElement:
    return _build(s.spec, [(-n, c.translate(n)) for n, c in s.pieces])


def equals(s1: GroupElement, s2: GroupElement) -> bool:
    return s1.spec == s2.spec and s1.pieces == s2.pieces


def is_identity(s: GroupElement) -> bool:
    return s.cocycle_values() == [0]


def commutator(s1: GroupElement, s2: GroupElement) -> GroupElement:
    return compose(compose(s1, s2), compose(invert(s1), invert(s2)))


def apply(s: GroupElement, p: PointRep) -> PointRep:
    """Image of a point; exact via the piece containing it."""
    for n, c in s.pieces:
        if c.contains_point(p):
            return p.shifted(n)
    raise PreconditionError("point escaped the piece partition (invalid element?)")


def cocycle_at(s: GroupElement, p: PointRep) -> int:
    for n, c in s.pieces:
        if c.contains_point(p):
            return n
    raise PreconditionError("point escaped the piece partition (invalid element?)")


def image(s: GroupElement, a: ClopenSet) -> ClopenSet:
    """Forward image S(A), exact."""
    return union_all(s.spec, (a.intersect(c).translate(n) for n, c in s.pieces))


def support(s: GroupElement) -> ClopenSet:
    """Closure-free exact support: union of pieces with nonzero power.

    In an aperiodic system T^n moves every point for n != 0, so the moved
    set is already clopen.
    """
    return union_all(s.spec, (c for n, c in s.pieces if n != 0))


def order(s: GroupElement, bound: int) -> int | None:
    """Order of s if it is <= bound, else None."""
    if bound < 1:
        raise PreconditionError("bound must be >= 1")
    acc = s
    for k in range(1, bound + 1):
        if is_identity(acc):
            return k
        acc = compose(acc, s)
    return None


def cocycle_bound(s: GroupElement) -> int:
    return max(abs(n) for n, _ in s.pieces)


def embed_symmetric(spec: SystemSpec, m: int, perm, u: ClopenSet) -> GroupElement:
    """Permutation of the disjoint blocks U, TU, ..., T^(m-1)U, identity outside.

    perm is the image tuple (one-line notation) of a permutation of range(m).
    """
    perm = tuple(perm)
    if sorted(perm) != list(range(m)) or m < 1:
        raise PreconditionError(f"{perm!r} is not a permutation of range({m})")
    if u.is_empty():
        raise PreconditionError("block must be nonempty")
    blocks = [u.translate(i) for i in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            if not blocks[i].disjoint(blocks[j]):
                raise PreconditionError(f"blocks T^{i}U and T^{j}U overlap")
    raw = [(perm[i] - i, blocks[i]) for i in range(m)]
    rest = full(spec).difference(union_all(spec, blocks))
    raw.append((0, rest))
    return _build(spec, raw, validate=True)


def element_hash(s: GroupElement) -> str:
    """Stable 16-hex-digit digest of the canonical piece data."""
    blob = repr(
        (s.spec, tuple((p, c.lo, c.hi, tuple(c.sorted_words())) for p, c in s.pieces))
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def disjoint_cylinder_block(spec: SystemSpec, m: int) -> ClopenSet:
    """Smallest central cylinder U around the primary point with
    U, TU, ..., T^(m-1)U pairwise disjoint. Deterministic."""
    point, _ = base_point(spec, "primary")
    size = 1
    while True:
        u = central_cylinder(spec, point, size)
        blocks = [u.translate(i) for i in range(m)]
        if all(blocks[i].disjoint(blocks[j]) for i in range(m) for j in range(i + 1, m)):
            return u
        size += 1
        if size > _DEPTH_CAP:
            raise PreconditionError(f"no disjoint block found within _DEPTH_CAP = {_DEPTH_CAP}")


def _carve_next_cylinder(spec: SystemSpec, used: ClopenSet) -> ClopenSet:
    """Lexicographically least proper cylinder inside the complement of `used`.

    Proper: a sibling word is left behind at the same window, so later calls
    always find room. Deterministic."""
    rest = used.complement()
    if rest.is_empty():
        raise PreconditionError("nothing left to carve")
    size = spec.floor
    while True:
        lo, hi = spec.ladder_window(size)
        words = sorted(
            w for w in language(spec, hi - lo + 1) if cylinder(spec, w, lo).subset(rest)
        )
        if len(words) >= 2:
            return cylinder(spec, words[0], lo)
        size += 1
        if size > _DEPTH_CAP:
            raise PreconditionError(f"carving failed within _DEPTH_CAP = {_DEPTH_CAP}")


def directsum_generator(spec: SystemSpec, k: int) -> GroupElement:
    """k-th generator Q_k = T_{B'} T_{B''}^-1 of an infinite direct sum of Z.

    The generators have disjoint supports A_k = B'_k | B''_k with
    B'' = T^q(B'), so they commute pairwise, and each has index 0.
    Deterministic: the A_k are carved from a fixed sequence of pairwise
    disjoint cylinders.
    """
    if k < 1:
        raise PreconditionError("generators are numbered from 1")
    return _directsum_step(spec, k)[0]


@cache
def _directsum_step(spec: SystemSpec, k: int) -> tuple[GroupElement, ClopenSet]:
    """(Q_k, the union of the supports of Q_1, ..., Q_k)."""
    from .towers import first_return, induced

    used = _directsum_step(spec, k - 1)[1] if k > 1 else empty(spec)
    cyl = _carve_next_cylinder(spec, used)
    # inside cyl, find a return cell and a sub-cylinder moved off itself
    rf = first_return(spec, cyl)
    t = min(rf.cells)
    cell = rf.cells[t]
    depth = spec.floor
    b_prime = None
    while b_prime is None:
        lo, hi = spec.ladder_window(depth)
        for w in sorted(language(spec, hi - lo + 1)):
            cand = cylinder(spec, w, lo).intersect(cell)
            if cand.is_empty():
                continue
            if cand.translate(t).disjoint(cand):
                b_prime = cand
                break
        depth += 1
        if depth > _DEPTH_CAP:
            raise PreconditionError(f"no separated sub-cylinder within _DEPTH_CAP = {_DEPTH_CAP}")
    b_second = b_prime.translate(t)
    gen = compose(induced(spec, b_prime), invert(induced(spec, b_second)))
    return gen, used.union(b_prime).union(b_second)


# -- agreement on a set, used by the canonical-form machinery --------------


def agree_on(s1: GroupElement, s2: GroupElement, a: ClopenSet) -> bool:
    """True iff the two elements act identically on every point of A."""
    if a.is_empty():
        return True
    diff = compose(invert(s2), s1)
    return support(diff).disjoint(a)
