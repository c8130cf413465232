"""Group elements: homeomorphisms acting as powers of T on a clopen partition.

An element S is stored as its orbit cocycle f_S, a finite partition of the
space into clopen pieces with an integer power per piece: S = T^n on piece
C_n. Canonical form merges pieces by power, so two elements are equal iff
their canonical forms coincide. Composition follows
f_{S1 S2}(x) = f_{S2}(x) + f_{S1}(S2 x).

`compose` canonicalizes once per power of the product: each pair of
pieces meets as raw masks on the pair's ladder window, and the cells of one
power are OR-ed on their widest window. `_build` merges the pieces of one
power the same way, with one `union_all`, where its callers hand it more
than one.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

from .clopen import (
    ClopenSet,
    central_cylinder,
    check_partition,
    full,
    union_all,
)
# bench/tests/test_tracer.py checks the tracer replaces this alias too
from .clopen import _expand_words, _union_masks
from .errors import NotPartitionError, PreconditionError
# `language` stays a module-level alias: bench/tracer.py wraps it in each layer
from .systems import SystemSpec, PointRep, _bits, base_point, language  # noqa: F401

# Largest ladder size any cylinder search tries; `ladder_sizes` enforces it.
_DEPTH_CAP = 64


@dataclass(frozen=True)
class GroupElement:
    """Element of the topological full group over its system."""

    spec: SystemSpec
    pieces: tuple[tuple[int, ClopenSet], ...]  # sorted by power, merged, disjoint, covering

    def cocycle_values(self) -> list[int]:
        return [n for n, _ in self.pieces]

    @cached_property
    def table(self) -> tuple[int, int, list]:
        """(lo, hi, powers): the power on each word of the hull window of
        the pieces, by its word-index bit. On an odometer the bits are the
        residues mod p_1...p_{hi+1}."""
        spec = self.spec
        size = max(spec.ladder_size(c.lo, c.hi) for _, c in self.pieces)
        lo, hi = spec.ladder_window(size)
        powers = [None] * spec.full_mask(hi - lo + 1).bit_length()
        for n, c in self.pieces:
            for bit in _bits(_expand_words(spec, c.mask, (c.lo, c.hi), size)):
                powers[bit] = n
        if None in powers:
            raise PreconditionError("the pieces leave a gap (invalid element?)")
        return lo, hi, powers

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
        pieces.append((n, cells[0] if len(cells) == 1 else union_all(spec, cells)))
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
    """s1 after s2.

    Each s2 piece meets each s1 piece moved by T^-n2 as raw masks on the
    pair's ladder window; each power's cells are OR-ed on their widest
    window and canonicalized once.
    """
    spec = s1.spec
    if spec != s2.spec:
        raise PreconditionError("elements live over different systems")
    cells: dict[int, list[tuple[int, int]]] = {}
    for n2, c2 in s2.pieces:
        size2 = spec.ladder_size(c2.lo, c2.hi)
        for n1, c1 in s1.pieces:
            mask, lo, hi = spec.translate_mask(c1.mask, c1.lo, c1.hi, -n2)
            size = max(size2, spec.ladder_size(lo, hi))
            # expand only a mask that is off the pair's window
            if (lo, hi) != spec.ladder_window(size):
                mask = _expand_words(spec, mask, (lo, hi), size)
            mask &= c2.mask if size == size2 else _expand_words(spec, c2.mask, (c2.lo, c2.hi), size)
            if mask:
                cells.setdefault(n1 + n2, []).append((size, mask))
    return _build(spec, [(n, _union_masks(spec, sized)) for n, sized in cells.items()])


def invert(s: GroupElement) -> GroupElement:
    return _build(s.spec, [(-n, c.translate(n)) for n, c in s.pieces])


def equals(s1: GroupElement, s2: GroupElement) -> bool:
    return s1.spec == s2.spec and s1.pieces == s2.pieces


def is_identity(s: GroupElement) -> bool:
    return s.cocycle_values() == [0]


def commutator(s1: GroupElement, s2: GroupElement) -> GroupElement:
    return compose(compose(s1, s2), compose(invert(s1), invert(s2)))


def cocycle_at(s: GroupElement, p: PointRep) -> int:
    """s's power at the point: one read of its table."""
    lo, hi, powers = s.table
    return powers[p.bit(lo, hi)]


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


def is_permutation(p, n: int) -> bool:
    """True iff the sequence p lists each of 0, 1, ..., n-1 exactly once."""
    return len(p) == n and set(p).issuperset(range(n))


def embed_symmetric(spec: SystemSpec, m: int, perm, u: ClopenSet) -> GroupElement:
    """Permutation of the disjoint blocks U, TU, ..., T^(m-1)U, identity outside.

    perm is the image tuple (one-line notation) of a permutation of range(m).
    """
    perm = tuple(perm)
    if m < 1 or not is_permutation(perm, m):
        raise PreconditionError(f"{perm!r} is not a permutation of range({m})")
    if u.is_empty():
        raise PreconditionError("block must be nonempty")
    k = first_overlap(u, range(1, m))
    if k is not None:
        raise PreconditionError(f"blocks U and T^{k}U overlap")
    blocks = [u.translate(i) for i in range(m)]
    raw = [(perm[i] - i, blocks[i]) for i in range(m)]
    rest = full(spec).difference(union_all(spec, blocks))
    raw.append((0, rest))
    return _build(spec, raw, validate=True)


def swaps(spec: SystemSpec, pairs) -> GroupElement:
    """The involution exchanging each block A with T^k(A), identity elsewhere.

    pairs holds (A, k); the blocks A and T^k(A) of all pairs must be
    pairwise disjoint, which the validation checks.
    """
    raw = []
    for a, k in pairs:
        raw += [(k, a), (-k, a.translate(k))]
    raw.append((0, union_all(spec, (c for _, c in raw)).complement()))
    return _build(spec, raw, validate=True)


def element_hash(s: GroupElement) -> str:
    """Stable 16-hex-digit digest of the canonical piece data. Words enter
    as `spec.symbols` tuples, int digits on odometers: the pinned digests
    were taken over that encoding."""
    symbols = s.spec.symbols
    blob = repr(
        (s.spec, tuple((p, c.lo, c.hi, tuple(map(symbols, c.sorted_words()))) for p, c in s.pieces))
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def first_overlap(u: ClopenSet, offsets) -> int | None:
    """The first k in offsets with U ∩ T^k(U) nonempty, or None.

    T is a bijection, so T^iU and T^jU are disjoint iff U and T^(j-i)U are.
    """
    return next((k for k in offsets if not u.disjoint(u.translate(k))), None)


def ladder_sizes(start: int, what: str):
    """Ladder sizes start, start + 1, ..., _DEPTH_CAP for a search; once they
    run out, the search has failed and this raises."""
    yield from range(start, _DEPTH_CAP + 1)
    raise PreconditionError(f"no {what} found within _DEPTH_CAP = {_DEPTH_CAP}")


def disjoint_cylinder_block(spec: SystemSpec, m: int) -> ClopenSet:
    """Smallest central cylinder U around the primary point with
    U, TU, ..., T^(m-1)U pairwise disjoint. Deterministic."""
    point, _ = base_point(spec, "primary")
    for size in ladder_sizes(1, "disjoint block"):
        u = central_cylinder(spec, point, size)
        if first_overlap(u, range(1, m)) is None:
            return u

