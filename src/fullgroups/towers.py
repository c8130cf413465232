"""First-return functions, Kakutani-Rokhlin partitions, and tower sequences.

A KR partition over a base B splits B into return-time cells A_k and tiles
the space with atoms T^i(A_k), 0 <= i < k. The tower sequence anchored at a
point x0 uses shrinking central cylinders around x0 as bases and skips
candidate levels whose heights or diameters miss the band half-width m_n = n.
Each level is built from the words that fix it: on an odometer, one tower
over the anchor's depth-d cylinder, of height p_1...p_d; on a subshift, one
tower per complete return word to the central word. No level is refined.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property

from .clopen import ClopenSet, _expand_words, central_cylinder, check_partition, union_all
from .errors import PreconditionError, VerificationError
from .group import GroupElement, _build
# `language` stays a module-level alias: bench/tracer.py wraps it in each layer
from .systems import SystemSpec, PointRep, _bits, _fiber_table, base_point, language  # noqa: F401

_RETURN_CEILING = 1 << 20


@dataclass(frozen=True)
class ReturnFunction:
    """First-return time function of a clopen set, as its level cells."""

    spec: SystemSpec
    base: ClopenSet
    cells: dict = field(hash=False)  # return time k -> clopen cell

    def times(self) -> list[int]:
        return sorted(self.cells)


def first_return(spec: SystemSpec, a: ClopenSet) -> ReturnFunction:
    """Exact first-return decomposition of A.

    Peels off A_k = {x in A : T^k x in A, T^j x not in A for 0 < j < k} by
    clopen algebra; terminates because return times are bounded on minimal
    systems.
    """
    if a.is_empty():
        raise PreconditionError("first return needs a nonempty set")
    remaining = a
    cells: dict[int, ClopenSet] = {}
    k = 0
    while not remaining.is_empty():
        k += 1
        if k > _RETURN_CEILING:
            raise VerificationError(
                f"return time exceeded _RETURN_CEILING = 2^{_RETURN_CEILING.bit_length() - 1}; "
                "system not minimal?"
            )
        back = a.translate(-k)
        hit = remaining.intersect(back)
        if not hit.is_empty():
            cells[k] = hit
            remaining = remaining.difference(back)
    return ReturnFunction(spec, a, cells)


def induced(spec: SystemSpec, a: ClopenSet) -> GroupElement:
    """Induced transformation T_A: first return on A, identity outside."""
    rf = first_return(spec, a)
    return _build(spec, [*rf.cells.items(), (0, a.complement())], validate=True)


@dataclass(frozen=True)
class KRPartition:
    """Kakutani-Rokhlin partition: towers (base cell, height)."""

    spec: SystemSpec
    towers: tuple[tuple[ClopenSet, int], ...]
    index: int = 0  # level number within a sequence, 0 when standalone
    band: int = 0  # band half-width m_n = n for that level

    _atoms: dict = field(default_factory=dict, hash=False, compare=False, repr=False)

    def heights(self) -> list[int]:
        return [h for _, h in self.towers]

    def base(self) -> ClopenSet:
        return union_all(self.spec, (b for b, _ in self.towers))

    def top(self) -> ClopenSet:
        return union_all(self.spec, (b.translate(h - 1) for b, h in self.towers))

    def atom(self, v: int, i: int) -> ClopenSet:
        b, h = self.towers[v]
        if not 0 <= i < h:
            raise PreconditionError(f"level {i} outside tower of height {h}")
        if (v, i) not in self._atoms:
            self._atoms[v, i] = b.translate(i)
        return self._atoms[v, i]

    @cached_property
    def _atom_masks(self) -> tuple[int, list]:
        """(size, per-tower atom masks) on the level's own ladder window."""
        spec = self.spec
        rows = [[self.atom(v, i) for i in range(h)] for v, (_, h) in enumerate(self.towers)]
        size = max(spec.ladder_size(a.lo, a.hi) for row in rows for a in row)
        return size, [
            [_expand_words(spec, a.mask, (a.lo, a.hi), size) for a in row] for row in rows
        ]

    def cocycle_rows(self, s: GroupElement):
        """Cocycle values of s on the atoms, one tower at a time.

        Yields, per tower, a lazy sequence over its levels i of the set of
        powers s takes on T^i(base). Each piece mask is expanded once to a
        common window; an element whose pieces are finer than the level's
        own window gets its atom masks expanded there, uncached.
        """
        spec = self.spec
        own, rows = self._atom_masks
        size = max(own, max(spec.ladder_size(c.lo, c.hi) for _, c in s.pieces))
        pieces = [(n, _expand_words(spec, c.mask, (c.lo, c.hi), size)) for n, c in s.pieces]
        win = spec.ladder_window(own)
        for row in rows:
            if size != own:
                row = (_expand_words(spec, a, win, size) for a in row)
            yield ({n for n, m in pieces if m & a} for a in row)

    @cached_property
    def successors(self) -> tuple[tuple[int, ...], ...]:
        """Per tower v, the towers w with T^{h_v}(B_v) ∩ B_w nonempty.

        T maps the tops onto the bases, so the pieces B_v ∩ T^{-h_v}(B_w)
        partition B_v over its successors w, and B_w ∩ T^{h_v}(B_v)
        partition B_w over its predecessors v.
        """
        return tuple(
            tuple(w for w, (bw, _) in enumerate(self.towers) if not b.translate(h).disjoint(bw))
            for b, h in self.towers
        )

    def iter_atoms(self):
        for v, (b, h) in enumerate(self.towers):
            for i in range(h):
                yield v, i, self.atom(v, i)

    def u_set(self, i: int) -> ClopenSet:
        """U(i): points at distance i below the tower tops."""
        if not 0 <= i < min(self.heights()):
            raise PreconditionError(f"distance {i} exceeds the shortest tower")
        return union_all(self.spec, (b.translate(h - 1 - i) for b, h in self.towers))

    def d_set(self, i: int) -> ClopenSet:
        """D(i): points at distance i above the tower bases."""
        if not 0 <= i < min(self.heights()):
            raise PreconditionError(f"distance {i} exceeds the shortest tower")
        return union_all(self.spec, (b.translate(i) for b, h in self.towers))

    def validate(self) -> None:
        check_partition(self.spec, [a for _, _, a in self.iter_atoms()])
        if not self.top().translate(1) == self.base():
            raise VerificationError("T(top) != base")

    def refines_set(self, c: ClopenSet) -> bool:
        """True iff every atom is inside or disjoint from the given set."""
        return all(
            a.subset(c) or a.disjoint(c) for _, _, a in self.iter_atoms()
        )


def kr_from_set(spec: SystemSpec, a: ClopenSet, index: int = 0, band: int = 0) -> KRPartition:
    """KR partition generated by the first-return function of A."""
    rf = first_return(spec, a)
    towers = tuple((rf.cells[k], k) for k in sorted(rf.cells))
    return KRPartition(spec, towers, index, band)


def central_level(spec: SystemSpec, base: ClopenSet, index: int = 0, band: int = 0) -> KRPartition:
    """Towers over a central cylinder B, one per word: on an odometer one, as T adds 1
    mod p_1...p_d on B's depth-d word; on a subshift one per return word (Durand 1998),
    each first-return cell A_k split by its words on [B.lo, B.hi + k], sorted by least word."""
    if spec.kind == "odometer":
        if base.word_count() != 1:
            raise VerificationError(f"odometer level base has {base.word_count()} words, not one")
        return KRPartition(spec, ((base, spec.block_size(base.hi + 1)),), index, band)
    towers = []
    for k, cell in sorted(first_return(spec, base).cells.items()):
        size = spec.ladder_size(base.lo, base.hi + k)
        lo, hi = spec.ladder_window(size)
        mask = _expand_words(spec, cell.mask, (cell.lo, cell.hi), size)
        fibers, proj = _fiber_table(spec, hi - lo + 1, base.lo - lo, base.hi + k - lo + 1)
        words = {proj[i] for i in _bits(mask)}  # the hull words the cell reads
        parts = [ClopenSet._canonical(spec, mask & fibers[j], (lo, hi)) for j in words]
        towers.extend((c, k) for c in sorted(parts, key=ClopenSet.lex_least_word))
    return KRPartition(spec, tuple(towers), index, band)


def refine_against(xi: KRPartition, c: ClopenSet) -> KRPartition:
    """Split tower bases until every atom is inside or disjoint from C.

    Heights and the base union are unchanged; only base cells split.
    """
    new_towers = []
    for b, h in xi.towers:
        cells = [b]
        for i in range(h):
            pulled = c.translate(-i)
            halves = ((cell.intersect(pulled), cell.difference(pulled)) for cell in cells)
            cells = [part for pair in halves for part in pair if not part.is_empty()]
        cells.sort(key=lambda s: s.lex_least_word())
        new_towers.extend((cell, h) for cell in cells)
    return KRPartition(xi.spec, tuple(new_towers), xi.index, xi.band)


def _diameter_radius(n: int) -> int:
    # one past the dyadic depth needed for cylinder diameter below 1/n
    return 1 + (n - 1).bit_length()


class TowerSequence:
    """Anchored sequence of KR partitions satisfying the five tower conditions.

    Levels are numbered from 1, and level n has band half-width m_n = n.
    Candidate bases are central cylinders around the anchor of growing
    size; candidates failing the height or diameter condition are skipped
    and numbering stays dense. A level is the `central_level` of its base,
    unrefined: subshift bases have size >= 2n, so atoms fix [-n, n].
    """

    def __init__(self, spec: SystemSpec, anchor: PointRep):
        self.spec = spec
        self.anchor = anchor
        self._levels: list[KRPartition] = []
        self._sizes: list[int] = []

    def level(self, n: int) -> KRPartition:
        if n < 1:
            raise PreconditionError("levels are numbered from 1")
        while len(self._levels) < n:
            self._build_next()
        return self._levels[n - 1]

    def built(self) -> int:
        return len(self._levels)

    def _build_next(self) -> None:
        n = len(self._levels) + 1
        rad = _diameter_radius(n)
        size = self._sizes[-1] + 1 if self._sizes else 1
        if self.spec.kind != "odometer":
            # keep the base window ahead of the bands so deeper levels
            # determine every cocycle within them
            size = max(size, 2 * n, rad + n + 1)
        while True:
            base = central_cylinder(self.spec, self.anchor, size)
            xi = central_level(self.spec, base, index=n, band=n)
            if min(xi.heights()) >= 2 * n + 2 and all(
                base.translate(i).fits_in_radius(rad) for i in range(-n - 1, n + 1)
            ):
                break
            size += 1
        self._levels.append(xi)
        self._sizes.append(size)


@cache
def tower_sequence(spec: SystemSpec, anchor: PointRep | None = None) -> TowerSequence:
    """Shared tower sequence for a system and anchor (primary point by default)."""
    if anchor is None:
        return tower_sequence(spec, base_point(spec, "primary")[0])
    return TowerSequence(spec, anchor)
