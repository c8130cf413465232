"""First-return functions, Kakutani-Rokhlin partitions, and tower sequences.

A KR partition over a base B splits B into return-time cells A_k and tiles
the space with atoms T^i(A_k), 0 <= i < k. One routine, `_return_cells`,
reads the return times of any clopen set from its words: on an odometer a
residue returns at the next residue of the set; on a subshift each cell is
the hull of a return word, found by string search in the admissible words
of the system's word index. `first_return` groups those cells by return
time (`kr_from_set`, `induced`); `central_level` keeps one tower per cell.
The tower sequence anchored at a point x0 uses shrinking central cylinders
around x0 as bases and skips candidate levels whose heights or diameters
miss the band half-width m_n = n. No level is refined.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cache, cached_property

from .clopen import ClopenSet, _expand_words, central_cylinder, check_partition, union_all
from .errors import PreconditionError, VerificationError
from .group import GroupElement, _build
# `language` stays a module-level alias: bench/tracer.py wraps it in each layer
from .systems import SystemSpec, PointRep, _bits, base_point, language  # noqa: F401

_RETURN_CEILING = 1 << 20


@dataclass(frozen=True)
class ReturnFunction:
    """First-return time function of a clopen set, as its level cells."""

    cells: dict = field(hash=False)  # return time k -> clopen cell


def first_return(spec: SystemSpec, a: ClopenSet) -> ReturnFunction:
    """Exact first-return decomposition of A: its `_return_cells`, grouped by
    return time."""
    cells: dict = {}
    for k, win, bit in _return_cells(spec, a):
        cells[k] = (cells.get(k, (0,))[0] | bit, win)
    cells = {k: ClopenSet._canonical(spec, *cells[k]) for k in sorted(cells)}
    return ReturnFunction(cells)


def _return_cells(
    spec: SystemSpec, a: ClopenSet, level: int = 0
) -> list[tuple[int, tuple[int, int], int]]:
    """(return time k, window, one-word mask) per cell of A on which the
    first return reads one word.

    On an odometer A is a residue set S mod p_1...p_d on its depth-d window,
    and a value r of S returns at the next value of S, counted cyclically.
    On a subshift each admissible length-L word that starts with a word of A
    is cut after the next such word it holds, at offset k, into the cell's
    word on [A.lo, A.hi + k]. Every point of A reads such a word, so the
    cells are exact once each of them holds a second word of A; until then
    L doubles, from the power of two >= 2 * width(A), a scanned index width;
    a cut is the same at any L that holds it. Primitive substitutions are
    linearly recurrent, so L stays within a constant times A's width.
    A return time past `_RETURN_CEILING` raises, naming the tower level
    whose base A is when one is given.
    """
    if a.is_empty():
        raise PreconditionError("first return needs a nonempty set")
    width = a.hi - a.lo + 1
    if spec.kind == "odometer":
        values = _bits(a.mask)
        nexts = values[1:] + [values[0] + spec.block_size(width)]
        cells = [(s - r, (a.lo, a.hi), 1 << r) for r, s in zip(values, nexts)]
    else:
        index = spec.word_index(width)[0]
        words = {index[i] for i in _bits(a.mask)}
        ahead = re.compile("(?=%s)" % "|".join(map(re.escape, words)))
        length = 1 << (2 * width - 1).bit_length()
        while True:
            starts = [w for w in spec.word_index(length)[0] if w[:width] in words]
            cuts = [ahead.search(w, 1) for w in starts]
            if all(cuts):
                break
            length *= 2
        hulls = {w[: m.start() + width] for w, m in zip(starts, cuts)}
        cells = [
            (len(h) - width, spec.word_window(a.lo, len(h)), 1 << spec.word_bit(h, len(h)))
            for h in hulls
        ]
    longest = max(k for k, _, _ in cells)
    if longest > _RETURN_CEILING:
        whose = f" at the base of tower level {level}, on [{a.lo}, {a.hi}]" if level else ""
        raise VerificationError(
            f"return time {longest} exceeds _RETURN_CEILING = "
            f"2^{_RETURN_CEILING.bit_length() - 1}{whose}"
        )
    return cells


def induced(spec: SystemSpec, a: ClopenSet) -> GroupElement:
    """Induced transformation T_A: first return on A, identity outside."""
    rf = first_return(spec, a)
    return _build(spec, [*rf.cells.items(), (0, a.complement())], validate=True)


@dataclass(frozen=True)
class KRPartition:
    """Kakutani-Rokhlin partition: towers (base cell, height)."""

    spec: SystemSpec
    towers: tuple[tuple[ClopenSet, int], ...]
    band: int = 0  # band half-width m_n = n of a sequence level, 0 when standalone

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
        """(size, per-tower atom masks) on the level's ladder window: atom i
        of a tower is T^i of its base mask, expanded there once. Only
        subshift levels build them: an odometer level's P atoms would
        take P bits each."""
        spec = self.spec
        rows = [[spec.translate_mask(b.mask, b.lo, b.hi, i) for i in range(h)]
                for b, h in self.towers]
        size = max(spec.ladder_size(lo, hi) for row in rows for _, lo, hi in row)
        return size, [[_expand_words(spec, m, (lo, hi), size) for m, lo, hi in row] for row in rows]

    def cocycle_rows(self, s: GroupElement):
        """Cocycle values of s on the atoms, one tower at a time.

        Yields, per tower, a lazy sequence over its levels i of the set of
        powers s takes on T^i(base). The spec reads them: an odometer from
        s's residue table, a subshift from the atom masks (`mask_rows`).
        """
        return self.spec.cocycle_rows(self, s)

    def mask_rows(self, s: GroupElement):
        """`cocycle_rows` read from the atom masks. Each piece mask is
        expanded once to a common window; an element whose pieces are finer
        than the level's own window gets its atom masks expanded there,
        uncached.
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


def kr_from_set(spec: SystemSpec, a: ClopenSet) -> KRPartition:
    """KR partition generated by the first-return function of A."""
    rf = first_return(spec, a)
    towers = tuple((rf.cells[k], k) for k in sorted(rf.cells))
    return KRPartition(spec, towers)


def central_level(spec: SystemSpec, base: ClopenSet, band: int = 0) -> KRPartition:
    """Towers over a cylinder B of one word u, one per `_return_cells` cell: on an
    odometer one, of height p_1...p_d, as T adds 1 mod p_1...p_d on u; on a
    subshift one per complete return word w to u (Durand 1998), over the
    cylinder of its hull w·u on [B.lo, B.hi + |w|]. Towers are ordered by
    height, then by least word."""
    if base.word_count() != 1:
        raise VerificationError(f"level base has {base.word_count()} words, not one")
    cells = _return_cells(spec, base, band)
    towers = [(ClopenSet._canonical(spec, bit, win), k) for k, win, bit in cells]
    towers.sort(key=lambda tower: (tower[1], tower[0].lex_least_word()))
    return KRPartition(spec, tuple(towers), band)


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
    return KRPartition(xi.spec, tuple(new_towers), xi.band)


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
            xi = central_level(self.spec, base, band=n)
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
