"""First-return functions, Kakutani-Rokhlin partitions, and tower sequences.

A KR partition over a base B splits B into return-time cells A_k and tiles
the space with atoms T^i(A_k), 0 <= i < k. The tower sequence anchored at a
point x0 uses shrinking central cylinders around x0 as bases, refines each
level so it is compatible with the previous one and with all central
cylinders of matching radius, and skips candidate levels whose heights or
diameters miss the schedule (subsampling, with dense renumbering).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .clopen import ClopenSet, central_cylinder, check_partition, cylinder, union_all
from .errors import PreconditionError, VerificationError
from .group import GroupElement, _build
from .systems import SystemSpec, PointRep, base_point, language

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
            raise VerificationError("return time exploded; system not minimal?")
        back = a.translate(-k)
        hit = remaining.intersect(back)
        if not hit.is_empty():
            cells[k] = hit
            remaining = remaining.difference(back)
    return ReturnFunction(spec, a, cells)


def induced(spec: SystemSpec, a: ClopenSet) -> GroupElement:
    """Induced transformation T_A: first return on A, identity outside."""
    rf = first_return(spec, a)
    raw = [(k, c) for k, c in rf.cells.items()]
    raw.append((0, a.complement()))
    return _build(spec, raw, validate=True)


@dataclass(frozen=True)
class KRPartition:
    """Kakutani-Rokhlin partition: towers (base cell, height)."""

    spec: SystemSpec
    towers: tuple[tuple[ClopenSet, int], ...]
    index: int = 0  # level number within a sequence, 0 when standalone
    band: int = 0  # schedule value m_n for that level

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
        key = (v, i)
        if key not in self._atoms:
            self._atoms[key] = b.translate(i)
        return self._atoms[key]

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


def refine_against(xi: KRPartition, c: ClopenSet) -> KRPartition:
    """Split tower bases until every atom is inside or disjoint from C.

    Heights and the base union are unchanged; only base cells split.
    """
    new_towers = []
    for b, h in xi.towers:
        cells = [b]
        for i in range(h):
            pulled = c.translate(-i)
            nxt = []
            for cell in cells:
                inner = cell.intersect(pulled)
                outer = cell.difference(pulled)
                if not inner.is_empty():
                    nxt.append(inner)
                if not outer.is_empty():
                    nxt.append(outer)
            cells = nxt
        cells.sort(key=lambda s: s.lex_least_word())
        new_towers.extend((cell, h) for cell in cells)
    return KRPartition(xi.spec, tuple(new_towers), xi.index, xi.band)


def _diameter_radius(n: int) -> int:
    # one past the dyadic depth needed for cylinder diameter below 1/n
    return 1 + (n - 1).bit_length()


class TowerSequence:
    """Anchored sequence of KR partitions satisfying the five tower conditions.

    Levels are numbered from 1; schedule(n) is the band half-width m_n
    (default m_n = n). Candidate bases are central cylinders around the
    anchor of growing size; candidates failing the height or diameter
    condition are skipped and numbering stays dense.
    """

    def __init__(self, spec: SystemSpec, anchor: PointRep, schedule=None):
        self.spec = spec
        self.anchor = anchor
        self.schedule = schedule or (lambda n: n)
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
        m = self.schedule(n)
        rad = _diameter_radius(n)
        size = max(self._sizes[-1] + 1 if self._sizes else 1, n)
        if self.spec.kind != "odometer":
            # keep the base window ahead of the band schedule so deeper
            # levels determine every cocycle within the bands
            size = max(size, 2 * n, rad + m + 1)
        while True:
            base = central_cylinder(self.spec, self.anchor, size)
            xi = kr_from_set(self.spec, base, index=n, band=m)
            if min(xi.heights()) < 2 * m + 2:
                size += 1
                continue
            if not all(
                base.translate(i).fits_in_radius(rad) for i in range(-m - 1, m + 1)
            ):
                size += 1
                continue
            break
        if self._levels:
            prev = self._levels[-1]
            xi = refine_against(xi, prev.base())
            for cell, _ in prev.towers:
                xi = refine_against(xi, cell)
        single_word_cells = all(cell.word_count() == 1 for cell, _ in xi.towers)
        if not (self.spec.kind == "odometer" and single_word_cells and size >= n):
            # depth-size single-cylinder atoms already determine any
            # length-n initial block, so the scan is only needed otherwise
            lo, hi = self.spec.ladder_window(n)
            for w in sorted(language(self.spec, hi - lo + 1)):
                c = cylinder(self.spec, w, lo)
                if not xi.refines_set(c):
                    xi = refine_against(xi, c)
        self._levels.append(xi)
        self._sizes.append(size)


_SEQ_CACHE: dict = {}


def tower_sequence(spec: SystemSpec, anchor: PointRep | None = None, schedule=None) -> TowerSequence:
    """Shared tower sequence for a system and anchor (primary point by default)."""
    if anchor is None:
        anchor, _ = base_point(spec, "primary")
    key = (spec, anchor, None if schedule is None else id(schedule))
    if key not in _SEQ_CACHE:
        _SEQ_CACHE[key] = TowerSequence(spec, anchor, schedule)
    return _SEQ_CACHE[key]
