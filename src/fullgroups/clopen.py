"""Exact clopen subsets of a system, canonicalized as word sets over a window.

Canonical windows come from the per-system ladder, which the spec classes
in `systems` define (`floor`, `ladder_window`, `ladder_size`): depth
windows [0, d-1] for odometers (d >= 1) and symmetric windows [-r, r] for
subshifts (r >= 0). The canonical form of a set is its word set on the
smallest ladder window expressing it; that window is an intrinsic property
of the set, so equal sets have identical canonical forms and
canonicalization is idempotent.

Expansion replaces each word by its fiber on the wider window. A set
shrinks one rung iff the fiber sizes of its sliced words add up to its word
count; distinct admissible words never overfill a fiber, so equality means
every fiber is whole. Translation by T^n is the spec's exact action on
word sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import NotPartitionError, PreconditionError
from .systems import SystemSpec, PointRep, Word, language, point_window


def _expand_words(spec: SystemSpec, words: frozenset, win: tuple[int, int], size: int) -> frozenset:
    """Word set expressing the same set on the ladder window of the given size."""
    lo, hi = win
    LO, HI = spec.ladder_window(size)
    if (LO, HI) == (lo, hi):
        return words
    if not (LO <= lo and hi <= HI):
        raise PreconditionError("expansion target must contain the source window")
    return spec.extend_words(words, HI - LO + 1, lo - LO, hi - LO + 1)


def _shrink(spec: SystemSpec, words: frozenset, size: int) -> tuple[frozenset, int]:
    """Walk down the ladder while the word set stays expressible."""
    while size > spec.floor:
        lo, hi = spec.ladder_window(size)
        slo, shi = spec.ladder_window(size - 1)
        a, b = slo - lo, shi - lo + 1
        smaller = frozenset(w[a:b] for w in words)
        if spec.fiber_total(smaller, hi - lo + 1, a, b) != len(words):
            break
        words = smaller
        size -= 1
    return words, size


@dataclass(frozen=True)
class ClopenSet:
    """Canonical clopen set: admissible words over a ladder window."""

    spec: SystemSpec
    lo: int
    hi: int
    words: frozenset = field(hash=False)

    def __hash__(self):
        return hash((self.lo, self.hi, self.words))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _canonical(spec: SystemSpec, words: frozenset, win: tuple[int, int]) -> "ClopenSet":
        size = spec.ladder_size(*win)
        words = _expand_words(spec, words, win, size) if win != spec.ladder_window(size) else words
        words, size = _shrink(spec, words, size)
        lo, hi = spec.ladder_window(size)
        return ClopenSet(spec, lo, hi, words)

    def is_empty(self) -> bool:
        return not self.words

    def is_full(self) -> bool:
        return self == full(self.spec)

    # -- algebra -----------------------------------------------------------

    def _common(self, other: "ClopenSet") -> tuple[int, frozenset, frozenset]:
        if self.spec != other.spec:
            raise PreconditionError("sets live over different systems")
        size = max(self.spec.ladder_size(self.lo, self.hi), self.spec.ladder_size(other.lo, other.hi))
        return (
            size,
            _expand_words(self.spec, self.words, (self.lo, self.hi), size),
            _expand_words(self.spec, other.words, (other.lo, other.hi), size),
        )

    def union(self, other: "ClopenSet") -> "ClopenSet":
        size, a, b = self._common(other)
        return ClopenSet._canonical(self.spec, a | b, self.spec.ladder_window(size))

    def intersect(self, other: "ClopenSet") -> "ClopenSet":
        size, a, b = self._common(other)
        return ClopenSet._canonical(self.spec, a & b, self.spec.ladder_window(size))

    def difference(self, other: "ClopenSet") -> "ClopenSet":
        size, a, b = self._common(other)
        return ClopenSet._canonical(self.spec, a - b, self.spec.ladder_window(size))

    def complement(self) -> "ClopenSet":
        width = self.hi - self.lo + 1
        admissible = language(self.spec, width)
        return ClopenSet._canonical(self.spec, frozenset(admissible) - self.words, (self.lo, self.hi))

    def subset(self, other: "ClopenSet") -> bool:
        size, a, b = self._common(other)
        return a <= b

    def disjoint(self, other: "ClopenSet") -> bool:
        size, a, b = self._common(other)
        return not (a & b)

    # -- dynamics ----------------------------------------------------------

    def translate(self, n: int) -> "ClopenSet":
        """T^n of this set, exact."""
        if n == 0 or self.is_empty():
            return self
        words, win = self.spec.translate_words(self.words, (self.lo, self.hi), n)
        return ClopenSet._canonical(self.spec, words, win)

    def contains_point(self, p: PointRep) -> bool:
        return point_window(p, self.lo, self.hi) in self.words

    def fits_in_radius(self, radius: int) -> bool:
        """True iff the set lies inside a single central cylinder of the radius.

        Central means coordinates on the ladder window of the radius,
        [0, radius-1] for odometers and [-radius, radius] for subshifts;
        equivalently diam <= 2^-radius.
        """
        if self.is_empty():
            return True
        spec = self.spec
        size = max(spec.ladder_size(self.lo, self.hi), radius)
        words = _expand_words(spec, self.words, (self.lo, self.hi), size)
        lo, _ = spec.ladder_window(size)
        clo, chi = spec.ladder_window(radius)
        a, b = clo - lo, chi - lo + 1
        return len({w[a:b] for w in words}) == 1

    # -- presentation ------------------------------------------------------

    def sorted_words(self) -> list:
        return sorted(self.words)

    def word_count(self) -> int:
        return len(self.words)

    def lex_least_word(self) -> Word:
        if self.is_empty():
            raise PreconditionError("empty set has no words")
        return min(self.words)

    def __repr__(self):
        if self.is_empty():
            return f"ClopenSet(EMPTY over {self.spec.kind})"
        return f"ClopenSet({len(self.words)} words on [{self.lo},{self.hi}])"


def cylinder(spec: SystemSpec, word, offset: int = 0) -> ClopenSet:
    """Points whose coordinates [offset, offset+len(word)-1] spell the word.

    An inadmissible word yields the empty set. Odometers fix an initial digit
    block, so the offset must be 0 for them.
    """
    word = tuple(word)
    if not word:
        raise PreconditionError("cylinder word must be nonempty")
    win = spec.word_window(offset, len(word))
    if not spec.word_admissible(word):
        return empty(spec)
    return ClopenSet._canonical(spec, frozenset([word]), win)


def central_cylinder(spec: SystemSpec, point: PointRep, size: int) -> ClopenSet:
    """Cylinder of the point's coordinates on the ladder window of the size."""
    lo, hi = spec.ladder_window(size)
    return cylinder(spec, point.window(lo, hi), lo)


def full(spec: SystemSpec) -> ClopenSet:
    lo, hi = spec.ladder_window(spec.floor)
    return ClopenSet(spec, lo, hi, frozenset(language(spec, hi - lo + 1)))


def empty(spec: SystemSpec) -> ClopenSet:
    lo, hi = spec.ladder_window(spec.floor)
    return ClopenSet(spec, lo, hi, frozenset())


def union_all(spec: SystemSpec, sets) -> ClopenSet:
    out = empty(spec)
    for s in sets:
        out = out.union(s)
    return out


def check_partition(spec: SystemSpec, cells) -> None:
    """Raise NotPartitionError unless the cells tile the whole space.

    Cardinality argument on a common window: the union covers iff its words
    are all admissible words, and the cells are disjoint iff their word
    counts add up to the union's.
    """
    cells = list(cells)
    if not cells:
        raise NotPartitionError("no cells")
    size = max(spec.ladder_size(c.lo, c.hi) for c in cells)
    expanded = [_expand_words(spec, c.words, (c.lo, c.hi), size) for c in cells]
    lo, hi = spec.ladder_window(size)
    admissible = language(spec, hi - lo + 1)
    total = sum(len(ws) for ws in expanded)
    covered = frozenset().union(*expanded)
    if covered != admissible:
        raise NotPartitionError("cells leave a gap")
    if total != len(admissible):
        raise NotPartitionError("cells overlap")


def refine_common(spec: SystemSpec, partitions) -> list[ClopenSet]:
    """Common refinement of several partitions of the space.

    Each input family is validated as a partition first. Cells of the output
    are grouped by membership signature on a common window, so they are
    exactly the nonempty intersections of one cell from each family.
    """
    partitions = [list(p) for p in partitions]
    if not partitions:
        raise PreconditionError("need at least one partition")
    for p in partitions:
        check_partition(spec, p)
    size = max(spec.ladder_size(c.lo, c.hi) for p in partitions for c in p)
    lo, hi = spec.ladder_window(size)
    admissible = language(spec, hi - lo + 1)
    owners = []
    for p in partitions:
        table = {}
        for ci, c in enumerate(p):
            for w in _expand_words(spec, c.words, (c.lo, c.hi), size):
                table[w] = ci
        owners.append(table)
    groups: dict[tuple, set] = {}
    for w in admissible:
        sig = tuple(tab[w] for tab in owners)
        groups.setdefault(sig, set()).add(w)
    return [
        ClopenSet._canonical(spec, frozenset(ws), (lo, hi))
        for sig, ws in sorted(groups.items())
    ]
