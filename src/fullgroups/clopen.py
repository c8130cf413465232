"""Exact clopen subsets of a system, canonicalized as word sets over a window.

Canonical windows come from a fixed per-system ladder: depth windows
[0, d-1] for odometers (d >= 1) and symmetric windows [-r, r] for subshifts
(r >= 0). The canonical form of a set is its word set on the smallest ladder
window expressing it; that window is an intrinsic property of the set, so
equal sets have identical canonical forms and canonicalization is idempotent.

Subshift words move between ladder windows through one fiber table per
(system, width, slice): each admissible inner word maps to its admissible
extensions on the wider window. Expansion replaces each word by its fiber.
For both kinds, a set shrinks one rung iff the fiber sizes of its sliced
words add up to its word count; distinct admissible words never overfill a
fiber, so equality means every fiber is whole. Odometer fibers are the p
digits of the dropped coordinate and need no table.

Translation is exact: T^n of a depth-d odometer cylinder is the depth-d
cylinder of (value + n) mod block_size, because digit addition acts bijectively
on the tail. For subshifts T^n shifts the window by -n.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import NotPartitionError, PreconditionError
from .systems import SystemSpec, PointRep, Word, language, point_window

_EXT_CACHE: dict = {}


def _ladder_window(spec: SystemSpec, size: int) -> tuple[int, int]:
    # size = depth d >= 1 (odometer) or radius r >= 0 (subshift)
    if spec.kind == "odometer":
        return (0, size - 1)
    return (-size, size)


def _ladder_size(spec: SystemSpec, lo: int, hi: int) -> int:
    """Smallest ladder size whose window contains [lo, hi]."""
    if spec.kind == "odometer":
        if lo < 0:
            raise PreconditionError("odometer windows start at 0")
        return hi + 1
    return max(-lo, hi, 0)


def _expand_words(spec: SystemSpec, words: frozenset, win: tuple[int, int], size: int) -> frozenset:
    """Word set expressing the same set on the ladder window of the given size."""
    lo, hi = win
    LO, HI = _ladder_window(spec, size)
    if (LO, HI) == (lo, hi):
        return words
    if not (LO <= lo and hi <= HI):
        raise PreconditionError("expansion target must contain the source window")
    if spec.kind == "odometer":
        # left ends match (both 0); extend to the right by all digit tails
        tails = itertools.product(*(range(spec.base_at(i)) for i in range(hi + 1, HI + 1)))
        tails = list(tails)
        return frozenset(w + t for w in words for t in tails)
    fibers = _fibers(spec, HI - LO + 1, lo - LO, hi - LO + 1)
    return frozenset(big for w in words for big in fibers[w])


def _fibers(spec: SystemSpec, width: int, a: int, b: int) -> dict:
    """Each admissible (b-a)-word -> its admissible width-words w with w[a:b] == it.

    Built once per key. The keys are the tuples held by language(spec, b - a),
    not fresh slices, so the table keeps no word copies of its own.
    """
    key = (spec, width, a, b)
    fibers = _EXT_CACHE.get(key)
    if fibers is None:
        fibers = {u: [] for u in language(spec, b - a)}
        for big in language(spec, width):
            fibers[big[a:b]].append(big)
        _EXT_CACHE[key] = fibers
    return fibers


def _shrink(spec: SystemSpec, words: frozenset, size: int) -> tuple[frozenset, int]:
    """Walk down the ladder while the word set stays expressible."""
    floor = 1 if spec.kind == "odometer" else 0
    while size > floor:
        lo, hi = _ladder_window(spec, size)
        slo, shi = _ladder_window(spec, size - 1)
        a, b = slo - lo, shi - lo + 1
        smaller = frozenset(w[a:b] for w in words)
        if spec.kind == "odometer":
            covered = spec.base_at(hi) * len(smaller)
        else:
            fibers = _fibers(spec, hi - lo + 1, a, b)
            covered = sum(len(fibers[u]) for u in smaller)
        if covered != len(words):
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
        size = _ladder_size(spec, *win)
        floor = 1 if spec.kind == "odometer" else 0
        size = max(size, floor)
        words = _expand_words(spec, words, win, size) if win != _ladder_window(spec, size) else words
        words, size = _shrink(spec, words, size)
        lo, hi = _ladder_window(spec, size)
        return ClopenSet(spec, lo, hi, words)

    def is_empty(self) -> bool:
        return not self.words

    def is_full(self) -> bool:
        return self == full(self.spec)

    # -- algebra -----------------------------------------------------------

    def _common(self, other: "ClopenSet") -> tuple[int, frozenset, frozenset]:
        if self.spec != other.spec:
            raise PreconditionError("sets live over different systems")
        size = max(_ladder_size(self.spec, self.lo, self.hi), _ladder_size(self.spec, other.lo, other.hi))
        return (
            size,
            _expand_words(self.spec, self.words, (self.lo, self.hi), size),
            _expand_words(self.spec, other.words, (other.lo, other.hi), size),
        )

    def union(self, other: "ClopenSet") -> "ClopenSet":
        size, a, b = self._common(other)
        return ClopenSet._canonical(self.spec, a | b, _ladder_window(self.spec, size))

    def intersect(self, other: "ClopenSet") -> "ClopenSet":
        size, a, b = self._common(other)
        return ClopenSet._canonical(self.spec, a & b, _ladder_window(self.spec, size))

    def difference(self, other: "ClopenSet") -> "ClopenSet":
        size, a, b = self._common(other)
        return ClopenSet._canonical(self.spec, a - b, _ladder_window(self.spec, size))

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
        spec = self.spec
        if spec.kind == "odometer":
            depth = self.hi + 1
            block = spec.block_size(depth)
            moved = frozenset(
                spec.value_word((spec.word_value(w) + n) % block, depth) for w in self.words
            )
            return ClopenSet._canonical(spec, moved, (0, depth - 1))
        return ClopenSet._canonical(spec, self.words, (self.lo - n, self.hi - n))

    def contains_point(self, p: PointRep) -> bool:
        return point_window(p, self.lo, self.hi) in self.words

    def fits_in_radius(self, radius: int) -> bool:
        """True iff the set lies inside a single central cylinder of the radius.

        Central means coordinates [0, radius-1] for odometers and
        [-radius, radius] for subshifts; equivalently diam <= 2^-radius.
        """
        if self.is_empty():
            return True
        floor = 1 if self.spec.kind == "odometer" else 0
        size = max(_ladder_size(self.spec, self.lo, self.hi), radius, floor)
        words = _expand_words(self.spec, self.words, (self.lo, self.hi), size)
        lo, hi = _ladder_window(self.spec, size)
        if self.spec.kind == "odometer":
            a, b = 0, radius
        else:
            a, b = -radius - lo, radius - lo + 1
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
    if spec.kind == "odometer":
        if offset != 0:
            raise PreconditionError("odometer cylinders use offset 0 only")
        if not spec.word_admissible(word):
            return empty(spec)
        return ClopenSet._canonical(spec, frozenset([word]), (0, len(word) - 1))
    if word not in language(spec, len(word)):
        return empty(spec)
    return ClopenSet._canonical(spec, frozenset([word]), (offset, offset + len(word) - 1))


def full(spec: SystemSpec) -> ClopenSet:
    lo, hi = _ladder_window(spec, 1 if spec.kind == "odometer" else 0)
    return ClopenSet(spec, lo, hi, frozenset(language(spec, hi - lo + 1)))


def empty(spec: SystemSpec) -> ClopenSet:
    lo, hi = _ladder_window(spec, 1 if spec.kind == "odometer" else 0)
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
    size = max(_ladder_size(spec, c.lo, c.hi) for c in cells)
    size = max(size, 1 if spec.kind == "odometer" else 0)
    expanded = [_expand_words(spec, c.words, (c.lo, c.hi), size) for c in cells]
    lo, hi = _ladder_window(spec, size)
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
    size = max(_ladder_size(spec, c.lo, c.hi) for p in partitions for c in p)
    size = max(size, 1 if spec.kind == "odometer" else 0)
    lo, hi = _ladder_window(spec, size)
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
