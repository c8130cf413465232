"""Exact clopen subsets of a system, canonicalized as word masks over a window.

Canonical windows come from the per-system ladder, which the spec classes
in `systems` define (`floor`, `ladder_window`, `ladder_size`): depth
windows [0, d-1] for odometers (d >= 1) and symmetric windows [-r, r] for
subshifts (r >= 0). The canonical form of a set is its word set on the
smallest ladder window expressing it; that window is an intrinsic property
of the set, so equal sets have identical canonical forms and
canonicalization is idempotent.

A word set is one int bitmask over the word index of its window's width,
encoded by the spec (`encode`, `decode`). Union, intersection and
difference are `| & &~` on a common window; expansion, the one-rung shrink
test and translation by T^n are the spec's mask operations. Words are
decoded only for rendering, hashing and ordering.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import NotPartitionError, PreconditionError
# `language` stays a module-level alias: bench/tracer.py wraps it in each layer
from .systems import SystemSpec, PointRep, language  # noqa: F401


class WordMask(int):
    """A word set as a bitmask over its window's word index; len is its word count."""

    __slots__ = ()
    __len__ = int.bit_count


def _expand_words(spec: SystemSpec, mask: int, win: tuple[int, int], size: int) -> WordMask:
    """Mask expressing the same set on the ladder window of the given size."""
    lo, hi = win
    LO, HI = spec.ladder_window(size)
    if (LO, HI) == (lo, hi):
        return WordMask(mask)
    if not (LO <= lo and hi <= HI):
        raise PreconditionError("expansion target must contain the source window")
    return WordMask(spec.expand_mask(mask, HI - LO + 1, lo - LO, hi - LO + 1))


def _shrink(spec: SystemSpec, mask: WordMask, size: int) -> tuple[int, int]:
    """Walk down the ladder while the word set stays expressible."""
    lo, hi = spec.ladder_window(size)
    while size > spec.floor:
        slo, shi = spec.ladder_window(size - 1)
        smaller = spec.shrink_mask(mask, hi - lo + 1, slo - lo, shi - lo + 1)
        if smaller is None:
            break
        mask, size, lo, hi = smaller, size - 1, slo, shi
    return mask, size


@dataclass(frozen=True)
class ClopenSet:
    """Canonical clopen set: a mask of admissible words over a ladder window."""

    spec: SystemSpec
    lo: int
    hi: int
    mask: int = field(hash=False)

    def __hash__(self):
        return hash((self.lo, self.hi, self.mask))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _canonical(spec: SystemSpec, mask: int, win: tuple[int, int]) -> "ClopenSet":
        if not mask:
            return empty(spec)
        size = spec.ladder_size(*win)
        if win != spec.ladder_window(size):
            mask = _expand_words(spec, mask, win, size)
        mask, size = _shrink(spec, WordMask(mask), size)
        lo, hi = spec.ladder_window(size)
        return ClopenSet(spec, lo, hi, mask)

    def is_empty(self) -> bool:
        return not self.mask

    def is_full(self) -> bool:
        return self == full(self.spec)

    # -- algebra -----------------------------------------------------------

    def _common(self, other: "ClopenSet") -> tuple[int, int, int]:
        """Both masks on the smaller set's window expanded to the larger one."""
        spec = self.spec
        _over(spec, (other,))
        mine, theirs = spec.ladder_size(self.lo, self.hi), spec.ladder_size(other.lo, other.hi)
        size = max(mine, theirs)
        a = self.mask if mine == size else _expand_words(spec, self.mask, (self.lo, self.hi), size)
        b = other.mask if theirs == size else _expand_words(spec, other.mask, (other.lo, other.hi), size)
        return size, a, b

    def union(self, other: "ClopenSet") -> "ClopenSet":
        size, a, b = self._common(other)
        return ClopenSet._canonical(self.spec, a | b, self.spec.ladder_window(size))

    def intersect(self, other: "ClopenSet") -> "ClopenSet":
        size, a, b = self._common(other)
        return ClopenSet._canonical(self.spec, a & b, self.spec.ladder_window(size))

    def difference(self, other: "ClopenSet") -> "ClopenSet":
        size, a, b = self._common(other)
        return ClopenSet._canonical(self.spec, a & ~b, self.spec.ladder_window(size))

    def complement(self) -> "ClopenSet":
        whole = self.spec.full_mask(self.hi - self.lo + 1)
        return ClopenSet._canonical(self.spec, whole & ~self.mask, (self.lo, self.hi))

    def subset(self, other: "ClopenSet") -> bool:
        size, a, b = self._common(other)
        return not (a & ~b)

    def disjoint(self, other: "ClopenSet") -> bool:
        size, a, b = self._common(other)
        return not (a & b)

    # -- dynamics ----------------------------------------------------------

    def translate(self, n: int) -> "ClopenSet":
        """T^n of this set, exact."""
        if n == 0 or self.is_empty():
            return self
        mask, lo, hi = self.spec.translate_mask(self.mask, self.lo, self.hi, n)
        if (lo, hi) == (self.lo, self.hi):
            # T^n kept the window: on an odometer it rotates the residues,
            # which maps every rung's word sets onto themselves, so the set
            # is still expressible on no smaller rung and stays canonical
            return ClopenSet(self.spec, lo, hi, mask)
        return ClopenSet._canonical(self.spec, mask, (lo, hi))

    def contains_point(self, p: PointRep) -> bool:
        return bool(self.mask >> p.bit(self.lo, self.hi) & 1)

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
        mask = _expand_words(spec, self.mask, (self.lo, self.hi), size)
        lo, hi = spec.ladder_window(size)
        clo, chi = spec.ladder_window(radius)
        a, b = clo - lo, chi - lo + 1
        # the central cylinder through one word of the set must hold them all
        (word,) = spec.decode(mask & -mask, hi - lo + 1)
        around = _expand_words(spec, spec.encode([word[a:b]], b - a), (clo, chi), size)
        return not (mask & ~around)

    # -- presentation ------------------------------------------------------

    def _decode(self) -> list:
        return self.spec.decode(self.mask, self.hi - self.lo + 1)

    def sorted_words(self) -> list:
        return sorted(self._decode())

    def word_count(self) -> int:
        return self.mask.bit_count()

    def lex_least_word(self) -> str:
        if self.is_empty():
            raise PreconditionError("empty set has no words")
        return min(self._decode())

    def __repr__(self):
        if self.is_empty():
            return f"ClopenSet(EMPTY over {self.spec.kind})"
        return f"ClopenSet({self.word_count()} words on [{self.lo},{self.hi}])"


def cylinder(spec: SystemSpec, word: str, offset: int = 0) -> ClopenSet:
    """Points whose coordinates [offset, offset+len(word)-1] spell the word.

    An inadmissible word yields the empty set. Odometers fix an initial digit
    block, so the offset must be 0 for them.
    """
    if not isinstance(word, str) or not word:
        raise PreconditionError(f"cylinder word must be a nonempty string, not {word!r}")
    win = spec.word_window(offset, len(word))
    if not spec.word_admissible(word):
        return empty(spec)
    return ClopenSet._canonical(spec, spec.encode([word], len(word)), win)


def central_cylinder(spec: SystemSpec, point: PointRep, size: int) -> ClopenSet:
    """Cylinder of the point's coordinates on the ladder window of the size."""
    lo, hi = spec.ladder_window(size)
    return cylinder(spec, point.window(lo, hi), lo)


def full(spec: SystemSpec) -> ClopenSet:
    lo, hi = spec.ladder_window(spec.floor)
    return ClopenSet(spec, lo, hi, spec.full_mask(hi - lo + 1))


def empty(spec: SystemSpec) -> ClopenSet:
    lo, hi = spec.ladder_window(spec.floor)
    return ClopenSet(spec, lo, hi, 0)


def _over(spec: SystemSpec, sets) -> list:
    """The sets as a list, once each is checked to live over spec."""
    sets = list(sets)
    for s in sets:
        if s.spec is not spec and s.spec != spec:
            raise PreconditionError("sets live over different systems")
    return sets


def union_all(spec: SystemSpec, sets) -> ClopenSet:
    """Union of the sets: their masks OR-ed on the widest window, canonicalized once."""
    return _union_masks(spec, [(spec.ladder_size(s.lo, s.hi), s.mask) for s in _over(spec, sets)])


def _union_masks(spec: SystemSpec, sized) -> ClopenSet:
    """Union of (size, mask) pairs, each mask on the ladder window of its
    size: the masks OR-ed on the widest window, canonicalized once."""
    size = max((s for s, _ in sized), default=spec.floor)
    mask = 0
    for s, m in sized:
        mask |= m if s == size else _expand_words(spec, m, spec.ladder_window(s), size)
    return ClopenSet._canonical(spec, mask, spec.ladder_window(size))


def check_partition(spec: SystemSpec, cells) -> None:
    """Raise NotPartitionError unless the cells tile the whole space.

    Cardinality argument on a common window: the union covers iff its mask
    is the full mask, and the cells are disjoint iff their word counts add
    up to the union's.
    """
    cells = _over(spec, cells)
    if not cells:
        raise NotPartitionError("no cells")
    size = max(spec.ladder_size(c.lo, c.hi) for c in cells)
    expanded = [_expand_words(spec, c.mask, (c.lo, c.hi), size) for c in cells]
    lo, hi = spec.ladder_window(size)
    whole = spec.full_mask(hi - lo + 1)
    covered = 0
    for m in expanded:
        covered |= m
    if covered != whole:
        raise NotPartitionError("cells leave a gap")
    if sum(m.bit_count() for m in expanded) != whole.bit_count():
        raise NotPartitionError("cells overlap")
