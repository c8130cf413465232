"""Concrete Cantor minimal systems: odometers and primitive substitution subshifts.

Both kinds expose the same small surface used by the rest of the package:
admissible words over finite index windows, computable base points, and the
translation action of T on finite words. A word is a string with one
character per symbol: a digit for odometers (bases stop at 10) and a letter
for subshifts. `symbols` gives its tuple form, read only by
`group.element_hash`, whose pinned digests hash int digits on odometers.

Odometers are one-sided (coordinates 0, 1, 2, ...) and T adds 1 with carry at
position 0. Substitution subshifts are two-sided and T is the left shift,
(Tx)[i] = x[i+1].

The window ladder is defined here, on the two spec classes, and nowhere
else: `ladder_window(size)` is the depth window [0, size-1] for odometers
(size >= 1) and the symmetric window [-size, size] for subshifts (size >= 0),
with `floor` the smallest size and `ladder_size(lo, hi)` the smallest size
whose window contains [lo, hi].

The specs also own the encoding of word sets: a set of words on a window of
a given width is one int bitmask over that width's word index.
- Odometers: bit v is the digit word of value v mod p_1...p_d, so a set is
  a residue set. Expansion multiplies by a repunit, a rung drops iff the
  mask repeats its low block, and T^n is a rotation. Masks wider than
  `_ODOMETER_WORD_CAP` bits are refused.
- Subshifts: bit i is the i-th admissible width-word in sorted order, held
  as a string in `word_index(width)`, scanned at widths <= 2 and powers of
  two and read off a power of two's words as prefixes at any other width
  (`language` reads it too). One table per (system, width, slice) holds
  the fiber mask of each inner word and the inner index of each outer
  word; T^n only moves the window.

A point of either kind is a fixed stream plus an orbit offset `shift`:
`shifted(n)` adds n to it, and `window` and `bit` apply it when they read.
`bit(lo, hi)` is the word-index bit of the point's word on a window, so a
set holds the point iff that bit of its mask is set: on an odometer the
bit is (stream value + shift) mod p_1...p_{hi+1}, read with no word built.

Both specs read an element's cocycle on the atoms of a tower level from
its table (`cocycle_rows`): one power per atom, None where it takes more.
An odometer atom i over base residue v is the residue v + i; a subshift
atom i is the base's words moved to [lo - i, hi - i], each read at a slice.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, reduce
from math import lcm, prod

from .errors import ParseError, PreconditionError, SystemConfigError

_DIGITS = "0123456789"

# Widest odometer window, in digit words, that is enumerated or held as a
# mask: an int of this many bits is 512 KiB.
_ODOMETER_WORD_CAP = 1 << 22


@dataclass(frozen=True)
class OdometerSpec:
    """Odometer with a purely periodic base sequence p_1, p_2, ... = cycle repeated."""

    bases: tuple[int, ...]

    kind = "odometer"
    floor = 1  # the depth-1 window [0, 0]

    def __post_init__(self):
        # every cache lookup hashes the spec: take the field hash once
        object.__setattr__(self, "_hash", hash((self.bases,)))
        if not self.bases:
            raise SystemConfigError("odometer needs at least one base")
        for p in self.bases:
            if not isinstance(p, int) or p < 2:
                raise SystemConfigError(f"base {p!r} is not an integer >= 2")
            if p > 10:
                raise SystemConfigError(
                    f"base {p} unsupported: bases up to 10 keep digit words one character per symbol"
                )

    def __hash__(self):
        return self._hash

    def base_at(self, i: int) -> int:
        return self.bases[i % len(self.bases)]

    @cache
    def block_size(self, depth: int) -> int:
        """Number of digit words of the given depth, i.e. p_1 * ... * p_depth."""
        cycles, rest = divmod(depth, len(self.bases))
        return prod(self.bases) ** cycles * prod(self.bases[:rest])

    def word_value(self, w: str) -> int:
        """Integer encoded by a digit word, least significant digit first."""
        v, scale = 0, 1
        for i, d in enumerate(w):
            v += int(d) * scale
            scale *= self.base_at(i)
        return v

    def value_word(self, v: int, depth: int) -> str:
        digits = []
        for i in range(depth):
            v, d = divmod(v, self.base_at(i))
            digits.append(_DIGITS[d])
        return "".join(digits)

    def symbols(self, w: str) -> tuple[int, ...]:
        return tuple(map(int, w))

    def parse_word(self, text: str) -> str:
        if not text or not self.word_admissible(text):
            raise ParseError(f"bad odometer word {text!r} for bases {list(self.bases)}")
        return text

    def word_admissible(self, w: str) -> bool:
        """Every character is an ASCII digit below the base of its position."""
        return all(d in _DIGITS[: self.base_at(i)] for i, d in enumerate(w))

    # -- window geometry ---------------------------------------------------

    def ladder_window(self, size: int) -> tuple[int, int]:
        return (0, size - 1)

    def ladder_size(self, lo: int, hi: int) -> int:
        """Smallest ladder size whose window contains [lo, hi]."""
        if lo < 0:
            raise PreconditionError("odometer windows start at 0")
        return max(hi + 1, self.floor)

    def word_window(self, offset: int, length: int) -> tuple[int, int]:
        """Window of a cylinder word placed at the offset."""
        if offset != 0:
            raise PreconditionError("odometer cylinders use offset 0 only")
        return (0, length - 1)

    # -- word sets as masks: bit v is the digit word of value v -------------

    def mask_width(self, depth: int) -> int:
        """Bits of a mask on the depth window, p_1 * ... * p_depth, capped."""
        size = self.block_size(depth)
        if size > _ODOMETER_WORD_CAP:
            raise PreconditionError(
                f"odometer window of depth {depth} has {size} words, over "
                f"_ODOMETER_WORD_CAP = 2^{_ODOMETER_WORD_CAP.bit_length() - 1}"
            )
        return size

    def full_mask(self, width: int) -> int:
        return (1 << self.mask_width(width)) - 1

    def word_bit(self, w: str, width: int) -> int:
        return self.word_value(w)

    def encode(self, words, width: int) -> int:
        self.mask_width(width)
        return reduce(lambda m, w: m | 1 << self.word_value(w), words, 0)

    def decode(self, mask: int, width: int) -> list:
        return [self.value_word(v, width) for v in _bits(mask)]

    def expand_mask(self, mask: int, width: int, a: int, b: int) -> int:
        """Mask of the width-words w with w[a:b] in the set; windows share
        their left end, so a == 0 and every digit tail is appended: the mask
        times the repunit with one bit per multiple of p_1 * ... * p_b."""
        return mask * _repunit(self, b, width)

    def shrink_mask(self, mask: int, width: int, a: int, b: int) -> int | None:
        """Mask one rung down (width == b + 1), or None unless the set is the
        low block repeated once per digit of coordinate b."""
        p = self.base_at(b)
        if mask.bit_count() % p:
            return None
        step = self.block_size(b)
        # the low block repeats iff the mask is step-periodic
        if mask >> step != mask & ((1 << step * (p - 1)) - 1):
            return None
        return mask & ((1 << step) - 1)

    def translate_mask(self, mask: int, lo: int, hi: int, n: int):
        """T^n adds n to every value mod the block size: a rotation, and the
        window stays."""
        size = self.block_size(hi + 1)
        n %= size
        return ((mask << n) | (mask >> (size - n))) & ((1 << size) - 1), lo, hi

    def cocycle_rows(self, level, s):
        """Per tower of the level, one list over its atoms i of the power s
        takes on T^i(base), None where it takes more than one, read from
        s's residue table.

        The table holds s's power on each residue mod P_K = p_1...p_K, K the
        depth of its window, and atom i of a tower over a base on depth d is
        its base residues plus i mod P_d. With K <= d each residue reads one
        entry, at (v + i) mod P_K: one base residue v reads the table turned
        to start at v, repeated to height h. With K > d it reads every entry
        congruent to v + i mod P_d, so a power that changes inside the atom
        shows as a second value.
        """
        _, hi, powers = s.table
        table_size = len(powers)
        for b, h in level.towers:
            step = self.block_size(min(b.hi, hi) + 1)
            residues = _bits(b.mask)
            if step == table_size and len(residues) == 1:
                v = residues[0] % step
                yield ((powers[v:] + powers[:v]) * -(-h // step))[:h]
            else:
                yield [
                    _one({powers[r] for v in residues for r in range((v + i) % step, table_size, step)})
                    for i in range(h)
                ]

    # -- per-kind bodies of the module-level functions ---------------------

    def base_point(self, which: str):
        if which == "primary":
            return self.point((), (0,)), True
        pt = self.point((), (1, 0))
        return pt, pt.orbit_certificate()

    def point(self, pre: tuple[int, ...], period: tuple[int, ...]) -> "OdometerPoint":
        """The point with digit stream pre.period^inf, checked here once:
        `shifted` moves only the orbit offset."""
        if not period:
            raise PreconditionError("point needs a nonempty periodic tail")
        pt = OdometerPoint(self, pre, period)
        for i in range(len(pre) + lcm(len(period), len(self.bases))):
            d = pt.digit(i)
            if not 0 <= d < self.base_at(i):
                raise PreconditionError(f"digit {d} invalid at position {i}")
        return pt


@dataclass(frozen=True)
class SubstitutionSpec:
    """Primitive aperiodic substitution, letter -> nonempty image word."""

    alphabet: tuple[str, ...]
    rule: tuple[tuple[str, str], ...]  # sorted (letter, image) pairs

    kind = "substitution"
    floor = 0  # the radius-0 window [0, 0]

    def __post_init__(self):
        # every cache lookup hashes the spec, the checks below included
        object.__setattr__(self, "_hash", hash((self.alphabet, self.rule)))
        seen = set(self.alphabet)
        if len(seen) != len(self.alphabet) or not self.alphabet:
            raise SystemConfigError("alphabet must be a nonempty set of distinct letters")
        for a in self.alphabet:
            if not (isinstance(a, str) and len(a) == 1):
                raise SystemConfigError(f"letter {a!r} must be a single character")
        rm = dict(self.rule)
        if set(rm) != seen:
            raise SystemConfigError("rule must define an image for every letter, and only those")
        for a, img in self.rule:
            if not img or any(c not in seen for c in img):
                raise SystemConfigError(f"image of {a!r} must be a nonempty word over the alphabet")
        if all(len(img) == 1 for _, img in self.rule):
            raise SystemConfigError("rule never grows; the generated shift space is finite")
        _check_primitive(self)
        _check_aperiodic(self)

    def __hash__(self):
        return self._hash

    @property
    def rule_map(self) -> dict[str, str]:
        return dict(self.rule)

    def apply_rule(self, w: str, times: int = 1) -> str:
        rm = self.rule_map
        for _ in range(times):
            w = "".join(rm[c] for c in w)
        return w

    def symbols(self, w: str) -> tuple[str, ...]:
        return tuple(w)

    def parse_word(self, text: str) -> str:
        letters = set(self.alphabet)
        if not text or any(c not in letters for c in text):
            raise ParseError(f"bad word {text!r} for alphabet {sorted(letters)}")
        return text

    def word_admissible(self, w: str) -> bool:
        return w in self.word_index(len(w))[1]

    # -- window geometry ---------------------------------------------------

    def ladder_window(self, size: int) -> tuple[int, int]:
        return (-size, size)

    def ladder_size(self, lo: int, hi: int) -> int:
        """Smallest ladder size whose window contains [lo, hi]."""
        return max(-lo, hi, self.floor)

    def word_window(self, offset: int, length: int) -> tuple[int, int]:
        """Window of a cylinder word placed at the offset."""
        return (offset, offset + length - 1)

    # -- word sets as masks: bit i is the i-th admissible word --------------

    @cache
    def word_index(self, width: int) -> tuple[tuple[str, ...], dict[str, int]]:
        """(the admissible width-words as sorted strings, word -> its position);
        equal-length strings sort as their letter tuples.

        Only widths <= 2 and powers of two are scanned. In a minimal subshift
        every word extends to the right, so the words of any other width are
        the width-prefixes of the next power of two's: still sorted, with
        repeats adjacent, so `dict.fromkeys` drops them in one pass."""
        if width <= 2 or not width & (width - 1):
            words = tuple(sorted(_subst_factors(self, width)))
        else:
            wide = self.word_index(1 << (width - 1).bit_length())[0]
            words = tuple(dict.fromkeys(w[:width] for w in wide))
        return words, {w: i for i, w in enumerate(words)}

    def full_mask(self, width: int) -> int:
        return (1 << len(self.word_index(width)[0])) - 1

    def word_bit(self, w: str, width: int) -> int:
        return self.word_index(width)[1][w]

    def encode(self, words, width: int) -> int:
        return reduce(lambda m, w: m | 1 << self.word_bit(w, width), words, 0)

    def decode(self, mask: int, width: int) -> list:
        words = self.word_index(width)[0]
        return [words[i] for i in _bits(mask)]

    def expand_mask(self, mask: int, width: int, a: int, b: int) -> int:
        """Mask of the admissible width-words w with w[a:b] in the set."""
        fibers, _ = _fiber_table(self, width, a, b)
        out = 0
        while mask:
            low = mask & -mask
            out |= fibers[low.bit_length() - 1]
            mask ^= low
        return out

    def shrink_mask(self, mask: int, width: int, a: int, b: int) -> int | None:
        """Mask of the (b-a)-words w[a:b], or None unless the set is a union
        of whole fibers; stops at the first fiber it only partly holds."""
        fibers, proj = _fiber_table(self, width, a, b)
        inner, rest = 0, mask
        while rest:
            j = proj[(rest & -rest).bit_length() - 1]
            fiber = fibers[j]
            if fiber & ~mask:
                return None
            inner |= 1 << j
            rest &= ~fiber
        return inner

    def translate_mask(self, mask: int, lo: int, hi: int, n: int):
        """T^n shifts the window by -n and keeps the words."""
        return mask, lo - n, hi - n

    def cocycle_rows(self, level, s):
        """Per tower of the level, one list over its atoms i of the power s
        takes on T^i(base), None where it takes more than one, read from
        s's table.

        Atom i holds the points that read a base word on [b.lo - i, b.hi - i].
        The base words are expanded once, through `_fiber_table`, to the
        least window [lo, hi] around the base's such that [lo - i, hi - i]
        holds the table's window for every i < h, and atom i reads each
        expanded word's entry at its slice there.
        """
        tlo, thi, powers = s.table
        entry = self.word_index(thi - tlo + 1)[1]
        for b, h in level.towers:
            lo, hi = min(b.lo, tlo), max(b.hi, thi + h - 1)
            mask = b.mask
            if (lo, hi) != (b.lo, b.hi):
                mask = self.expand_mask(mask, hi - lo + 1, b.lo - lo, b.hi - lo + 1)
            words = self.decode(mask, hi - lo + 1)
            a, z = tlo - lo, thi - lo + 1
            yield [_one({powers[entry[w[a + i : z + i]]] for w in words}) for i in range(h)]

    # -- per-kind bodies of the module-level functions ---------------------

    def base_point(self, which: str):
        seeds = list(itertools.islice(_fixed_point_seeds(self), 2))
        if not seeds:
            raise SystemConfigError("no fixed-point seed found for substitution")
        if which == "primary":
            return SubstitutionPoint(self, *seeds[0]), True
        # the second seed, or the primary one again when there is no other
        return SubstitutionPoint(self, *seeds[-1]), False


SystemSpec = OdometerSpec | SubstitutionSpec


def _check_primitive(spec: SubstitutionSpec) -> None:
    # Boolean incidence matrix power test, Wielandt bound (n-1)^2 + 1.
    letters = spec.alphabet
    n = len(letters)
    idx = {a: i for i, a in enumerate(letters)}
    reach = [[False] * n for _ in range(n)]
    for a, img in spec.rule:
        for c in img:
            reach[idx[a]][idx[c]] = True
    cur = reach
    for _ in range((n - 1) ** 2 + 1):
        if all(all(row) for row in cur):
            return
        cur = [
            [any(cur[i][k] and reach[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
    raise SystemConfigError("substitution is not primitive")


def _subst_factors(spec: SubstitutionSpec, length: int) -> frozenset:
    """Admissible words of exactly the given length, as a frozenset of strings.

    Words of length <= 2 come from the closure of letters under
    w -> factors(rule(w)); this terminates and is exact for primitive rules
    because a short factor of rule(w) spans at most len(factor) letters of w.
    Longer words are the length-L factors of rule^K(ab) over admissible
    two-letter words ab, with K large enough that every image has length >= L,
    so that any L-window straddles at most two K-blocks.
    """
    if length < 1:
        raise PreconditionError("word length must be >= 1")
    if length <= 2:
        closed = {a for a in spec.alphabet}
        while True:
            new = set(closed)
            for w in closed:
                img = spec.apply_rule(w)
                for ln in (1, 2):
                    for i in range(len(img) - ln + 1):
                        new.add(img[i : i + ln])
            if new == closed:
                break
            closed = new
        return frozenset(w for w in closed if len(w) == length)

    seeds = {a: a for a in spec.alphabet}
    while any(len(w) < length for w in seeds.values()):
        seeds = {a: spec.apply_rule(w) for a, w in seeds.items()}
    out = set()
    for ab in spec.word_index(2)[0]:
        big = seeds[ab[0]] + seeds[ab[1]]
        for i in range(len(big) - length + 1):
            out.add(big[i : i + length])
    return frozenset(out)


def _check_aperiodic(spec: SubstitutionSpec) -> None:
    # Factor-count scan. A plateau p(L+1) == p(L) forces a single periodic
    # orbit (unique right extensions in a minimal shift), which we reject.
    # Strict growth up to the certificate depth is accepted as aperiodic;
    # any periodic primitive rule plateaus at L <= its period, far below
    # this depth for desk-scale rules.
    n = len(spec.alphabet)
    m = max(len(img) for _, img in spec.rule)
    depth = 4 * n * m * m + 4
    prev = 0
    for scan in range(1, depth + 1):
        cur = len(spec.word_index(scan)[0])
        if cur <= prev:
            raise SystemConfigError(
                f"substitution generates a periodic shift (factor counts plateau at length {scan})"
            )
        prev = cur


def make_system(desc: dict) -> SystemSpec:
    """Build a validated system from a plain description dict."""
    kind = desc.get("kind")
    if kind == "odometer":
        bases = desc.get("bases")
        if not isinstance(bases, (list, tuple)):
            raise SystemConfigError("odometer description needs a 'bases' list")
        return OdometerSpec(tuple(bases))
    if kind == "substitution":
        rule = desc.get("rule")
        if not isinstance(rule, dict) or not rule:
            raise SystemConfigError("substitution description needs a 'rule' dict")
        alphabet = desc.get("alphabet")
        if alphabet is None:
            alphabet = sorted(rule)
        return SubstitutionSpec(tuple(alphabet), tuple(sorted(rule.items())))
    raise SystemConfigError(f"unknown system kind {kind!r}")


@cache
def language(spec: SystemSpec, length: int) -> frozenset:
    """All admissible words of the given length, as strings."""
    if length < 1:
        raise PreconditionError("word length must be >= 1")
    return frozenset(spec.decode(spec.full_mask(length), length))


@cache
def _fiber_table(spec: SubstitutionSpec, width: int, a: int, b: int) -> tuple[list, list]:
    """(fibers, proj) between the (b-a)-word index and the width-word index.

    fibers[j] is the mask of the width-words w with w[a:b] the j-th inner
    word, and proj[i] is the inner index of the i-th width-word's slice.
    """
    inner = spec.word_index(b - a)[1]
    proj = [inner[w[a:b]] for w in spec.word_index(width)[0]]
    fibers = [0] * len(inner)
    for i, j in enumerate(proj):
        fibers[j] |= 1 << i
    return fibers, proj


@cache
def _repunit(spec: OdometerSpec, b: int, width: int) -> int:
    """Mask on the width window with one bit per multiple of p_1 * ... * p_b."""
    return ((1 << spec.mask_width(width)) - 1) // ((1 << spec.block_size(b)) - 1)


def _one(powers: set) -> int | None:
    """The one power of the set, or None when it holds more."""
    return powers.pop() if len(powers) == 1 else None


def _bits(mask: int) -> list[int]:
    """Positions of the set bits of a mask, ascending. A sparse mask, such
    as a one-word set on a wide odometer window, is stepped bit by bit
    rather than spelled out in binary."""
    if mask.bit_count() << 6 < mask.bit_length():
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out
    return [i for i, c in enumerate(bin(mask)[:1:-1]) if c == "1"]


# ---------------------------------------------------------------------------
# Points


@dataclass(frozen=True)
class OdometerPoint:
    """T^shift of the eventually periodic digit stream pre.period^inf.

    Carries only move toward higher digits, so the first d digits of T^n x
    are the d-digit word of value (x + n) mod p_1 * ... * p_d.

    Streams come from `OdometerSpec.point`, which checks them once.
    """

    spec: OdometerSpec
    pre: tuple[int, ...]
    period: tuple[int, ...]
    shift: int = 0

    kind = "odometer"

    def digit(self, i: int) -> int:
        """Digit i of the unshifted stream."""
        if i < len(self.pre):
            return self.pre[i]
        return self.period[(i - len(self.pre)) % len(self.period)]

    def window(self, lo: int, hi: int) -> str:
        if lo < 0:
            raise PreconditionError("odometer coordinates start at 0")
        return self.spec.value_word(self.bit(0, hi), hi + 1)[lo:]

    def bit(self, lo: int, hi: int) -> int:
        """Bit of the point's word on the depth window [lo, hi] = [0, hi]:
        its value (stream value + shift) mod p_1 * ... * p_{hi+1}."""
        if lo != 0:
            raise PreconditionError("odometer windows start at 0")
        v, scale = self.shift, 1
        for i in range(hi + 1):
            v += self.digit(i) * scale
            scale *= self.spec.base_at(i)
        return v % scale

    def shifted(self, n: int) -> "OdometerPoint":
        """T^n of this point."""
        if n == 0:
            return self
        return OdometerPoint(self.spec, self.pre, self.period, self.shift + n)

    def orbit_certificate(self) -> bool:
        """True iff this point is certified to lie outside the orbit of 0^inf.

        The orbit of 0^inf consists exactly of the eventually-zero (n >= 0)
        and eventually-top (n < 0) digit streams. A shift stays in its
        orbit, so only the stream is read: one aligned cycle past `pre`.
        """
        tail = range(len(self.pre), len(self.pre) + lcm(len(self.period), len(self.spec.bases)))
        digits = [self.digit(i) for i in tail]
        return any(digits) and digits != [self.spec.base_at(i) - 1 for i in tail]

    def certified_apart(self, other: "OdometerPoint") -> bool:
        """True iff the two points are certified to lie in different orbits.

        An uncertified odometer point is eventually constant, so it lies in
        the orbit of 0^inf; the other point is then certified outside it.
        """
        return self.orbit_certificate() != other.orbit_certificate()


@dataclass(frozen=True)
class SubstitutionPoint:
    """Two-sided fixed point of rule^power with seed pair left.right, shifted by `shift`.

    Seeds come from `_fixed_point_seeds`, which checks them once."""

    spec: SubstitutionSpec
    left: str
    right: str
    power: int
    shift: int = 0

    kind = "substitution"

    def _expand(self, seed: str, need: int) -> str:
        """The first iterate rule^(power*k)(seed) at least `need` letters long."""
        k = 0
        while len(word := _seed_iterate(self.spec, seed, self.power, k)) < need:
            k += 1
        return word

    def window(self, lo: int, hi: int) -> str:
        lo, hi = lo + self.shift, hi + self.shift
        lw = self._expand(self.left, -lo)
        rw = self._expand(self.right, hi + 1)
        return (lw + rw)[len(lw) + lo : len(lw) + hi + 1]

    def bit(self, lo: int, hi: int) -> int:
        """Bit of the point's word on [lo, hi] in the width's word index."""
        return self.spec.word_bit(self.window(lo, hi), hi - lo + 1)

    def shifted(self, n: int) -> "SubstitutionPoint":
        if n == 0:
            return self
        return SubstitutionPoint(self.spec, self.left, self.right, self.power, self.shift + n)

    def certified_apart(self, other: "SubstitutionPoint") -> bool:
        return False  # no distinct-orbit certification procedure for subshifts


PointRep = OdometerPoint | SubstitutionPoint


@cache
def _seed_iterate(spec: SubstitutionSpec, seed: str, power: int, k: int) -> str:
    """rule^(power*k) of a seed word, each iterate built from the one before."""
    return seed if k == 0 else spec.apply_rule(_seed_iterate(spec, seed, power, k - 1), power)


def _fixed_point_seeds(spec: SubstitutionSpec):
    """Deterministic enumeration of (left, right, power) fixed-point seeds."""
    n = len(spec.alphabet)
    for power in range(1, n * n + n + 2):
        for left in sorted(spec.alphabet):
            if not spec.apply_rule(left, power).endswith(left):
                continue
            for right in sorted(spec.alphabet):
                if not spec.apply_rule(right, power).startswith(right):
                    continue
                if spec.word_admissible(left + right):
                    yield left, right, power


@cache
def base_point(spec: SystemSpec, which: str = "primary") -> tuple[PointRep, bool]:
    """Return (point, certified) for the primary or alternate computable point.

    The primary point anchors tower sequences. The alternate point is
    certified to lie in a different orbit for odometers; for subshifts it is
    a different fixed-point seed with no certification (certified=False).
    """
    if which not in ("primary", "alternate"):
        raise PreconditionError(f"unknown base point {which!r}")
    return spec.base_point(which)

