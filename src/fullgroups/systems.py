"""Concrete Cantor minimal systems: odometers and primitive substitution subshifts.

Both kinds expose the same small surface used by the rest of the package:
admissible words over finite index windows, computable base points, and the
translation action of T on finite words. Words are tuples of symbols, with
int digits for odometers and single-character strings for subshifts.

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
- Subshifts: bit i is the i-th word of sorted(language(spec, width)). One
  table per (system, width, slice) holds the fiber mask of each inner word
  and the inner index of each outer word; T^n only moves the window.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, reduce
from math import gcd, prod

from .errors import ParseError, PreconditionError, SystemConfigError

Word = tuple  # tuple of int digits (odometer) or 1-char strings (subshift)

# The two hand-kept caches of the package, keyed by spec value (specs are
# frozen dataclasses, so equal descriptions share entries); everything else
# memoized per system is a functools cache on the function that computes it.
# _LANG_CACHE is read by the benchmark worker, so it keeps its name and shape.
_LANG_CACHE: dict = {}
# Mask-kernel memo (word indexes, fiber tables, repunits). A functools cache
# on _fiber_table trims the traced self time of clopen._shrink below that of
# clopen._expand_words, a ranking that bench/tests/test_tracer.py pins.
_EXT_CACHE: dict = {}

# Widest odometer window, in digit words, that is enumerated or held as a
# mask: an int of this many bits is 512 KiB.
_ODOMETER_WORD_CAP = 1 << 22


def _lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


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

    def block_size(self, depth: int) -> int:
        """Number of digit words of the given depth, i.e. p_1 * ... * p_depth."""
        cycles, rest = divmod(depth, len(self.bases))
        return prod(self.bases) ** cycles * prod(self.bases[:rest])

    def word_value(self, w: Word) -> int:
        """Integer encoded by a digit word, least significant digit first."""
        v, scale = 0, 1
        for i, d in enumerate(w):
            v += d * scale
            scale *= self.base_at(i)
        return v

    def digit_words(self, start: int, stop: int):
        """All digit words over the coordinates start..stop-1."""
        return itertools.product(*(range(self.base_at(i)) for i in range(start, stop)))

    def value_word(self, v: int, depth: int) -> Word:
        digits = []
        for i in range(depth):
            p = self.base_at(i)
            digits.append(v % p)
            v //= p
        return tuple(digits)

    def render_word(self, w: Word) -> str:
        return "".join(str(d) for d in w)

    def parse_word(self, text: str) -> Word:
        if not (text.isascii() and text.isdigit()):
            raise ParseError(f"bad odometer word {text!r}")
        word = tuple(int(c) for c in text)
        for i, d in enumerate(word):
            if d >= self.base_at(i):
                raise ParseError(f"digit {d} too large at position {i} in {text!r}")
        return word

    def word_admissible(self, w: Word, offset: int = 0) -> bool:
        return all(isinstance(d, int) and 0 <= d < self.base_at(offset + i) for i, d in enumerate(w))

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

    def word_bit(self, w: Word, width: int) -> int:
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
        key = (self, b, width)
        repunit = _EXT_CACHE.get(key)
        if repunit is None:
            whole, step = self.mask_width(width), self.block_size(b)
            repunit = _EXT_CACHE[key] = ((1 << whole) - 1) // ((1 << step) - 1)
        return mask * repunit

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

    # -- per-kind bodies of the module-level functions ---------------------

    def build_language(self, length: int) -> frozenset:
        self.mask_width(length)
        return frozenset(self.digit_words(0, length))

    def base_point(self, which: str):
        if which == "primary":
            return OdometerPoint(self, (), (0,)), True
        pt = OdometerPoint(self, (), (1, 0))
        return pt, pt.orbit_certificate()


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

    def render_word(self, w: Word) -> str:
        return "".join(w)

    def parse_word(self, text: str) -> Word:
        letters = set(self.alphabet)
        if not text or any(c not in letters for c in text):
            raise ParseError(f"bad word {text!r} for alphabet {sorted(letters)}")
        return tuple(text)

    def word_admissible(self, w: Word, offset: int = 0) -> bool:
        return w in language(self, len(w))

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

    def word_index(self, width: int) -> tuple[tuple, dict]:
        """(sorted(language(self, width)), word -> its position), built once per width."""
        key = (self, width)
        index = _EXT_CACHE.get(key)
        if index is None:
            words = tuple(sorted(language(self, width)))
            index = _EXT_CACHE[key] = (words, {w: i for i, w in enumerate(words)})
        return index

    def full_mask(self, width: int) -> int:
        return (1 << len(language(self, width))) - 1

    def word_bit(self, w: Word, width: int) -> int:
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

    # -- per-kind bodies of the module-level functions ---------------------

    def build_language(self, length: int) -> frozenset:
        return frozenset(tuple(w) for w in _subst_factors(self, length))

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

    pairs = _subst_factors(spec, 2)
    k = 0
    seeds = {a: a for a in spec.alphabet}
    while any(len(w) < length for w in seeds.values()):
        k += 1
        seeds = {a: spec.apply_rule(w) for a, w in seeds.items()}
    out = set()
    for ab in pairs:
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
    prev = len(_subst_factors(spec, 1))
    scan = 2
    while scan <= depth:
        cur = len(_subst_factors(spec, scan))
        if cur <= prev:
            raise SystemConfigError(
                f"substitution generates a periodic shift (factor counts plateau at length {scan})"
            )
        prev = cur
        scan += 1


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


def language(spec: SystemSpec, length: int) -> frozenset:
    """All admissible words of the given length (as tuples)."""
    if length < 1:
        raise PreconditionError("word length must be >= 1")
    per = _LANG_CACHE.setdefault(spec, {})
    if length not in per:
        per[length] = spec.build_language(length)
    return per[length]


def _fiber_table(spec: SubstitutionSpec, width: int, a: int, b: int) -> tuple[list, list]:
    """(fibers, proj) between the (b-a)-word index and the width-word index.

    fibers[j] is the mask of the width-words w with w[a:b] the j-th inner
    word, and proj[i] is the inner index of the i-th width-word's slice.
    Built once per key.
    """
    key = (spec, width, a, b)
    table = _EXT_CACHE.get(key)
    if table is None:
        inner = spec.word_index(b - a)[1]
        proj = [inner[w[a:b]] for w in spec.word_index(width)[0]]
        fibers = [0] * len(inner)
        for i, j in enumerate(proj):
            fibers[j] |= 1 << i
        table = _EXT_CACHE[key] = (fibers, proj)
    return table


def _bits(mask: int) -> list[int]:
    """Positions of the set bits of a mask, ascending."""
    return [i for i, c in enumerate(bin(mask)[:1:-1]) if c == "1"]


# ---------------------------------------------------------------------------
# Points


@dataclass(frozen=True)
class OdometerPoint:
    """Eventually periodic digit stream: digit(i) = pre[i], then period cycles."""

    spec: OdometerSpec
    pre: tuple[int, ...]
    period: tuple[int, ...]

    kind = "odometer"

    def __post_init__(self):
        if not self.period:
            raise PreconditionError("point needs a nonempty periodic tail")
        span = len(self.pre) + _lcm(len(self.period), len(self.spec.bases))
        for i in range(span):
            d = self.digit(i)
            if not 0 <= d < self.spec.base_at(i):
                raise PreconditionError(f"digit {d} invalid at position {i}")

    def digit(self, i: int) -> int:
        if i < len(self.pre):
            return self.pre[i]
        return self.period[(i - len(self.pre)) % len(self.period)]

    def window(self, lo: int, hi: int) -> Word:
        if lo < 0:
            raise PreconditionError("odometer coordinates start at 0")
        return tuple(self.digit(i) for i in range(lo, hi + 1))

    def _tail_constant(self, start: int, value_of) -> bool:
        # True iff digit(i) == value_of(i) for all i >= start; both sides are
        # eventually periodic so one aligned cycle beyond the pre decides.
        head_end = max(start, len(self.pre))
        span = _lcm(len(self.period), len(self.spec.bases))
        return all(self.digit(i) == value_of(i) for i in range(start, head_end + span))

    def eventually_zero(self) -> bool:
        return self._tail_constant(len(self.pre), lambda i: 0)

    def eventually_top(self) -> bool:
        return self._tail_constant(len(self.pre), lambda i: self.spec.base_at(i) - 1)

    def shifted(self, n: int) -> "OdometerPoint":
        """T^n of this point: digit addition with carry, exact on the stream."""
        if n == 0:
            return self
        span = _lcm(len(self.period), len(self.spec.bases))
        digits = [self.digit(i) for i in range(len(self.pre) + span)]
        carry = n
        i = 0
        while carry != 0:
            if i >= len(digits):
                # carry is now +1 or -1 entering the periodic tail
                if carry == 1 and self._tail_constant(i, lambda j: self.spec.base_at(j) - 1):
                    return OdometerPoint(self.spec, tuple(digits), (0,))
                if carry == -1 and self._tail_constant(i, lambda j: 0):
                    top_pre = tuple(digits)
                    period = tuple(
                        self.spec.base_at(len(top_pre) + j) - 1 for j in range(span)
                    )
                    return OdometerPoint(self.spec, top_pre, period)
                digits.append(self.digit(i))
            p = self.spec.base_at(i)
            v = digits[i] + carry
            digits[i] = v % p
            carry = (v - digits[i]) // p
            i += 1
        # align the processed prefix to a whole number of period cycles
        end = len(self.pre)
        while end < max(i, len(self.pre)) or (end - len(self.pre)) % len(self.period):
            end += 1
        while len(digits) < end:
            digits.append(self.digit(len(digits)))
        return OdometerPoint(self.spec, tuple(digits[:end]), self.period)

    def orbit_certificate(self) -> bool:
        """True iff this point is certified to lie outside the orbit of 0^inf.

        The orbit of 0^inf consists exactly of the eventually-zero (n >= 0)
        and eventually-top (n < 0) digit streams.
        """
        return not self.eventually_zero() and not self.eventually_top()

    def certified_apart(self, other: "OdometerPoint") -> bool:
        """True iff the two points are certified to lie in different orbits.

        An uncertified odometer point is eventually constant, so it lies in
        the orbit of 0^inf; the other point is then certified outside it.
        """
        return self.orbit_certificate() != other.orbit_certificate()


@dataclass(frozen=True)
class SubstitutionPoint:
    """Two-sided fixed point of rule^power with seed pair left.right, shifted by `shift`."""

    spec: SubstitutionSpec
    left: str
    right: str
    power: int
    shift: int = 0

    kind = "substitution"

    def __post_init__(self):
        lw = self.spec.apply_rule(self.left, self.power)
        rw = self.spec.apply_rule(self.right, self.power)
        if not (lw.endswith(self.left) and rw.startswith(self.right)):
            raise PreconditionError("seed pair is not fixed by the given rule power")
        if (self.left, self.right) not in language(self.spec, 2):
            raise PreconditionError("seed pair is not an admissible two-letter word")

    def _expand(self, need_left: int, need_right: int) -> tuple[str, str]:
        lw, rw = self.left, self.right
        while len(lw) < need_left or len(rw) < need_right:
            lw = self.spec.apply_rule(lw, self.power)
            rw = self.spec.apply_rule(rw, self.power)
        return lw, rw

    def window(self, lo: int, hi: int) -> Word:
        lo, hi = lo + self.shift, hi + self.shift
        lw, rw = self._expand(max(1, -lo), max(1, hi + 1))
        out = []
        for i in range(lo, hi + 1):
            out.append(rw[i] if i >= 0 else lw[len(lw) + i])
        return tuple(out)

    def shifted(self, n: int) -> "SubstitutionPoint":
        if n == 0:
            return self
        return SubstitutionPoint(self.spec, self.left, self.right, self.power, self.shift + n)

    def orbit_certificate(self) -> bool:
        return False  # no distinct-orbit certification procedure for subshifts

    def certified_apart(self, other: "SubstitutionPoint") -> bool:
        return False


PointRep = OdometerPoint | SubstitutionPoint


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
                if (left, right) in language(spec, 2):
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


def point_window(p: PointRep, lo: int, hi: int) -> Word:
    """Coordinates x[lo..hi] of the point, exact."""
    if lo > hi:
        raise PreconditionError("window must satisfy lo <= hi")
    return p.window(lo, hi)
