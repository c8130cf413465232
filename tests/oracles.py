"""Reference computations the tests compare the package against.

They read an element's cocycle the slow ways its tables replace: one
piece at a time, on a set or at a point by the pieces' decoded words,
and on a level's atoms from atom masks, where every level now reads the
element's table. They peel first returns by clopen algebra and build a
tower level from them, move an odometer digit stream by digit
addition with carry, and integrate an odometer cocycle against the
invariant measure. They also take the forward image of a clopen set,
the order of a level permutation as the lcm of its cycle lengths, and
carve the generators of an infinite direct sum of Z from disjoint
cylinders. `rotation_by_search` recognizes a rotation the slow way the
peel in `canon.is_n_rotation` replaces: per band it tries every exponent
with `power` and `agree_on`, then rebuilds the form as an element.
`compose_pairwise` composes by clopen algebra, canonicalizing every
translate, intersection and merge, where `group.compose` canonicalizes
once per power; `swap_site_by_search` finds the kernel decomposition's
swap site by the p-by-k overlap search that `canon._find_swap_site`'s one
scan per depth replaces.
"""

from fractions import Fraction
from functools import cache
from math import lcm

from fullgroups.canon import Refusal, RotationForm
from fullgroups.clopen import (
    ClopenSet,
    _expand_words,
    central_cylinder,
    cylinder,
    empty,
    union_all,
)
from fullgroups.errors import PreconditionError
from fullgroups.group import (
    GroupElement,
    _build,
    cocycle_bound,
    compose,
    equals,
    first_overlap,
    identity,
    invert,
    ladder_sizes,
    support,
)
from fullgroups.systems import SystemSpec, language
from fullgroups.towers import first_return, induced


def cocycle_table(s: GroupElement) -> tuple[tuple[int, int], dict]:
    """(window, word -> power) over the hull ladder window of all pieces."""
    spec = s.spec
    size = max(spec.ladder_size(c.lo, c.hi) for _, c in s.pieces)
    win = spec.ladder_window(size)
    table: dict = {}
    for n, c in s.pieces:
        for w in spec.decode(_expand_words(spec, c.mask, (c.lo, c.hi), size), win[1] - win[0] + 1):
            table[w] = n
    return win, table


def index_by_measure(s: GroupElement) -> Fraction:
    """The integral of s's cocycle against the odometer's invariant measure,
    Σ n·μ(C_n), where a piece on the depth-d window has μ = |mask| / p_1⋯p_d.

    The index is this integral (Giordano–Putnam–Skau 1999), read with
    neither a tower sequence nor an anchor point.
    """
    spec = s.spec
    return sum(
        Fraction(n * c.mask.bit_count(), spec.block_size(c.hi - c.lo + 1)) for n, c in s.pieces
    )


def cocycle_values_on(s: GroupElement, a: ClopenSet) -> set[int]:
    """Set of cocycle values f_S takes on the clopen set A."""
    return {n for n, c in s.pieces if not c.disjoint(a)}


def cocycle_by_scan(s: GroupElement, p) -> int:
    """f_S at the point, found by scanning the pieces for the one whose
    decoded words hold the point's word; an odometer point's word is read
    off its stream moved by digit addition with carry."""
    for n, c in s.pieces:
        if p.kind == "odometer":
            pre, period = odometer_shifted(p.spec, p.pre, p.period, p.shift)
            word = "".join(str(stream_digit(pre, period, i)) for i in range(c.lo, c.hi + 1))
        else:
            word = p.window(c.lo, c.hi)
        if word in c.sorted_words():
            return n
    raise AssertionError("point escaped the piece partition")


def mask_rows(xi, s: GroupElement) -> list[list[set[int]]]:
    """Per tower, per atom T^i(B), the powers of s there, read from atom
    masks: each atom is T^i of its base mask, expanded with the pieces to
    one window and intersected with each. An odometer level of height P
    costs P^2 bits this way, which the residue read avoids."""
    spec = xi.spec
    atoms = [[spec.translate_mask(b.mask, b.lo, b.hi, i) for i in range(h)] for b, h in xi.towers]
    size = max(
        *(spec.ladder_size(lo, hi) for row in atoms for _, lo, hi in row),
        *(spec.ladder_size(c.lo, c.hi) for _, c in s.pieces),
    )
    pieces = [(n, _expand_words(spec, c.mask, (c.lo, c.hi), size)) for n, c in s.pieces]
    return [
        [{n for n, m in pieces if m & _expand_words(spec, a, (lo, hi), size)} for a, lo, hi in row]
        for row in atoms
    ]


def peeled_first_return(a: ClopenSet) -> dict:
    """Return time k -> cell A_k of A, peeled one k at a time:
    A_k = {x in A : T^k x in A, T^j x not in A for 0 < j < k}."""
    remaining, cells, k = a, {}, 0
    while not remaining.is_empty():
        k += 1
        back = a.translate(-k)
        hit = remaining.intersect(back)
        if not hit.is_empty():
            cells[k] = hit
            remaining = remaining.difference(back)
    return cells


def return_word_towers(base: ClopenSet) -> tuple[tuple[ClopenSet, int], ...]:
    """Towers over B with one tower per return word, in order of height.

    Each first-return cell A_k is split by the words it reads on the hull
    of B's window and the raw window of T^{-k}(B), that is, by the word
    from B to its next return; cells of one height are sorted by their
    least word.
    """
    spec = base.spec
    towers = []
    for k, cell in sorted(peeled_first_return(base).items()):
        _, lo_k, hi_k = spec.translate_mask(base.mask, base.lo, base.hi, -k)
        lo, hi = min(base.lo, lo_k), max(base.hi, hi_k)
        parts = [cylinder(spec, w, lo).intersect(cell) for w in language(spec, hi - lo + 1)]
        parts = sorted((c for c in parts if not c.is_empty()), key=ClopenSet.lex_least_word)
        towers.extend((c, k) for c in parts)
    return tuple(towers)


def stream_digit(pre: tuple, period: tuple, i: int) -> int:
    """Digit i of the eventually periodic stream pre.period^inf."""
    if i < len(pre):
        return pre[i]
    return period[(i - len(pre)) % len(period)]


def odometer_shifted(spec, pre: tuple, period: tuple, n: int) -> tuple[tuple, tuple]:
    """(pre, period) of T^n of the stream pre.period^inf, by digit addition
    with carry on the stream itself."""
    if n == 0:
        return pre, period
    span = lcm(len(period), len(spec.bases))

    def tail_constant(start, value_of):
        # digit(i) == value_of(i) for all i >= start; both sides are
        # eventually periodic, so one aligned cycle beyond pre decides
        end = max(start, len(pre)) + span
        return all(stream_digit(pre, period, i) == value_of(i) for i in range(start, end))

    digits = [stream_digit(pre, period, i) for i in range(len(pre) + span)]
    carry = n
    i = 0
    while carry != 0:
        if i >= len(digits):
            # carry is now +1 or -1 entering the periodic tail
            if carry == 1 and tail_constant(i, lambda j: spec.base_at(j) - 1):
                return tuple(digits), (0,)
            if carry == -1 and tail_constant(i, lambda j: 0):
                top = tuple(spec.base_at(len(digits) + j) - 1 for j in range(span))
                return tuple(digits), top
            digits.append(stream_digit(pre, period, i))
        p = spec.base_at(i)
        v = digits[i] + carry
        digits[i] = v % p
        carry = (v - digits[i]) // p
        i += 1
    # align the processed prefix to a whole number of period cycles
    end = len(pre)
    while end < max(i, len(pre)) or (end - len(pre)) % len(period):
        end += 1
    while len(digits) < end:
        digits.append(stream_digit(pre, period, len(digits)))
    return tuple(digits[:end]), period


def image(s: GroupElement, a: ClopenSet) -> ClopenSet:
    """Forward image S(A), exact."""
    return union_all(s.spec, (a.intersect(c).translate(n) for n, c in s.pieces))


def perm_order(a) -> int:
    """Order of a level permutation, one one-line permutation per tower:
    the lcm of the lengths of the cycles through each level."""

    def cycle_length(pv, i):
        j, length = pv[i], 1
        while j != i:
            j, length = pv[j], length + 1
        return length

    return lcm(*(cycle_length(pv, i) for pv in a for i in range(len(pv))))


def _carve_next_cylinder(spec: SystemSpec, used: ClopenSet) -> ClopenSet:
    """Lexicographically least proper cylinder inside the complement of `used`.

    Proper: a sibling word is left behind at the same window, so later calls
    always find room. Deterministic."""
    rest = used.complement()
    if rest.is_empty():
        raise PreconditionError("nothing left to carve")
    for size in ladder_sizes(spec.floor, "proper cylinder to carve"):
        lo, hi = spec.ladder_window(size)
        words = sorted(
            w for w in language(spec, hi - lo + 1) if cylinder(spec, w, lo).subset(rest)
        )
        if len(words) >= 2:
            return cylinder(spec, words[0], lo)


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
    used = _directsum_step(spec, k - 1)[1] if k > 1 else empty(spec)
    cyl = _carve_next_cylinder(spec, used)
    # inside cyl, find a return cell and a sub-cylinder moved off itself
    rf = first_return(spec, cyl)
    t = min(rf.cells)
    for depth in ladder_sizes(spec.floor, "separated sub-cylinder"):
        lo, hi = spec.ladder_window(depth)
        for w in sorted(language(spec, hi - lo + 1)):
            b_prime = cylinder(spec, w, lo).intersect(rf.cells[t])
            if not b_prime.is_empty() and b_prime.translate(t).disjoint(b_prime):
                b_second = b_prime.translate(t)
                gen = compose(induced(spec, b_prime), invert(induced(spec, b_second)))
                return gen, used.union(b_prime).union(b_second)


def power(s: GroupElement, e: int) -> GroupElement:
    """s^e, composed from the identity."""
    if e < 0:
        return power(invert(s), -e)
    out = identity(s.spec)
    for _ in range(e):
        out = compose(out, s)
    return out


def agree_on(s1: GroupElement, s2: GroupElement, a: ClopenSet) -> bool:
    """True iff the two elements act identically on every point of A."""
    if a.is_empty():
        return True
    diff = compose(invert(s2), s1)
    return support(diff).disjoint(a)


def rotation_by_search(s: GroupElement, xi):
    """RotationForm or Refusal, as `canon.is_n_rotation` answers, found by
    trying each band exponent e in -r_max..r_max against s and then
    checking the rebuilt form equals s."""
    min_h = min(xi.heights())
    r_max = cocycle_bound(s) // min_h + 1
    supp = support(s)
    u_levels, d_levels = [], []
    for band_of, levels in ((xi.u_set, u_levels), (xi.d_set, d_levels)):
        for i in range(min_h // 2):
            band = band_of(i)
            if supp.disjoint(band):
                continue
            gen = induced(xi.spec, band)
            for e in range(-r_max, r_max + 1):
                if e != 0 and agree_on(s, power(gen, e), band):
                    levels.append((i, e))
                    break
            else:
                return Refusal("no band exponent matches")
    form = RotationForm(xi, tuple(u_levels), tuple(d_levels))
    if not equals(form.to_element(), s):
        return Refusal("support extends past the boundary bands")
    return form


def compose_pairwise(s1: GroupElement, s2: GroupElement) -> GroupElement:
    """s1 after s2 by clopen algebra: each s2 piece intersected with each
    s1 piece moved by T^-n2, every set canonical, merged by power."""
    raw = []
    for n2, c2 in s2.pieces:
        for n1, c1 in s1.pieces:
            cell = c2.intersect(c1.translate(-n2))
            if not cell.is_empty():
                raw.append((n1 + n2, cell))
    return _build(s1.spec, raw)


def swap_site_by_search(spec: SystemSpec, x, y, q: int, p_floor: int):
    """(C, p) as `canon._find_swap_site` answers, by trying every p from
    max(p_floor, 1) to 4q at each depth, and for each every k in [1, 2q]
    against Y = C ∪ T^p(C)."""
    for depth in ladder_sizes(1, "swap site"):
        c = central_cylinder(spec, x, depth)
        for p in range(max(p_floor, 1), 4 * q + 1):
            t = c.translate(p)
            if not c.disjoint(t):
                continue
            yset = c.union(t)
            if first_overlap(yset, range(1, 2 * q + 1)) is not None:
                continue
            if any(yset.contains_point(y.shifted(-j)) for j in range(-q, q + 1)):
                continue
            return c, p
