"""Reference computations the tests compare the package against.

They read an element's cocycle one piece at a time, the slow way the
level tables replace, peel first returns by clopen algebra and build a
tower level from them, move an odometer digit stream by digit
addition with carry, and integrate an odometer cocycle against the
invariant measure.
"""

from fractions import Fraction
from math import lcm

from fullgroups.clopen import ClopenSet, _expand_words, cylinder
from fullgroups.group import GroupElement
from fullgroups.systems import language


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
