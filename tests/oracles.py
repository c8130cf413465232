"""Reference computations the tests compare the package against.

They read an element's cocycle one piece at a time, the slow way the
level tables replace, and build a tower level from its return words.
"""

from fullgroups.clopen import ClopenSet, _expand_words, cylinder
from fullgroups.group import GroupElement
from fullgroups.systems import language
from fullgroups.towers import first_return


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


def cocycle_values_on(s: GroupElement, a: ClopenSet) -> set[int]:
    """Set of cocycle values f_S takes on the clopen set A."""
    return {n for n, c in s.pieces if not c.disjoint(a)}


def return_word_towers(base: ClopenSet) -> tuple[tuple[ClopenSet, int], ...]:
    """Towers over B with one tower per return word, in order of height.

    Each first-return cell A_k is split by the words it reads on the hull
    of B's window and the raw window of T^{-k}(B), that is, by the word
    from B to its next return; cells of one height are sorted by their
    least word.
    """
    spec = base.spec
    towers = []
    for k, cell in sorted(first_return(spec, base).cells.items()):
        _, lo_k, hi_k = spec.translate_mask(base.mask, base.lo, base.hi, -k)
        lo, hi = min(base.lo, lo_k), max(base.hi, hi_k)
        parts = [cylinder(spec, w, lo).intersect(cell) for w in language(spec, hi - lo + 1)]
        parts = sorted((c for c in parts if not c.is_empty()), key=ClopenSet.lex_least_word)
        towers.extend((c, k) for c in parts)
    return tuple(towers)
