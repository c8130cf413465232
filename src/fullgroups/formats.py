"""Plain-text renderings of sets, elements, towers, reports, witnesses.

Every emitter here has a parser that reproduces an equal value, and
rendering a parsed artifact reproduces the input text byte for byte.
Words render with one character per symbol, so odometer coordinate bases
stay below 10 and substitution alphabets use single-character letters.
"""

from __future__ import annotations

import re

from .canon import Factorization
from .clopen import ClopenSet, cylinder, empty, full, union_all
from .errors import ParseError, PreconditionError
from .group import GroupElement, element_hash, make_element
from .lef import LEFWitness
from .systems import SystemSpec, make_system
from .towers import KRPartition


def render_clopen(c: ClopenSet) -> str:
    if c.is_empty():
        return "EMPTY"
    if c.is_full():
        return "FULL"
    return " + ".join(
        f"{c.spec.render_word(w)}@{c.lo}" for w in c.sorted_words()
    )


def parse_clopen(text: str, spec: SystemSpec) -> ClopenSet:
    text = text.strip()
    if text == "EMPTY":
        return empty(spec)
    if text == "FULL":
        return full(spec)
    parts = []
    for token in text.split("+"):
        token = token.strip()
        if "@" not in token:
            raise ParseError(f"expected word@offset, got {token!r}")
        wtext, _, otext = token.rpartition("@")
        try:
            offset = int(otext)
        except ValueError:
            raise ParseError(f"bad offset in {token!r}")
        word = spec.parse_word(wtext)
        try:
            parts.append(cylinder(spec, word, offset))
        except PreconditionError as exc:  # a word the system cannot place there
            raise ParseError(str(exc))
    return union_all(spec, parts)


def render_element(s: GroupElement, system_name: str) -> str:
    lines = [f"system {system_name}"]
    for power, piece in s.pieces:
        lines.append(f"{render_clopen(piece)} -> {power}")
    return "\n".join(lines) + "\n"


def parse_element(text: str, systems) -> tuple[str, GroupElement]:
    """Parse an element file; systems maps names to system specs."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("system "):
        raise ParseError("element file must start with a 'system <name>' line")
    name = lines[0][len("system "):].strip()
    if name not in systems:
        raise ParseError(f"unknown system {name!r}")
    spec = systems[name]
    pieces = []
    for ln in lines[1:]:
        if " -> " not in ln:
            raise ParseError(f"expected '<clopen> -> <power>', got {ln!r}")
        left, _, right = ln.rpartition(" -> ")
        try:
            power = int(right)
        except ValueError:
            raise ParseError(f"bad power in {ln!r}")
        pieces.append((parse_clopen(left, spec), power))
    return name, make_element(spec, pieces)


def render_towers(xi: KRPartition) -> str:
    lines = []
    for v, (b, h) in enumerate(xi.towers):
        lines.append(f"tower {v}: base={render_clopen(b)} height={h}")
    lines.append(f"base={render_clopen(xi.base())}")
    lines.append(f"top={render_clopen(xi.top())}")
    return "\n".join(lines) + "\n"


def parse_towers(text: str, spec: SystemSpec) -> KRPartition:
    """Towers numbered 0, 1, 2, ... in order, then the base= and top= lines,
    which must be the union of the tower bases and of the tower tops."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 3 or not lines[-2].startswith("base=") or not lines[-1].startswith("top="):
        raise ParseError("expected tower lines, then a 'base=<clopen>' and a 'top=<clopen>' line")
    towers = []
    for v, ln in enumerate(lines[:-2]):
        head, _, rest = ln.partition(": ")
        if head != f"tower {v}" or not rest.startswith("base=") or " height=" not in rest:
            raise ParseError(f"expected 'tower {v}: base=<clopen> height=<h>', got {ln!r}")
        base_text, _, htext = rest[len("base="):].rpartition(" height=")
        try:
            h = int(htext)
        except ValueError:
            raise ParseError(f"bad height in {ln!r}")
        if h < 1:
            raise ParseError(f"tower height below 1 in {ln!r}")
        towers.append((parse_clopen(base_text, spec), h))
    xi = KRPartition(spec, tuple(towers))
    if parse_clopen(lines[-2][len("base="):], spec) != xi.base():
        raise ParseError("the base= line is not the union of the tower bases")
    if parse_clopen(lines[-1][len("top="):], spec) != xi.top():
        raise ParseError("the top= line is not the union of the tower tops")
    return xi


def render_factorization(fac: Factorization) -> str:
    lines = [f"level n={fac.level} n0={fac.n0}"]
    for v, pv in enumerate(fac.permutation.perms):
        lines.append(f"tower {v}: " + " ".join(str(i) for i in pv))
    for i, e in fac.rotation.u_levels:
        lines.append(f"U({i})^{e}")
    for j, e in fac.rotation.d_levels:
        lines.append(f"D({j})^{e}")
    return "\n".join(lines) + "\n"


def parse_factorization(text: str):
    """Numeric content of a factorization report:
    (level, n0, perms, u_levels, d_levels)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    head = re.fullmatch(r"level n=([0-9]+) n0=([0-9]+)", lines[0]) if lines else None
    if head is None:
        raise ParseError("report must start with 'level n=<n> n0=<n0>'")
    n, n0 = int(head[1]), int(head[2])
    perms = []
    u_levels = []
    d_levels = []
    for ln in lines[1:]:
        if ln.startswith("tower "):
            tower, sep, rest = ln.partition(": ")
            if not sep or tower != f"tower {len(perms)}":
                raise ParseError(f"expected 'tower {len(perms)}: <permutation>', got {ln!r}")
            try:
                perms.append(tuple(int(t) for t in rest.split()))
            except ValueError:
                raise ParseError(f"bad permutation in {ln!r}")
        elif ln.startswith(("U(", "D(")):
            band, _, etext = ln.partition(")^")
            try:
                i = int(band[2:])
                e = int(etext)
            except ValueError:
                raise ParseError(f"bad rotation line {ln!r}")
            (u_levels if ln[0] == "U" else d_levels).append((i, e))
        else:
            raise ParseError(f"unexpected report line {ln!r}")
    return n, n0, tuple(perms), tuple(u_levels), tuple(d_levels)


def render_lef_witness(w: LEFWitness) -> str:
    lines = [
        f"lef level={w.level}",
        " ".join(["elements"] + sorted(element_hash(s) for s in w.elements)),
    ]
    entries = sorted(
        (element_hash(s), h) for s, h in w.table
    )
    for digest, helem in entries:
        towers = " | ".join(" ".join(str(i) for i in pv) for pv in helem)
        lines.append(f"{digest} -> {towers}")
    return "\n".join(lines) + "\n"


def parse_lef_witness(text: str):
    """(level, F element hashes, ((element-hash, H-element), ...)) from a
    witness file."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("lef level="):
        raise ParseError("witness must start with 'lef level=<n>'")
    try:
        level = int(lines[0][len("lef level="):])
    except ValueError:
        raise ParseError(f"bad witness header {lines[0]!r}")
    head, *elements = lines[1].split() if len(lines) > 1 else [""]
    if head != "elements" or not elements:
        raise ParseError("witness needs an 'elements <hash> ...' line after the header")
    entries = []
    for ln in lines[2:]:
        digest, sep, rest = ln.partition(" -> ")
        if not sep:
            raise ParseError(f"bad witness line {ln!r}")
        try:
            helem = tuple(
                tuple(int(t) for t in part.split())
                for part in rest.split(" | ")
            )
        except ValueError:
            raise ParseError(f"bad permutation in witness line {ln!r}")
        entries.append((digest.strip(), helem))
    return level, tuple(elements), tuple(entries)


def render_system_config(spec: SystemSpec) -> str:
    if spec.kind == "odometer":
        bases = ",".join(str(b) for b in spec.bases)
        return f"kind = odometer\nbases = {bases}\n"
    lines = [
        "kind = substitution",
        "alphabet = " + ",".join(spec.alphabet),
    ]
    for letter, image in spec.rule:
        lines.append(f"rule.{letter} = {image}")
    return "\n".join(lines) + "\n"


def parse_system_config(text: str) -> SystemSpec:
    entries = {}
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        key, sep, value = ln.partition("=")
        if not sep:
            raise ParseError(f"expected 'key = value', got {ln!r}")
        entries[key.strip()] = value.strip()
    kind = entries.get("kind")
    if kind == "odometer":
        if "bases" not in entries:
            raise ParseError("odometer config needs 'bases'")
        try:
            bases = [int(b) for b in entries["bases"].split(",")]
        except ValueError:
            raise ParseError(f"bad bases {entries['bases']!r}")
        return make_system({"kind": "odometer", "bases": bases})
    if kind == "substitution":
        rule = {
            key[len("rule."):]: entries[key]
            for key in entries
            if key.startswith("rule.")
        }
        if not rule:
            raise ParseError("substitution config needs 'rule.<letter>' lines")
        desc = {"kind": "substitution", "rule": rule}
        if "alphabet" in entries:
            desc["alphabet"] = entries["alphabet"].split(",")
        return make_system(desc)
    raise ParseError(f"unknown or missing kind {kind!r}")
