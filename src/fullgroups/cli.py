"""Command line surface over a plain-text workspace.

Systems, elements, and witnesses live as text files in a workspace
directory (the FULLGROUPS_WORKSPACE variable or --workspace flag, current
directory by default). Reports go to standard output; exit codes separate
precondition violations and running out of memory (2), verification
failures (3), and parse errors (4), with eq reserving 0/1 for its answer.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .canon import factorize, in_stabilizer, index, kernel_decompose, separation_witness
from .errors import (
    ParseError,
    PreconditionError,
    SystemConfigError,
    VerificationError,
)
from .formats import (
    element_system,
    parse_clopen,
    parse_element,
    parse_lef_witness,
    parse_system_config,
    render_clopen,
    render_element,
    render_factorization,
    render_lef_witness,
    render_system_config,
    render_towers,
)
from .group import (
    GroupElement,
    cocycle_at,
    compose,
    element_hash,
    equals,
    invert,
    order,
    support,
)
from .lef import LEFWitness, lef_map, odometer_structure, perm_group, verify_lef
from .systems import SystemSpec, base_point
from .towers import kr_from_set, tower_sequence

WORKSPACE_VAR = "FULLGROUPS_WORKSPACE"


class Workspace:
    """Named systems, elements, and witnesses as flat text files."""

    def __init__(self, root):
        self.root = Path(root)
        self._systems: dict[str, SystemSpec] = {}

    def _path(self, name: str, suffix: str) -> Path:
        return self.root / f"{name}{suffix}"

    def load_system(self, name: str) -> SystemSpec:
        if name not in self._systems:
            p = self._path(name, ".system")
            if not p.exists():
                raise PreconditionError(f"no system named {name!r} in the workspace")
            self._systems[name] = parse_system_config(p.read_text())
        return self._systems[name]

    def save_system(self, name: str, spec: SystemSpec) -> Path:
        self.root.mkdir(parents=True, exist_ok=True)
        p = self._path(name, ".system")
        p.write_text(render_system_config(spec))
        self._systems[name] = spec
        return p

    def read_element(self, text: str) -> tuple[str, GroupElement]:
        """Parse element text against the one system file it names."""
        name = element_system(text)
        known = self._path(name, ".system").exists()
        return parse_element(text, {name: self.load_system(name)} if known else {})

    def load_element(self, name: str) -> tuple[str, GroupElement]:
        p = self._path(name, ".elem")
        if not p.exists():
            raise PreconditionError(f"no element named {name!r} in the workspace")
        return self.read_element(p.read_text())

    def save_element(self, name: str, system_name: str, s: GroupElement) -> Path:
        self.root.mkdir(parents=True, exist_ok=True)
        p = self._path(name, ".elem")
        p.write_text(render_element(s, system_name))
        return p

    def save_witness(self, name: str, w: LEFWitness) -> Path:
        self.root.mkdir(parents=True, exist_ok=True)
        p = self._path(name, ".lef")
        p.write_text(render_lef_witness(w))
        return p

    def load_witness_text(self, name: str) -> str:
        p = Path(name)
        if not p.exists():
            p = self._path(name, ".lef")
        if not p.exists():
            raise PreconditionError(f"no witness named {name!r} in the workspace")
        return p.read_text()


def _point(spec: SystemSpec, which: str):
    x, _ = base_point(spec, which)
    return x


def cmd_system(ws: Workspace, args) -> int:
    if args.action == "define":
        spec = parse_system_config(Path(args.config).read_text())
        ws.save_system(args.name, spec)
        print(f"{args.name}: {spec.kind}")
        return 0
    spec = ws.load_system(args.name)
    print(render_system_config(spec), end="")
    return 0


def _need(value, what: str):
    if not value:
        raise PreconditionError(f"missing {what}")
    return value


def cmd_element(ws: Workspace, args) -> int:
    if args.action == "make":
        _need(args.system, "--system"), _need(args.out, "--out")
        lines = [f"system {args.system}"] + _need(list(args.piece), "--piece")
        name, s = ws.read_element("\n".join(lines) + "\n")
        ws.save_element(args.out, name, s)
        print(f"{args.out}: {len(s.pieces)} pieces")
        return 0
    if args.action in ("compose", "invert"):
        _need(args.out, "--out")
    if args.action == "eq" and len(args.names) != 2:
        raise PreconditionError("eq compares exactly two elements")
    if not args.names:
        raise PreconditionError("missing input element name")
    if args.action == "compose":
        named = [ws.load_element(n) for n in args.names]
        sys_name = named[0][0]
        s = named[0][1]
        for other_name, t in named[1:]:
            if other_name != sys_name:
                raise PreconditionError("elements live over different systems")
            s = compose(s, t)
        ws.save_element(args.out, sys_name, s)
        print(f"{args.out}: {len(s.pieces)} pieces")
        return 0
    if args.action == "invert":
        sys_name, s = ws.load_element(args.names[0])
        ws.save_element(args.out, sys_name, invert(s))
        print(f"{args.out}: inverse of {args.names[0]}")
        return 0
    if args.action == "eq":
        _, a = ws.load_element(args.names[0])
        _, b = ws.load_element(args.names[1])
        same = equals(a, b)
        print("equal" if same else "different")
        return 0 if same else 1
    if args.action == "order":
        _, s = ws.load_element(args.names[0])
        k = order(s, args.bound)
        print(k if k is not None else f"exceeds {args.bound}")
        return 0
    if args.action == "support":
        _, s = ws.load_element(args.names[0])
        print(render_clopen(support(s)))
        return 0
    # apply: report the power acting at the chosen point and the image window
    sys_name, s = ws.load_element(args.names[0])
    spec = ws.load_system(sys_name)
    x = _point(spec, args.point)
    k = cocycle_at(s, x)
    lo, hi = (0, 7) if spec.kind == "odometer" else (-4, 7)
    print(f"power {k}")
    print(f"image[{lo}..{hi}] {x.shifted(k).window(lo, hi)}")
    return 0


def cmd_towers(ws: Workspace, args) -> int:
    spec = ws.load_system(args.system)
    if args.action == "from-set":
        c = parse_clopen(_need(args.set, "--set"), spec)
        xi = kr_from_set(spec, c)
        xi.validate()
        print(render_towers(xi), end="")
        return 0
    seq = tower_sequence(spec)
    if args.action == "sequence":
        for n in range(1, args.levels + 1):
            xi = seq.level(n)
            heights = ",".join(str(h) for h in xi.heights())
            print(f"level {n}: band={xi.band} heights={heights}")
        return 0
    print(render_towers(seq.level(args.level)), end="")
    return 0


def cmd_factorize(ws: Workspace, args) -> int:
    _, s = ws.load_element(args.element)
    fac = factorize(s, level=args.level)
    print(render_factorization(fac), end="")
    return 0


def cmd_index(ws: Workspace, args) -> int:
    _, s = ws.load_element(args.element)
    print(index(s))
    return 0


def cmd_stabilizer(ws: Workspace, args) -> int:
    sys_name, s = ws.load_element(args.element)
    spec = ws.load_system(sys_name)
    print("true" if in_stabilizer(s, _point(spec, args.point)) else "false")
    return 0


def cmd_decompose(ws: Workspace, args) -> int:
    sys_name, s = ws.load_element(args.element)
    spec = ws.load_system(sys_name)
    x = _point(spec, args.x)
    y = _point(spec, args.y)
    p1, p2 = kernel_decompose(s, x=x, y=y)
    ws.save_element(f"{args.element}.p1", sys_name, p1)
    ws.save_element(f"{args.element}.p2", sys_name, p2)
    print(f"wrote {args.element}.p1 and {args.element}.p2")
    checks = {
        "compose equals input": equals(compose(p1, p2), s),
        "second factor involution": order(p2, 2) in (1, 2),
        "first factor fixes forward orbit of x": in_stabilizer(p1, x),
        "second factor fixes forward orbit of y": in_stabilizer(p2, y),
    }
    for what, ok in checks.items():
        print(f"{what}: {'ok' if ok else 'FAIL'}")
    return 0 if all(checks.values()) else 3


def cmd_witness(ws: Workspace, args) -> int:
    spec = ws.load_system(args.system)
    o = parse_clopen(args.set, spec)
    if args.point == "auto":
        from .sampling import point_inside

        x = point_inside(spec, o)
    else:
        x = _point(spec, args.point)
    g = separation_witness(spec, o, x)
    ws.save_element(args.out, args.system, g)
    print(f"{args.out}: order-3 commutator supported in the set, moving the point")
    return 0


def _load_hashed(ws: Workspace, label: str) -> tuple[str, GroupElement]:
    sys_name, s = ws.load_element(label)
    if element_hash(s) != label:
        raise VerificationError(f"stored element {label} hash mismatch")
    return sys_name, s


def _load_witness(ws: Workspace, text: str) -> LEFWitness:
    """The witness file as an LEFWitness over the workspace's elements."""
    level, f_labels, entries = parse_lef_witness(text)
    if not entries:
        raise ParseError("the witness table is empty")
    table = []
    for label, helem in entries:
        sys_name, s = _load_hashed(ws, label)
        table.append((s, helem))
    elements = tuple(_load_hashed(ws, label)[1] for label in f_labels)
    desc = perm_group(tower_sequence(ws.load_system(sys_name)).level(level))
    # the file claims an injective, multiplicative table; verify_lef re-checks it
    return LEFWitness(elements, level, desc, tuple(table))


def cmd_lef(ws: Workspace, args) -> int:
    if len(args.rest) == 2 and args.rest[0] == "verify":
        report = verify_lef(_load_witness(ws, ws.load_witness_text(args.rest[1])))
        for line in report.lines:
            print(line)
        print("pass" if report.ok else "fail")
        return 0 if report.ok else 3
    if args.rest or not args.set:
        raise PreconditionError("usage: lef --set <file> | lef verify <witness>")
    names = [
        ln.strip()
        for ln in Path(args.set).read_text().splitlines()
        if ln.strip() and not ln.strip().startswith("#")
    ]
    if not names:
        raise PreconditionError("the element list is empty")
    named = [ws.load_element(n) for n in names]
    sys_name = named[0][0]
    w = lef_map([s for _, s in named], level=args.level)
    for s, _ in w.table:
        ws.save_element(element_hash(s), sys_name, s)
    path = ws.save_witness(args.out, w)
    report = verify_lef(w)
    print(f"wrote {path.name} at level {w.level}")
    for line in report.lines:
        print(line)
    print("pass" if report.ok else "fail")
    return 0 if report.ok else 3


def cmd_structure(ws: Workspace, args) -> int:
    spec = ws.load_system(args.system)
    report = odometer_structure(spec, args.n, seed=args.seed)
    print(report.text().rstrip("\n"))
    return 0 if report.ok else 3


def cmd_selftest(ws: Workspace, args) -> int:
    from . import acceptance  # only selftest pays for compiling the suite

    return 0 if acceptance.run_all(args.seed) else 3


def _level_arg(text: str) -> int | None:
    """A --level value: "auto" (None, the smallest valid level) or an integer."""
    if text == "auto":
        return None
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'auto' or an integer, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="fullgroups",
        description="exact computation in topological full groups",
    )
    top.add_argument(
        "--workspace",
        default=os.environ.get(WORKSPACE_VAR, "."),
        help=f"workspace directory (default: ${WORKSPACE_VAR} or .)",
    )
    top.add_argument("--seed", type=int, default=0, help="seed for sampled suites")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("system", help="define or show a named system")
    p.add_argument("action", choices=("define", "show"))
    p.add_argument("name")
    p.add_argument("config", nargs="?", help="config file for define")
    p.set_defaults(fn=cmd_system)

    p = sub.add_parser("element", help="build and query named elements")
    p.add_argument(
        "action",
        choices=("make", "compose", "invert", "eq", "order", "support", "apply"),
    )
    p.add_argument("names", nargs="*", help="input element names")
    p.add_argument("--out", help="output element name")
    p.add_argument("--system", help="system name for make")
    p.add_argument("--piece", action="append", default=[],
                   help="piece line '<clopen> -> <power>' for make")
    p.add_argument("--bound", type=int, default=64, help="order search bound")
    p.add_argument("--point", choices=("primary", "alternate"), default="primary")
    p.set_defaults(fn=cmd_element)

    p = sub.add_parser("towers", help="tower partitions and sequences")
    p.add_argument("action", choices=("from-set", "sequence", "show"))
    p.add_argument("--system", required=True)
    p.add_argument("--set", help="clopen set text for from-set")
    p.add_argument("--levels", type=int, default=4, help="levels for sequence")
    p.add_argument("--level", type=int, default=1, help="level for show")
    p.set_defaults(fn=cmd_towers)

    p = sub.add_parser("factorize", help="permutation-rotation factorization report")
    p.add_argument("element")
    p.add_argument("--level", type=_level_arg, default="auto")
    p.set_defaults(fn=cmd_factorize)

    p = sub.add_parser("index", help="index homomorphism value")
    p.add_argument("element")
    p.set_defaults(fn=cmd_index)

    p = sub.add_parser("stabilizer", help="forward-orbit stabilizer membership")
    p.add_argument("element")
    p.add_argument("--point", choices=("primary", "alternate"), default="primary")
    p.set_defaults(fn=cmd_stabilizer)

    p = sub.add_parser("decompose", help="split an index-0 element into stabilizer factors")
    p.add_argument("element")
    p.add_argument("--x", choices=("primary", "alternate"), default="primary")
    p.add_argument("--y", choices=("primary", "alternate"), default="alternate")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("witness", help="emit separation witnesses")
    p.add_argument("kind", choices=("separation",))
    p.add_argument("--system", required=True)
    p.add_argument("--set", required=True, help="clopen set text")
    p.add_argument("--point", choices=("primary", "alternate", "auto"),
                   default="primary")
    p.add_argument("--out", default="witness")
    p.set_defaults(fn=cmd_witness)

    p = sub.add_parser("lef", help="build or verify finite approximation witnesses")
    p.add_argument("rest", nargs="*", help="'verify <witness>' to re-check a file")
    p.add_argument("--set", help="file listing element names, one per line")
    p.add_argument("--level", type=_level_arg, default="auto")
    p.add_argument("--out", default="witness")
    p.set_defaults(fn=cmd_lef)

    p = sub.add_parser("odometer-structure", help="finite-level structure report")
    p.add_argument("--system", required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=cmd_structure)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.set_defaults(fn=cmd_selftest)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    ws = Workspace(args.workspace)
    try:
        return args.fn(ws, args)
    except (ParseError, SystemConfigError, UnicodeDecodeError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 4
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 3
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("resource error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
