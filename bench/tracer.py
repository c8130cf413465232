"""Outside-in tracing of the fullgroups layers.

The tracer wraps functions at each layer boundary, from the benchmark's own
code, without touching the package. Every module-level alias of a wrapped
function is replaced too (``compose`` is bound by name in half a dozen
modules), so a call is traced whichever name it goes through.

Each call becomes a span: boundary name, start, end, parent span and the id
of the op it belongs to. Spans stay in memory in flat arrays and are written
out when the process ends. Self time is a span's duration minus the time its
direct child spans cover.

A boundary whose target no longer exists (a later change renamed or deleted
it) is reported as absent, and its metrics are left out rather than zeroed.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

# Boundary name -> (module, attribute path or "parse_*"/"render_*" pattern).
# Listed in dependency order of the package layers.
BOUNDARIES = {
    "systems.language": ("fullgroups.systems", "language"),
    "clopen.shrink": ("fullgroups.clopen", "_shrink"),
    "clopen.canonical": ("fullgroups.clopen", "ClopenSet._canonical"),
    "clopen.expand": ("fullgroups.clopen", "_expand_words"),
    "clopen.translate": ("fullgroups.clopen", "ClopenSet.translate"),
    "clopen.check_partition": ("fullgroups.clopen", "check_partition"),
    "group.compose": ("fullgroups.group", "compose"),
    "group.build": ("fullgroups.group", "_build"),
    "towers.build_next": ("fullgroups.towers", "TowerSequence._build_next"),
    "towers.first_return": ("fullgroups.towers", "first_return"),
    "towers.refine_against": ("fullgroups.towers", "refine_against"),
    "canon.factorize": ("fullgroups.canon", "factorize"),
    "canon.level_data": ("fullgroups.canon", "_level_data"),
    "canon.check_factorization": ("fullgroups.canon", "_check_factorization"),
    "canon.index": ("fullgroups.canon", "index"),
    "canon.kernel_decompose": ("fullgroups.canon", "kernel_decompose"),
    "lef.lef_map": ("fullgroups.lef", "lef_map"),
    "lef.witness_at": ("fullgroups.lef", "_witness_at"),
    "lef.verify_lef": ("fullgroups.lef", "verify_lef"),
    "formats.parse": ("fullgroups.formats", "parse_*"),
    "formats.render": ("fullgroups.formats", "render_*"),
    "cli.main": ("fullgroups.cli", "main"),
}

# Modules imported before wrapping, so that every alias already exists.
_PACKAGE_MODULES = (
    "fullgroups",
    "fullgroups.sampling",
    "fullgroups.acceptance",
    "fullgroups.formats",
    "fullgroups.cli",
)


def _words_in(args, kwargs, result):
    return {"words_in": len(args[1])}


def _words_out(args, kwargs, result):
    return {"words_out": len(result)}


def _pieces_out(args, kwargs, result):
    return {"pieces_out": len(result.pieces)}


def _steps(args, kwargs, result):
    # the peeling loop runs up to the largest return time
    return {"steps": max(result.cells)}


def _accepted(args, kwargs, result):
    # a rejected level is None today and a falsy Refusal in later designs
    return {"accepted": 1 if result else 0}


def _text_bytes(args, kwargs, result):
    text = result if isinstance(result, str) else args[0]
    return {"bytes": len(text)}


# Per-boundary counters taken from the call's arguments and result.
_COUNTERS = {
    "clopen.shrink": _words_in,
    "clopen.expand": _words_out,
    "group.compose": _pieces_out,
    "towers.first_return": _steps,
    "canon.level_data": _accepted,
    "lef.witness_at": _accepted,
    "formats.parse": _text_bytes,
    "formats.render": _text_bytes,
}


class Tracer:
    """Span recorder shared by every wrapper of one process."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.op_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, dict[str, float]] = {}
        self.max_width = 0
        self.op = 0
        self.enabled = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        counter = _COUNTERS.get(name)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(tracer.start)
            tracer.name_of.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.op_of.append(tracer.op)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                stack.pop()
            tracer._count(name, counter, args, kwargs, result)
            return result

        return traced

    def _count(self, name, counter, args, kwargs, result) -> None:
        if name == "systems.language":
            width = args[1] if len(args) > 1 else kwargs["length"]
            self.max_width = max(self.max_width, width)
            return
        if name in ("formats.parse", "formats.render"):
            # count each text once: at the outermost parse or render
            stack = self._stack
            if stack and self.names[self.name_of[stack[-1]]] == name:
                return
        if counter is not None:
            c = self.counters.setdefault(name, {})
            for key, value in counter(args, kwargs, result).items():
                c[key] = c.get(key, 0) + value

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary and all of its module-level aliases.

        Recording starts when ``enabled`` is set.
        """
        for mod in _PACKAGE_MODULES:
            importlib.import_module(mod)
        for name, (modname, path) in BOUNDARIES.items():
            targets = _resolve(modname, path)
            if not targets:
                self.absent.append(name)
                continue
            for owner, attr, raw in targets:
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                wrapper = self._wrap(name, fn)
                replacement = staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper
                self._patch(owner, attr, replacement)
                for module in _package_modules():
                    for alias, value in list(vars(module).items()):
                        if value is fn and not (module is owner and alias == attr):
                            self._patch(module, alias, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write the spans and counters as one JSON document."""
        doc = {
            "names": self.names,
            "absent": self.absent,
            "name": list(self.name_of),
            "parent": list(self.parent),
            "op": list(self.op_of),
            "start": list(self.start),
            "end": list(self.end),
            "counters": self.counters,
            "max_width": self.max_width,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _package_modules():
    return [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "fullgroups"]


def _resolve(modname: str, path: str):
    """(owner, attribute, raw class-dict or module value) for each target."""
    module = sys.modules[modname]
    if path.endswith("*"):
        prefix = path[:-1]
        return [
            (module, attr, value)
            for attr, value in sorted(vars(module).items())
            if attr.startswith(prefix)
            and callable(value)
            and getattr(value, "__module__", None) == modname
        ]
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = vars(owner).get(part)
        if owner is None:
            return []
    raw = vars(owner).get(attr)
    if raw is None:
        return []
    return [(owner, attr, raw)]


def load(path: str):
    with open(path) as fh:
        return json.load(fh)


def durations(doc, name: str) -> list[float]:
    """Durations of the spans of one boundary in a span document."""
    nid = doc["names"].index(name) if name in doc["names"] else -1
    return [e - s for n, s, e in zip(doc["name"], doc["start"], doc["end"]) if n == nid]


class Totals:
    """Per-boundary sums over span documents.

    Tracing is on during the timed phase only, so the figures describe the
    timed ops and leave set-up out.
    """

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, dict[str, float]] = {}
        self.factorize_hits = 0
        self.max_width = 0
        self.absent: set[str] = set()

    def add(self, doc) -> None:
        names, start, end, parent = doc["names"], doc["start"], doc["end"], doc["parent"]
        self.absent.update(doc["absent"])
        self.max_width = max(self.max_width, doc["max_width"])
        for key, values in doc["counters"].items():
            c = self.counters.setdefault(key, {})
            for k, v in values.items():
                c[k] = c.get(k, 0) + v
        child_time = [0.0] * len(start)
        has_level_child = set()
        for i, p in enumerate(parent):
            if p >= 0:
                child_time[p] += end[i] - start[i]
                if names[doc["name"][i]] == "canon.level_data":
                    has_level_child.add(p)
        for i, nid in enumerate(doc["name"]):
            key = names[nid]
            self.calls[key] = self.calls.get(key, 0) + 1
            self.self_s[key] = self.self_s.get(key, 0.0) + (end[i] - start[i]) - child_time[i]
            if key == "canon.factorize" and i not in has_level_child:
                self.factorize_hits += 1

    def metrics(self, trials: int) -> dict[str, float]:
        """Per-layer metrics, per trial; absent boundaries are left out."""
        out: dict[str, float] = {}
        per = 1.0 / trials

        def calls(b):
            return self.calls.get(b, 0) * per

        def self_s(b):
            return self.self_s.get(b, 0.0) * per

        def counter(b, k):
            return self.counters.get(b, {}).get(k, 0) * per

        def ratio(num, den):
            return num / den if den else 0.0

        def have(*bs):
            return not self.absent.intersection(bs)

        for b, extra in (
            ("systems.language", None),
            ("clopen.shrink", "words_in"),
            ("clopen.canonical", None),
            ("clopen.expand", "words_out"),
            ("clopen.translate", None),
            ("clopen.check_partition", None),
            ("group.compose", "pieces_out"),
            ("group.build", None),
            ("towers.build_next", None),
            ("towers.first_return", "steps"),
            ("towers.refine_against", None),
            ("canon.factorize", None),
            ("lef.lef_map", None),
            ("formats.parse", "bytes"),
            ("formats.render", "bytes"),
        ):
            if have(b):
                out[f"{b}.calls"] = calls(b)
                out[f"{b}.self_s"] = self_s(b)
                if extra:
                    out[f"{b}.{extra}"] = counter(b, extra)
        if have("systems.language"):
            out["systems.language.max_width"] = self.max_width
        if have("canon.factorize", "canon.level_data"):
            out["canon.factorize.cache_hit_ratio"] = ratio(
                self.factorize_hits, self.calls.get("canon.factorize", 0)
            )
        if have("canon.level_data"):
            out["canon.level_data.calls"] = calls("canon.level_data")
            out["canon.level_search.useful_ratio"] = ratio(
                counter("canon.level_data", "accepted"), calls("canon.level_data")
            )
        for b in ("canon.check_factorization", "canon.index", "canon.kernel_decompose",
                  "lef.verify_lef", "cli.main"):
            if have(b):
                out[f"{b}.self_s"] = self_s(b)
        if have("lef.witness_at"):
            out["lef.witness_at.calls"] = calls("lef.witness_at")
            out["lef.level_search.useful_ratio"] = ratio(
                counter("lef.witness_at", "accepted"), calls("lef.witness_at")
            )
        return out
