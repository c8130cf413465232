"""One trial of a library workload, in a fresh interpreter.

Usage: python3 bench/worker.py <job.json>

The job file names the workload, its generated inputs, and where to write
spans when the trial is traced. The last line of standard output is a JSON
result: the monotonic time at which set-up ended, the timed wall time, one
latency per op, failures, peak resident set size at the end of the timed
phase, workload facts and a digest of the outputs.
Output checks run after the timed phase, with tracing off.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

# Index of each generator of sampling.generator_pool: T, T^-1, the two
# symmetric block embeddings, and the induced map on a cylinder.
GEN_INDEX = (1, -1, 0, 0, 1)
ODOMETERS = ([2], [2, 3])
PREBUILD_LEVEL = 9
SUBSHIFTS = (
    ("fibonacci", {"a": "ab", "b": "a"}, 9),
    ("thue-morse", {"a": "ab", "b": "ba"}, 3),
)


def factor_odometer(fg, tracer, job) -> dict:
    from fullgroups.sampling import generator_pool

    specs = [fg.make_system({"kind": "odometer", "bases": b}) for b in ODOMETERS]
    pools = [generator_pool(spec) for spec in specs]
    for spec in specs:
        fg.tower_sequence(spec).level(PREBUILD_LEVEL)
    ready = time.monotonic()
    if job["setup_only"]:
        return {"ready": ready}
    built_before = sum(fg.tower_sequence(spec).built() for spec in specs)
    ops = job["inputs"]
    tracer.enabled = job["trace"] is not None
    lat, outcomes = [], []
    clock = time.perf_counter
    t_start = clock()
    for i, (sys_i, word) in enumerate(ops, 1):
        tracer.op = i
        t0 = clock()
        try:
            e = fg.identity(specs[sys_i])
            for g in word:
                e = fg.compose(e, pools[sys_i][g])
            fac = fg.factorize(e)
            k = fg.index(e)
            parts = fg.kernel_decompose(e) if k == 0 else None
            outcomes.append((e, fac.level, k, parts))
        except Exception as exc:  # counted as a failed op
            outcomes.append(exc)
        lat.append(clock() - t0)
    wall = clock() - t_start
    tracer.enabled = False
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    built_after = sum(fg.tower_sequence(spec).built() for spec in specs)

    failed, errors, digest, levels = 0, [], [], {}
    for (sys_i, word), out in zip(ops, outcomes):
        problem = None
        if isinstance(out, Exception):
            problem = f"{type(out).__name__}: {out}"
        else:
            e, level, k, parts = out
            levels[level] = levels.get(level, 0) + 1
            row = [fg.element_hash(e), level, k]
            if k != sum(GEN_INDEX[g] for g in word):
                problem = f"index {k} != generator sum"
            elif parts is not None:
                p1, p2 = parts
                row += [fg.element_hash(p1), fg.element_hash(p2)]
                if not fg.equals(fg.compose(p1, p2), e):
                    problem = "compose(p1, p2) != input"
                elif fg.order(p2, 2) not in (1, 2):
                    problem = "p2 is not an involution"
            digest.append(row)
        if problem:
            failed += 1
            errors.append(f"{ODOMETERS[sys_i]} {word}: {problem}")
    return {
        "ready": ready,
        "wall_s": wall,
        "lat_s": lat,
        "attempted": len(ops),
        "failed": failed,
        "errors": errors[:5],
        "digest": digest,
        "rss_kb": rss_kb,
        "facts": {
            "levels": {str(k): v for k, v in sorted(levels.items())},
            "levels_built_in_timed_phase": built_after - built_before,
        },
    }


def _is_fibonacci_pair(heights) -> bool:
    a, b = 1, 2
    while a < min(heights):
        a, b = b, a + b
    return sorted(set(heights)) == [a, b]


def _tower_problem(fg, name, xi, anchor, prev_base) -> str | None:
    """First of the five tower conditions this level breaks, if any."""
    heights = xi.heights()
    base = xi.base()
    try:
        xi.validate()
    except fg.FullGroupsError as exc:
        return f"validate: {exc}"
    if not base.contains_point(anchor):
        return "anchor outside the base"
    if min(heights) < 2 * xi.band + 2:
        return f"shortest tower {min(heights)} < 2m+2"
    if prev_base is not None and not base.subset(prev_base):
        return "base not inside the previous base"
    if name == "fibonacci" and not _is_fibonacci_pair(heights):
        return f"heights {heights} are not consecutive Fibonacci numbers"
    return None


def towers_subshift(fg, tracer, job) -> dict:
    from fullgroups import systems

    specs = [
        (name, fg.make_system({"kind": "substitution", "rule": rule}), levels)
        for name, rule, levels in SUBSHIFTS
    ]
    anchors = [fg.base_point(spec, "primary")[0] for _, spec, _ in specs]
    ready = time.monotonic()
    if job["setup_only"]:
        return {"ready": ready}
    lat, built, per_system = [], [], {}
    clock = time.perf_counter
    op = 0
    tracer.enabled = job["trace"] is not None
    t_start = clock()
    for (name, spec, levels), anchor in zip(specs, anchors):
        seq = fg.tower_sequence(spec, anchor)
        t_sys = clock()
        for n in range(1, levels + 1):
            op += 1
            tracer.op = op
            t0 = clock()
            try:
                built.append((name, spec, anchor, n, seq.level(n)))
            except Exception as exc:  # counted as a failed op
                built.append((name, spec, anchor, n, exc))
            lat.append(clock() - t0)
        per_system[name] = clock() - t_sys
    wall = clock() - t_start
    tracer.enabled = False
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    lang = getattr(systems, "_LANG_CACHE", {})
    widest = {name: max(lang[spec]) if spec in lang else None for name, spec, _ in specs}

    failed, errors, digest, shape = 0, [], [], {}
    prev = {}
    for name, spec, anchor, n, xi in built:
        if isinstance(xi, Exception):
            problem = f"{type(xi).__name__}: {xi}"
        else:
            digest.append([name, n, xi.heights()])
            shape[f"{name}.{n}"] = [len(xi.towers), sum(xi.heights())]
            problem = _tower_problem(fg, name, xi, anchor, prev.get(name))
            prev[name] = xi.base()
        if problem:
            failed += 1
            errors.append(f"{name} level {n}: {problem}")
    return {
        "ready": ready,
        "wall_s": wall,
        "lat_s": lat,
        "attempted": len(built),
        "failed": failed,
        "errors": errors[:5],
        "digest": digest,
        "rss_kb": rss_kb,
        "facts": {
            "seconds_per_system": per_system,
            "towers_atoms_per_level": shape,
            "widest_language_window": widest,
        },
    }


WORKLOADS = {"factor-odometer": factor_odometer, "towers-subshift": towers_subshift}


def main() -> None:
    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    from tracer import Tracer

    tracer = Tracer()
    if job["trace"]:
        tracer.install()
    import fullgroups as fg

    result = WORKLOADS[job["workload"]](fg, tracer, job)
    if job["trace"]:
        tracer.dump(job["trace"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
