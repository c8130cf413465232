"""Benchmark of fullgroups: three closed-loop workloads with one caller each.

Usage:
    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
``src/``. Without ``--workload`` all three workloads run in turn.

Each trial runs in a fresh interpreter, because the package keeps
module-level caches that a second pass in one process would mostly hit.
Trials run one at a time until ``--seconds`` is used up (at least one);
the budget is per workload, so a run of all three takes about three times
``--seconds``.
``wall_s`` is the mean over the run's trials, ``setup_s`` the median over
its set-ups and ``op_iqm_ms`` the interquartile mean over its ops. With
``--trace 1`` the run
instead alternates untraced and traced trials on the same inputs and
reports per-layer figures from the traced ones. See bench/NOTES.md for why
each workload exists and what was left out.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 1
when any output check fails and 2 when the checkout has no package source.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer as tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ("factor-odometer", "towers-subshift", "cli-session")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170
# Children share one string hash seed, so set iteration orders, and with
# them the work done, repeat from run to run.
CHILD_ENV = {**os.environ, "PYTHONHASHSEED": "0"}


@dataclass
class Trial:
    """What one trial measured: set-up, timed work, per-op latencies, checks."""

    setup_s: float
    wall_s: float = 0.0
    lat_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    facts: dict = field(default_factory=dict)
    digest: list = field(default_factory=list)  # outputs, compared traced vs untraced
    rss_kb: int = 0
    spans: list = field(default_factory=list)
    startup_s: list = field(default_factory=list)  # per command, traced cli-session only
    duration_s: float = 0.0


def _spawn(argv, cwd=ROOT):
    return subprocess.run(
        [sys.executable, *argv],
        cwd=cwd,
        env=CHILD_ENV,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )


# -- factor-odometer and towers-subshift: one worker process per trial -------

# Ops per trial for each odometer and cocycle bound q; an element with bound q
# factorizes at level q in every case of the population. A fixed mix keeps
# the amount of work per run steady: op cost grows steeply with q, and plain
# uniform word draws leave the mix, and so the run time, to chance. The
# quotas are the shares of distinct products kept by the plain stream of
# uniform words, scaled to 350 ops; `python3 bench/quotas.py`
# derives them (table in bench/NOTES.md). Left out: q >= 8 on odometer
# [2,3], whose products take about 1 s and 11 s each, and q = 10, which
# needs a tower level above the prebuilt 9. Strata under half an op round
# to none.
QUOTAS = (
    {0: 1, 1: 3, 2: 17, 3: 38, 4: 40, 5: 30, 6: 17, 7: 6, 8: 2},  # odometer [2]
    {0: 1, 1: 4, 2: 28, 3: 54, 4: 50, 5: 34, 6: 18, 7: 7},  # odometer [2,3]
)


class OpGenerator:
    """Seeded generator words of length 3-5 for factor-odometer trials.

    Words are drawn as in the plain stream: a random odometer, a length of
    3-5 and uniform letters. A word is kept while the quota of its
    (odometer, bound) stratum is open and its element differs from every
    one kept before in the trial, since the factorization cache would
    answer a repeat.
    """

    def __init__(self):
        sys.path.insert(0, str(SRC))
        import fullgroups as fg
        from fullgroups.sampling import generator_pool
        from worker import ODOMETERS

        self.fg = fg
        self.specs = [fg.make_system({"kind": "odometer", "bases": b}) for b in ODOMETERS]
        self.pools = [generator_pool(spec) for spec in self.specs]
        self.memo: dict = {}

    def _element(self, sys_i: int, word: tuple):
        key = (sys_i, word)
        if key not in self.memo:
            fg = self.fg
            e = fg.identity(self.specs[sys_i])
            for g in word:
                e = fg.compose(e, self.pools[sys_i][g])
            self.memo[key] = (fg.element_hash(e), fg.cocycle_bound(e))
        return self.memo[key]

    def trial_inputs(self, rng: random.Random):
        open_ = {(sys_i, q): n for sys_i, quota in enumerate(QUOTAS) for q, n in quota.items()}
        total = sum(open_.values())
        ops, seen, drawn = [], set(), 0
        while len(ops) < total:
            sys_i = rng.randrange(len(QUOTAS))
            word = tuple(rng.randrange(5) for _ in range(rng.randint(3, 5)))
            drawn += 1
            digest, q = self._element(sys_i, word)
            if open_.get((sys_i, q)) and (sys_i, digest) not in seen:
                seen.add((sys_i, digest))
                open_[sys_i, q] -= 1
                ops.append([sys_i, list(word)])
        return ops, drawn


def worker_trial(workload, inputs, setup_only, span_path, run_dir) -> Trial:
    job_path = run_dir / "job.json"
    job_path.write_text(json.dumps({
        "workload": workload,
        "inputs": inputs,
        "setup_only": setup_only,
        "trace": str(span_path) if span_path else None,
    }))
    t_spawn = time.monotonic()
    proc = _spawn([str(BENCH / "worker.py"), str(job_path)])
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    out = json.loads(lines[-1])
    setup_s = out["ready"] - t_spawn
    if setup_only:
        return Trial(setup_s)
    trial = Trial(setup_s, out["wall_s"], out["lat_s"], out["attempted"], out["failed"],
                  out["errors"], out["facts"], out["digest"], out["rss_kb"])
    if span_path:
        trial.spans.append(tracing.load(span_path))
    return trial


# -- cli-session: one process per command ------------------------------------

CONFIGS = {
    "odo2.cfg": "kind = odometer\nbases = 2\n",
    "fib.cfg": "kind = substitution\nrule.a = ab\nrule.b = a\n",
    "flist.txt": "id\nT\nsw\n",
    "flistf.txt": "fid\nF\nfg\n",
}
DEFINE = [["system", "define", "odo2", "odo2.cfg"], ["system", "define", "fib", "fib.cfg"]]


def cli_script(rng: random.Random):
    """(argv, expected exit code, expected last stdout line or None) per command.

    The seed picks the composed words; their index is known from the
    letters (T counts +1, its inverse -1, the rest 0). The Fibonacci word
    is a permutation of three letters, because longer words reach deeper
    tower levels and would make the work depend on the seed.
    """
    cmds = []

    def c(*argv, rc=0, last=None):
        cmds.append((list(argv), rc, last))

    witness = "{}: order-3 commutator supported in the set, moving the point"
    c("element", "make", "--system", "odo2", "--out", "T", "--piece", "FULL -> 1",
      last="T: 1 pieces")
    c("element", "make", "--system", "odo2", "--out", "id", "--piece", "FULL -> 0",
      last="id: 1 pieces")
    c("element", "make", "--system", "odo2", "--out", "sw", "--piece", "10@0 -> 1",
      "--piece", "01@0 -> -1", "--piece", "00@0 -> 0", "--piece", "11@0 -> 0",
      last="sw: 3 pieces")
    c("element", "invert", "T", "--out", "Ti", last="Ti: inverse of T")
    w = [rng.choice(["T", "Ti", "sw"]) for _ in range(rng.randint(3, 5))]
    c("element", "compose", *w, "--out", "w")
    c("index", "w", last=str(w.count("T") - w.count("Ti")))
    c("factorize", "w")
    z = rng.sample(["T", "Ti", "sw"], 3)
    c("element", "compose", *z, "--out", "z")
    c("index", "z", last="0")
    c("decompose", "z", last="second factor fixes forward orbit of y: ok")
    c("element", "compose", "z.p1", "z.p2", "--out", "zz")
    c("element", "eq", "zz", "z", last="equal")
    c("element", "order", "sw", last="2")
    c("element", "support", "sw", last="01@0 + 10@0")
    c("witness", "separation", "--system", "odo2", "--set", "0@0", "--point", "primary",
      "--out", "g", last=witness.format("g"))
    c("element", "order", "g", last="3")
    c("lef", "--set", "flist.txt", "--out", "lw", last="pass")
    c("lef", "verify", "lw", last="pass")
    c("odometer-structure", "--system", "odo2", "--n", "3", last="structure: ok")
    c("element", "make", "--system", "fib", "--out", "F", "--piece", "FULL -> 1",
      last="F: 1 pieces")
    c("element", "make", "--system", "fib", "--out", "fid", "--piece", "FULL -> 0",
      last="fid: 1 pieces")
    c("element", "invert", "F", "--out", "Fi", last="Fi: inverse of F")
    c("element", "eq", "F", "Fi", rc=1, last="different")
    c("witness", "separation", "--system", "fib", "--set", "a@0", "--point", "primary",
      "--out", "fg", last=witness.format("fg"))
    c("element", "order", "fg", last="3")
    c("element", "support", "fg")
    fw = rng.sample(["F", "Fi", "fg"], 3)
    c("element", "compose", *fw, "--out", "fw")
    c("index", "fw", last="0")
    c("factorize", "fw")
    c("lef", "--set", "flistf.txt", "--out", "lwf", last="pass")
    c("lef", "verify", "lwf", last="pass")
    c("towers", "sequence", "--system", "fib", "--levels", "6",
      last="level 6: band=6 heights=21,34")
    return cmds


def cli_command(run_dir, ws, argv, span_path=None):
    """Run one command in the workspace, as a user would from there.

    Returns (seconds, exit code, stdout, (read, written, rss_kb), spans). The
    io figures are None, and the spans too, when the command died before
    writing its report.
    """
    io_path = run_dir / "io.txt"
    io_path.unlink(missing_ok=True)
    if span_path:
        span_path.unlink(missing_ok=True)
    t0 = time.monotonic()
    proc = _spawn([str(BENCH / "cli_entry.py"), str(io_path),
                   str(span_path) if span_path else "-", *argv], cwd=ws)
    seconds = time.monotonic() - t0
    if not io_path.is_file():
        return seconds, proc.returncode, proc.stdout, None, None
    io = tuple(int(x) for x in io_path.read_text().split())
    spans = tracing.load(span_path) if span_path else None
    return seconds, proc.returncode, proc.stdout, io, spans


def cli_trial(rng, setup_only, span_base, run_dir) -> Trial:
    """One session; with a span base, command i writes its spans to <base>-<i>.json."""
    ws = run_dir / "ws"
    shutil.rmtree(ws, ignore_errors=True)
    t0 = time.monotonic()
    ws.mkdir(parents=True)
    for name, text in CONFIGS.items():
        (ws / name).write_text(text)
    failed, errors = 0, []
    for argv in DEFINE:
        _, code, _, io, _ = cli_command(run_dir, ws, argv)
        if code != 0 or io is None:
            failed += 1
            errors.append(f"{' '.join(argv)}: exit {code}")
    setup_s = time.monotonic() - t0
    if setup_only:
        return Trial(setup_s, failed=failed, errors=errors)
    lat, stdout, per_cmd, spans, startup = [], [], [], [], []
    io_total = [0, 0]
    rss_kb = 0
    script = cli_script(rng)
    for i, (argv, rc, last) in enumerate(script):
        span_path = Path(f"{span_base}-{i}.json") if span_base else None
        seconds, code, out, io, doc = cli_command(run_dir, ws, argv, span_path)
        lat.append(seconds)
        stdout.append(out)
        per_cmd.append([" ".join(argv)[:48], round(seconds * 1e3, 1)])
        if io is None:
            failed += 1
            errors.append(f"{' '.join(argv)}: exit {code} without an io report")
            continue
        io_total[0] += io[0]
        io_total[1] += io[1]
        rss_kb = max(rss_kb, io[2])
        lines = out.strip().splitlines()
        got = lines[-1] if lines else ""
        if code != rc or (last is not None and got != last):
            failed += 1
            errors.append(f"{' '.join(argv)}: exit {code}, last line {got!r}")
        if doc is not None:
            spans.append(doc)
            startup.extend(seconds - m for m in tracing.durations(doc, "cli.main"))
    facts = {
        "command_ms": per_cmd,
        "workspace_chars_read": io_total[0],
        "workspace_chars_written": io_total[1],
    }
    return Trial(setup_s, sum(lat), lat, len(script), failed, errors, facts, stdout, rss_kb,
                 spans, startup)


# -- runs ---------------------------------------------------------------------


class Runner:
    """Runs trials of one workload; a trial's inputs depend on (seed, trial number)."""

    def __init__(self, workload: str, seed: int, run_dir: Path):
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.generator = OpGenerator() if workload == "factor-odometer" else None
        self.drawn = self.kept = 0

    def trial(self, number: int, traced: bool = False, setup_only: bool = False) -> Trial:
        rng = random.Random(self.seed * 1000 + number)
        span_base = self.run_dir / f"spans-{number}" if traced else None
        started = time.monotonic()
        if self.workload == "cli-session":
            t = cli_trial(rng, setup_only, span_base, self.run_dir)
        else:
            inputs = []
            if self.generator is not None and not setup_only:
                inputs, drawn = self.generator.trial_inputs(rng)
                self.drawn += drawn
                self.kept += len(inputs)
            span_path = Path(f"{span_base}.json") if traced else None
            t = worker_trial(self.workload, inputs, setup_only, span_path, self.run_dir)
        t.duration_s = time.monotonic() - started
        return t


def run_untraced(runner: Runner, seconds: float):
    """Trials back to back until the next one, as long as the longest so far,
    with the set-up-only trials still owed to reach SETUP_SAMPLES, would
    overrun the budget."""
    start = time.monotonic()
    trials = []
    while True:
        trials.append(runner.trial(len(trials)))
        owed = max(0, SETUP_SAMPLES - len(trials) - 1)
        setup_cost = statistics.median(t.duration_s - t.wall_s for t in trials)
        longest = max(t.duration_s for t in trials)
        if time.monotonic() - start + longest + owed * setup_cost > seconds:
            break
    setups = [t.setup_s for t in trials]
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.trial(len(setups), setup_only=True).setup_s)
    return trials, setups


def run_traced(runner: Runner, seconds: float):
    """Pairs of untraced and traced trials on identical inputs."""
    start = time.monotonic()
    pairs = []
    while True:
        number = len(pairs)
        plain = runner.trial(number)
        traced = runner.trial(number, traced=True)
        pairs.append((plain, traced))
        if time.monotonic() - start + plain.duration_s + traced.duration_s > seconds:
            break
    return pairs


def interquartile_mean(values):
    """Mean of the values from the first to the third quartile.

    The typical op latency. On factor-odometer the plain median falls
    between two clusters of op cost and jumped by half between trials on the
    same inputs; the mean of the middle half moves with the work instead.
    """
    ranked = sorted(values)
    n = len(ranked)
    return statistics.mean(ranked[n // 4 : n - n // 4])


def end_to_end(trials, setups):
    """name -> (value, sample count, what was counted)."""
    lat = [x for t in trials for x in t.lat_s]
    total_wall = sum(t.wall_s for t in trials)
    rss_mb = max(t.rss_kb for t in trials) / 1024
    values = {
        "setup_s": (statistics.median(setups), len(setups), "set-up samples"),
        "wall_s": (total_wall / len(trials), len(trials), "trials, mean"),
        "ops_per_s": (len(lat) / total_wall, len(lat), "ops"),
        "op_iqm_ms": (interquartile_mean(lat) * 1e3, len(lat), "ops, mean of the middle half"),
        "peak_rss_mb": (rss_mb, len(trials), "trials, largest process"),
    }
    return values, lat


def layer_metrics(pairs):
    totals = tracing.Totals()
    for _, traced in pairs:
        for doc in traced.spans:
            totals.add(doc)
    out = totals.metrics(len(pairs))
    startup = [s for _, traced in pairs for s in traced.startup_s]
    if "cli.main.self_s" in out:
        out["cli.startup_s"] = statistics.median(startup) if startup else 0.0
    out["trace.overhead_ratio"] = (
        sum(t.wall_s for _, t in pairs) / sum(p.wall_s for p, _ in pairs)
    )
    return out, sorted(totals.absent)


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict):
    for old in WORK.glob(f"{workload}-*"):  # spans of an earlier traced run
        shutil.rmtree(old, ignore_errors=True)
    run_dir = WORK / f"{workload}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    runner = Runner(workload, seed, run_dir)
    declared = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"workload {workload}  seed {seed}  budget {seconds:g} s  "
          f"closed loop, one caller, one child process at a time")
    try:
        if trace:
            pairs = run_traced(runner, seconds)
            trials = [t for pair in pairs for t in pair]
            metrics, absent = layer_metrics(pairs)
            for name, value in metrics.items():
                print(f"  {name:40s} {value:.6g}")
            print(f"  absent boundaries: {', '.join(absent) if absent else 'none'}")
            missing = [m for m in declared if m not in metrics]
            if missing:
                print(f"  absent metrics: {', '.join(missing)}")
            print(f"  traced pairs: {len(pairs)}  spans kept in {run_dir.relative_to(ROOT)}")
            digests_agree = all(p.digest == t.digest for p, t in pairs)
            print(f"  traced and untraced outputs agree: {'ok' if digests_agree else 'FAIL'}")
        else:
            trials, setups = run_untraced(runner, seconds)
            values, lat = end_to_end(trials, setups)
            metrics = {}
            for name, (value, n, what) in values.items():
                metrics[name] = value
                print(f"  {name:12s} {value:12.4f} {units[name]:4s} n={n} {what}")
            p50 = statistics.median(lat) * 1e3
            print(f"  {'op_p50_ms':12s} {p50:12.4f} ms   n={len(lat)} ops (reported, not gated)")
            if len(lat) >= 100:
                p90 = statistics.quantiles(lat, n=10)[8] * 1e3
                print(f"  {'op_p90_ms':12s} {p90:12.4f} ms   n={len(lat)} ops (reported, not gated)")
            digests_agree = True
        attempted = sum(t.attempted for t in trials)
        failed = sum(t.failed for t in trials) + (0 if digests_agree else 1)
        print(f"  {'error_rate':12s} {failed / max(attempted, 1):12.4f} ratio "
              f"n={attempted} ops ({failed} failed)")
        for t in trials:
            for err in t.errors:
                print(f"  FAIL {err}")
        facts = {"trials": len(trials)}
        if runner.generator is not None:
            facts["words_drawn"] = runner.drawn
            facts["distinct_kept"] = runner.kept
        for i, t in enumerate(trials):
            facts[f"trial{i}"] = t.facts
        print("  facts " + json.dumps(facts))
    finally:
        if not trace:
            shutil.rmtree(run_dir, ignore_errors=True)
    undeclared = set(metrics) - set(declared)
    if undeclared:
        raise RuntimeError(f"metrics missing from {SPEC.name}: {sorted(undeclared)}")
    ordered = {m: {"value": metrics[m], "unit": units[m]} for m in declared if m in metrics}
    return ordered, attempted, failed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, action="append",
                    help="workload to run (default: all three)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, help="budget per workload (default: run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "fullgroups" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"no package source at {SRC} or no {SPEC.name}; run from a fullgroups checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workload or list(WORKLOADS)
    metrics, attempted, failed = {}, 0, 0
    for workload in workloads:
        m, a, f = run_workload(workload, args.seed, seconds, bool(args.trace), spec)
        prefix = "" if len(workloads) == 1 else f"{workload}."
        for name, value in m.items():
            metrics[prefix + name] = value
        attempted += a
        failed += f
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
