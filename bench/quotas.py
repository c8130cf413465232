"""Derive the factor-odometer quotas from the plain word stream.

Usage: python3 bench/quotas.py [--streams N] [--ops N]

The plain stream picks one of the two odometers at random, draws a
generator word of length 3-5 with uniform letters, and keeps it only when
its product differs from every product kept before, until 500 distinct
products are kept. This script enumerates every word, repeats that stream
``--streams`` times, and prints the share of kept products per (odometer,
cocycle bound q). It then drops the strata that run.py leaves out (q >= 8
on odometer [2,3], q = 10 on both) and scales the rest to ``--ops`` ops by
largest remainder. The factorization level equals q for every product, so
q predicts the cost of an op.
"""

from __future__ import annotations

import argparse
import itertools
import random
from collections import Counter

STREAM_KEPT = 500


def left_out(sys_i: int, q: int) -> bool:
    return q >= 10 or (sys_i == 1 and q >= 8)


def population(generator):
    """(odometer index, word) -> (element hash, cocycle bound) for every word."""
    for sys_i, pool in enumerate(generator.pools):
        for length in (3, 4, 5):
            for word in itertools.product(range(len(pool)), repeat=length):
                generator._element(sys_i, word)
    return generator.memo


def shares(table, n_systems, streams):
    kept = Counter()
    for seed in range(streams):
        rng = random.Random(seed)
        seen = set()
        while len(seen) < STREAM_KEPT:
            sys_i = rng.randrange(n_systems)
            word = tuple(rng.randrange(5) for _ in range(rng.randint(3, 5)))
            digest, q = table[sys_i, word]
            if (sys_i, digest) not in seen:
                seen.add((sys_i, digest))
                kept[sys_i, q] += 1
    return {key: n / (streams * STREAM_KEPT) for key, n in sorted(kept.items())}


def quotas(share, ops):
    keep = {key: s for key, s in share.items() if not left_out(*key)}
    total = sum(keep.values())
    raw = {key: s / total * ops for key, s in keep.items()}
    out = {key: int(r) for key, r in raw.items()}
    by_remainder = sorted(raw, key=lambda key: raw[key] - out[key], reverse=True)
    for key in by_remainder[: ops - sum(out.values())]:
        out[key] += 1
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--streams", type=int, default=400)
    ap.add_argument("--ops", type=int, default=350)
    args = ap.parse_args()
    from run import OpGenerator
    from worker import ODOMETERS

    share = shares(population(OpGenerator()), len(ODOMETERS), args.streams)
    quota = quotas(share, args.ops)
    print(f"{'odometer':10s} {'q':>2s} {'share':>7s} {'quota':>5s}")
    for (sys_i, q), s in share.items():
        got = "left out" if left_out(sys_i, q) else quota[sys_i, q]
        print(f"{str(ODOMETERS[sys_i]):10s} {q:2d} {s:7.2%} {got:>5}")
    print(f"left-out share {sum(s for k, s in share.items() if left_out(*k)):.2%}")
    for sys_i in range(len(ODOMETERS)):
        row = {q: n for (s, q), n in quota.items() if s == sys_i and n}
        print(f"QUOTAS[{sys_i}] = {row}")


if __name__ == "__main__":
    main()
