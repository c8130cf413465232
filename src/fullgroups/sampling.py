"""Seeded random inputs for the property suites.

The generator pool is fixed: the shift and its inverse, two symmetric
block embeddings, and one induced map. Products of bounded length over
the pool exercise every code path at bounded cocycle size, so factor
levels stay desk-scale.
"""

from __future__ import annotations

import random
from functools import cache

from .clopen import ClopenSet, cylinder, union_all
from .errors import PreconditionError
from .group import (
    compose,
    disjoint_cylinder_block,
    embed_symmetric,
    identity,
    invert,
    shift,
)
from .systems import PointRep, SystemSpec, base_point, language
from .towers import induced

# Forward shifts of the primary point that point_inside tries.
_POINT_SEARCH_CAP = 4096


@cache
def generator_pool(spec: SystemSpec) -> list:
    t = shift(spec, 1)
    first = (0,) if spec.kind == "odometer" else (spec.alphabet[0],)
    return [
        t,
        invert(t),
        embed_symmetric(spec, 3, (1, 2, 0), disjoint_cylinder_block(spec, 3)),
        embed_symmetric(spec, 2, (1, 0), disjoint_cylinder_block(spec, 2)),
        induced(spec, cylinder(spec, first)),
    ]


def random_products(spec: SystemSpec, count: int, seed: int, max_len: int = 6) -> list:
    rng = random.Random(seed)
    pool = generator_pool(spec)
    out = []
    for _ in range(count):
        s = identity(spec)
        for _ in range(rng.randint(1, max_len)):
            s = compose(s, rng.choice(pool))
        out.append(s)
    return out


def random_clopen(
    spec: SystemSpec, rng: random.Random, pieces: int = 2, depth: int = 3
) -> ClopenSet:
    """Nonempty union of a few random admissible cylinders.

    Depth caps the word length; return times off the result grow with it,
    so suites that factorize induced maps keep it small.
    """
    parts = []
    for _ in range(rng.randint(1, pieces)):
        length = rng.randint(1, depth)
        if spec.kind == "odometer":
            word = tuple(
                rng.randrange(spec.bases[i % len(spec.bases)]) for i in range(length)
            )
            parts.append(cylinder(spec, word))
        else:
            word = rng.choice(sorted(language(spec, length)))
            parts.append(cylinder(spec, word, rng.randint(-2, 2)))
    return union_all(spec, parts)


def point_inside(spec: SystemSpec, o: ClopenSet) -> PointRep:
    """First forward shift of the primary point landing in the set."""
    if o.is_empty():
        raise PreconditionError("no point lies inside the empty set")
    x, _ = base_point(spec, "primary")
    for k in range(_POINT_SEARCH_CAP):
        if o.contains_point(x.shifted(k)):
            return x.shifted(k)
    raise PreconditionError(
        f"no forward shift of the primary point lands in the set within "
        f"_POINT_SEARCH_CAP = {_POINT_SEARCH_CAP}"
    )
