"""Seeded input generator for the benchmark workloads.

Standard library only, and independent of `hkconvex.sampling`, so that a
change to the library's own samplers cannot change what the benchmark
measures. Every instance is plain JSON-ready data (rationals as strings)
drawn from its own `random.Random` stream, keyed by workload, seed and
instance index; the same key always yields byte-identical data, however
many instances a run ends up processing.

Instance shapes cycle through a fixed order: point counts for every
workload, and for certify also support sizes. The seed draws distances,
weights and which points carry each support (and the monad workload's
support sizes). Every run therefore sees the same mix of sizes, which
keeps seed-to-seed spread in the timings down to the geometry of the
inputs. Certify sets have exactly two generators: with one to three, an
instance's latency ranged over a factor of 30 and the median of a
200-instance run moved by about 18% from seed to seed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from string import ascii_lowercase

CERTIFY_POINTS = (3, 4, 5)
CERTIFY_GENERATORS = 2
CERTIFY_SUPPORTS = (1, 2, 3)
# Every combination of point count and the two sets' support patterns.
CERTIFY_CYCLE = 27
MONAD_POINTS = (3, 4, 5)
TRANSPORT_POINTS = tuple(range(12, 21))


def stream(workload: str, seed: int, index) -> random.Random:
    """The random stream of one instance (or other keyed input).

    Negative indices name warm-up instances; they ignore the seed, so
    that set-up time does not depend on it.
    """
    if isinstance(index, int) and index < 0:
        return random.Random(f"hkconvex-bench/{workload}/warm-up/{index}")
    return random.Random(f"hkconvex-bench/{workload}/{seed}/{index}")


def space_data(rng: random.Random, n: int) -> dict:
    """A metric space on n labelled points, distances in eighths.

    Random positive edge lengths closed under shortest paths, so the
    triangle inequality holds and every distance lies in (0, 1].
    """
    points = list(ascii_lowercase[:n])
    d = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = Fraction(rng.randint(1, 8), 8)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                via = d[i][k] + d[k][j]
                if i != j and via < d[i][j]:
                    d[i][j] = via
    pairs = [
        [points[i], points[j], str(d[i][j])] for i in range(n) for j in range(i + 1, n)
    ]
    return {"points": points, "dist": pairs}


def dist_data(rng: random.Random, points: list, k: int) -> dict:
    """A distribution on k distinct random points with positive weights."""
    support = rng.sample(points, k)
    raw = [rng.randint(1, 6) for _ in support]
    total = sum(raw)
    return {x: str(Fraction(r, total)) for x, r in zip(support, raw)}


def set_data(rng: random.Random, points: list, supports) -> dict:
    """Generators of a convex set with the given support sizes."""
    return {"generators": [dist_data(rng, points, k) for k in supports]}


def certify_shape(index: int) -> tuple:
    """(points, left supports, right supports) of a certify instance.

    Each cycle of 27 instances runs through 3-5 points and, for each set,
    the three rotations of support sizes (1, 2), (2, 3), (3, 1).
    """
    pos = index % CERTIFY_CYCLE
    n = CERTIFY_POINTS[pos % 3]

    def supports(rotation: int) -> tuple:
        return tuple(
            CERTIFY_SUPPORTS[(rotation + j) % 3] for j in range(CERTIFY_GENERATORS)
        )

    return n, supports((pos // 3) % 3), supports(pos // 9)


def certify_instance(seed: int, index: int) -> dict:
    """A space of 3-5 points and two sets of two generators each."""
    rng = stream("certify", seed, index)
    n, left, right = certify_shape(index)
    space = space_data(rng, n)
    points = space["points"]
    return {
        "space": space,
        "left": set_data(rng, points, left),
        "right": set_data(rng, points, right),
    }


def monad_instance(seed: int, index: int) -> dict:
    """Three inner sets and a set of two distributions over pairs of them.

    `outer` lists, for each outer distribution, (inner set index, weight)
    pairs; `p` is the mixing probability handed to plus_p.
    """
    rng = stream("monad", seed, index)
    n = MONAD_POINTS[index % 3]
    space = space_data(rng, n)
    points = space["points"]
    inner = [set_data(rng, points, [rng.randint(1, 3) for _ in range(2)]) for _ in range(3)]
    outer = []
    for _ in range(2):
        chosen = sorted(rng.sample(range(3), 2))
        raw = [rng.randint(1, 6) for _ in chosen]
        total = sum(raw)
        outer.append([[k, str(Fraction(r, total))] for k, r in zip(chosen, raw)])
    den = rng.randint(2, 8)
    p = str(Fraction(rng.randint(1, den - 1), den))
    return {"space": space, "inner": inner, "outer": outer, "p": p}


def transport_space(seed: int, n: int) -> dict:
    """The shared n-point space of the transport workload."""
    return space_data(stream("transport-space", seed, n), n)


def transport_instance(seed: int, index: int, points) -> dict:
    """Two distributions on the given points, each covering half to all of them."""
    rng = stream("transport", seed, index)
    points = list(points)
    n = len(points)
    low = (n + 1) // 2
    return {
        "n": n,
        "left": dist_data(rng, points, rng.randint(low, n)),
        "right": dist_data(rng, points, rng.randint(low, n)),
    }


def transport_points(index: int) -> int:
    return TRANSPORT_POINTS[index % len(TRANSPORT_POINTS)]
