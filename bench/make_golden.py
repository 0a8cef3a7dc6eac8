"""Write golden.json: output digests of the default seed's first instances.

Usage, from the root of a checkout:

    python3 bench/make_golden.py

Runs the first GOLDEN_INSTANCES instances of every workload with the
default seed, requires each to pass its workload's checks, and
cross-checks the values once against solvers the workloads do not use:

* transport values, and each directed projection value behind a certify
  conclusion, are recomputed as transport costs by
  `kantorovich_bruteforce` when the combined support is at most 8, and
  otherwise, on a seeded sample, by the general LP `linprog.solve_lp`;
* monad results are re-derived on a seeded sample: every generator of
  the raw Minkowski product lies in the flattened set, and every base
  point lies outside the hull of the others, by LPs written here.

Only then are the digests written. Rerun it only when a change is meant
to alter outputs, and say so in the change.
"""

import itertools
import json
import random
import shutil
import sys
from fractions import Fraction

import run

GOLDEN_INSTANCES = 100
SAMPLE = 10
ZERO = Fraction(0)
ONE = Fraction(1)


def require(ok: bool, message: str) -> None:
    if not ok:
        raise RuntimeError(message)


def transport_lp_value(space, left, right) -> Fraction:
    """Kantorovich distance as a plain LP over the plan's cells."""
    from hkconvex import linprog

    xs, ys = list(left.support), list(right.support)
    m, n = len(xs), len(ys)
    rows, rhs = [], []
    for i, x in enumerate(xs):
        rows.append([ONE if k // n == i else ZERO for k in range(m * n)])
        rhs.append(left.weight(x))
    for j, y in enumerate(ys):
        rows.append([ONE if k % n == j else ZERO for k in range(m * n)])
        rhs.append(right.weight(y))
    cost = [space.d(xs[k // n], ys[k % n]) for k in range(m * n)]
    result = linprog.solve_lp(cost, rows, rhs)
    require(result.status == linprog.OPTIMAL, "transport LP not optimal")
    return result.value


def independent_transport(space, left, right, sampled: bool):
    """Transport value by an independent solver, or None when skipped."""
    from hkconvex import transport

    if len(left.support) + len(right.support) <= transport.BRUTEFORCE_SUPPORT_CAP:
        return transport.kantorovich_bruteforce(space, left, right)
    return transport_lp_value(space, left, right) if sampled else None


def in_hull_lp(target, generators) -> bool:
    from hkconvex import linprog

    coords = sorted(
        {x for d in [target, *generators] for x in d.support}, key=repr
    )
    rows = [[g.weight(x) for g in generators] for x in coords]
    rows.append([ONE] * len(generators))
    rhs = [target.weight(x) for x in coords] + [ONE]
    result = linprog.solve_lp([ZERO] * len(generators), rows, rhs)
    return result.status == linprog.OPTIMAL


def cross_check(name: str, inst, out, sampled: bool) -> int:
    """Raise on a mismatch; return how many values were compared."""
    from hkconvex import convex, core

    compared = 0
    if name == "transport":
        value = independent_transport(inst["space"], inst["left"], inst["right"], sampled)
        if value is not None:
            require(value == out.value, "transport value differs from the independent solver")
            compared += 1
    elif name == "certify":
        data = inst["data"]
        space = core.FiniteMetricSpace.from_json_dict(data["space"])
        left = convex.ConvexSet.from_json_dict(space, data["left"])
        right = convex.ConvexSet.from_json_dict(space, data["right"])
        eps = Fraction(json.loads(out["derive"][1])["conclusion"]["eps"])
        directed = []
        for a, b in ((left, right), (right, left)):
            for g in a.base:
                value, mixture, _ = convex.nearest_point(space, g, b)
                check = independent_transport(space, g, mixture, sampled)
                if check is not None:
                    require(check == value, "projection value differs from its transport cost")
                    compared += 1
                directed.append(value)
        require(max(directed) == eps, "conclusion eps is not the largest projection value")
    elif name == "monad" and sampled:
        m = out["mult"]
        for phi in out["tower"].base:
            sets = list(phi.support)
            for chosen in itertools.product(*(s.base for s in sets)):
                g = core.convex_combine([(phi.weight(s), d) for s, d in zip(sets, chosen)])
                require(in_hull_lp(g, m.base), "a product generator lies outside mult")
                compared += 1
        for k, g in enumerate(m.base):
            others = m.base[:k] + m.base[k + 1 :]
            require(not others or not in_hull_lp(g, others), "a base point is not extreme")
            compared += 1
    return compared


def main() -> int:
    run.import_library()
    import workloads

    digests = {}
    compared = {}
    workdir = run.WORK / "golden"
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(run.DEFAULT_SEED, str(workdir))
        sample = set(random.Random(f"golden/{name}").sample(range(GOLDEN_INSTANCES), SAMPLE))
        digests[name] = []
        compared[name] = 0
        for i in range(GOLDEN_INSTANCES):
            inst = wl.prepare(wl.data(i), f"g{i}")
            out = wl.run(inst)
            problems, _ = wl.verify(inst, out)
            require(not problems, f"{name} instance {i}: {problems}")
            compared[name] += cross_check(name, inst, out, i in sample)
            digests[name].append(run.digest(wl.canonical(out)))
            wl.cleanup(inst)
        print(f"{name}: {GOLDEN_INSTANCES} instances, {compared[name]} values cross-checked")
    shutil.rmtree(workdir, ignore_errors=True)
    doc = {
        "seed": run.DEFAULT_SEED,
        "instances": GOLDEN_INSTANCES,
        "cross_checked": compared,
        "digests": digests,
    }
    with open(run.GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
