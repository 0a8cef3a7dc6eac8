"""Acceptance suite: ten exact, seeded, budgeted criteria (A1-A10).

Each test prints one summary line; the assertions themselves are exact
(rational equality or inequality, never approximate) and each criterion
carries a wall-clock budget that is asserted too.
"""

import random
import time
from fractions import Fraction

import pytest

from hkconvex import (
    ConvexSet,
    FiniteMetricSpace,
    check_derivation,
    check_monad_laws,
    corrupt_alpha,
    free_em_algebra,
    functor_F,
    hausdorff,
    hk_distance,
    kantorovich,
    kantorovich_bruteforce,
    kantorovich_metric,
    metric_hypotheses,
    monad_mult,
    normalize,
    nu,
    oplus,
    plus_p,
    roundtrip_FG,
    roundtrip_GF,
    term_distance,
    transport_cost,
    wms,
)
from hkconvex import lifting, sampling
from hkconvex.deduction import Derivation, QuantEquation
from hkconvex.proofs import derive_hk, derive_kantorovich, tightest_derivable
from hkconvex.syntax import parse_term, substitute

F = Fraction
ONE = F(1)


def _stopwatch():
    start = time.monotonic()
    return lambda: time.monotonic() - start


def _report(tag: str, detail: str, elapsed: float, budget: float) -> None:
    assert elapsed < budget, f"{tag} exceeded its {budget}s budget: {elapsed:.1f}s"
    print(f"{tag}: PASS ({detail}, {elapsed:.1f}s < {budget:.0f}s)")


@pytest.fixture
def projections(monkeypatch):
    """Counts the projection LPs `lifting` runs, and the ones it would run
    with no vertex bound: one per left base point of each directed term."""
    counts = {"run": 0, "unbounded": 0}
    project, directed = lifting.nearest_point, lifting._directed

    def counted_project(*args):
        counts["run"] += 1
        return project(*args)

    def counted_directed(space, left, right, bounds):
        counts["unbounded"] += len(left.base)
        return directed(space, left, right, bounds)

    monkeypatch.setattr(lifting, "nearest_point", counted_project)
    monkeypatch.setattr(lifting, "_directed", counted_directed)
    return counts


def _projections_fall(counts) -> str:
    run, unbounded = counts["run"], counts["unbounded"]
    assert run < unbounded, f"vertex bounds skipped no projection of {unbounded}"
    return f"{run} of {unbounded} projections"


def test_a1_transport_oracle_equivalence():
    """Simplex value equals brute-force enumeration; witness cost matches."""
    elapsed = _stopwatch()
    rng = random.Random(101)
    n = 500
    for _ in range(n):
        space = sampling.rand_space(rng, max_points=4)
        left = sampling.rand_dist(rng, space, max_support=3)
        right = sampling.rand_dist(rng, space, max_support=3)
        res = kantorovich(space, left, right)
        assert res.value == kantorovich_bruteforce(space, left, right)
        assert transport_cost(space, res.witness) == res.value
    _report("A1", f"{n} transport pairs against the enumeration oracle", elapsed(), 60)


def test_a2_monad_laws():
    """Unit laws and associativity with exact set equality."""
    elapsed = _stopwatch()
    n = 1000
    report = check_monad_laws(seed=202, trials=n)
    assert report.ok, report.failures[:3]
    _report("A2", f"{n} monad-law instances", elapsed(), 120)


def test_a3_mult_nonexpansive(projections):
    """Flattening does not expand the twice-lifted distance."""
    elapsed = _stopwatch()
    rng = random.Random(303)
    n = 500
    for _ in range(n):
        space = sampling.rand_space(rng, max_points=3)
        s = sampling.rand_set_of_sets(rng, space)
        t = sampling.rand_set_of_sets(rng, space)
        inner = kantorovich_metric(lambda u, v: hk_distance(space, u, v))
        outer = hausdorff(inner, s.base, t.base)
        assert hk_distance(space, monad_mult(s), monad_mult(t)) <= outer
    _report("A3", f"{n} flattening pairs, {_projections_fall(projections)}", elapsed(), 120)


def test_a4_operation_nonexpansiveness(projections):
    """Join/mixture distance bounds and WMS non-expansiveness."""
    elapsed = _stopwatch()
    rng = random.Random(404)
    n = 500
    for _ in range(n):
        space = sampling.rand_space(rng, max_points=3)
        s1 = sampling.rand_convex_set(rng, space, max_base=2, max_support=2)
        s2 = sampling.rand_convex_set(rng, space, max_base=2, max_support=2)
        t1 = sampling.rand_convex_set(rng, space, max_base=2, max_support=2)
        t2 = sampling.rand_convex_set(rng, space, max_base=2, max_support=2)
        p = sampling.rand_prob(rng)
        d1, d2 = hk_distance(space, s1, t1), hk_distance(space, s2, t2)
        assert hk_distance(space, oplus(s1, s2), oplus(t1, t2)) <= max(d1, d2)
        assert hk_distance(
            space, plus_p(p, s1, s2), plus_p(p, t1, t2)
        ) <= p * d1 + (1 - p) * d2
    for _ in range(n):
        space = sampling.rand_space(rng, max_points=3)
        phi = sampling.rand_dist_over_sets(rng, space)
        psi = sampling.rand_dist_over_sets(rng, space)
        lifted = kantorovich_metric(lambda u, v: hk_distance(space, u, v))
        assert hk_distance(space, wms(phi), wms(psi)) <= lifted(phi, psi)
    _report(
        "A4",
        f"{n} join/mixture instances and {n} WMS instances, {_projections_fall(projections)}",
        elapsed(),
        120,
    )


def test_a5_base_computation_sandwich():
    """The exact value stays below Hausdorff over the raw generators.

    Convex closure can only shrink the distance between two families:
    every raw generator lies in its closure, and each directed term over
    the closures is attained at a base point, which is a raw generator.
    The bound is checked over two-point ground spaces and again over
    spaces of up to four points with wider supports.
    """
    elapsed = _stopwatch()
    rng = random.Random(505)
    n = 200
    for _ in range(n):
        space = sampling.rand_space(rng, max_points=2)
        k = kantorovich_metric(space.d)
        raw_s = [sampling.rand_dist(rng, space, max_support=2) for _ in range(rng.randint(1, 3))]
        raw_t = [sampling.rand_dist(rng, space, max_support=2) for _ in range(rng.randint(1, 3))]
        s, t = ConvexSet(space, raw_s), ConvexSet(space, raw_t)
        value = hk_distance(space, s, t)
        assert value <= hausdorff(k, raw_s, raw_t)
    for _ in range(n):
        space = sampling.rand_space(rng, max_points=4)
        k = kantorovich_metric(space.d)
        raw_s = [sampling.rand_dist(rng, space, max_support=3) for _ in range(rng.randint(1, 3))]
        raw_t = [sampling.rand_dist(rng, space, max_support=3) for _ in range(rng.randint(1, 3))]
        # convex closure may only shrink distances between the raw families
        closed = hk_distance(space, ConvexSet(space, raw_s), ConvexSet(space, raw_t))
        assert closed <= hausdorff(k, raw_s, raw_t)
    _report(
        "A5",
        f"{n} two-point and {n} up-to-four-point closure bounds",
        elapsed(),
        120,
    )


AXIOM_SCHEMATA = [
    ("(oplus (oplus x y) z)", "(oplus x (oplus y z))"),
    ("(oplus x y)", "(oplus y x)"),
    ("(oplus x x)", "x"),
    ("(p+ 1/3 (p+ 1/2 x y) z)", "(p+ 1/6 x (p+ 1/5 y z))"),
    ("(p+ 1/3 x y)", "(p+ 2/3 y x)"),
    ("(p+ 1/2 x x)", "x"),
    ("(p+ 1/2 x (oplus y z))", "(oplus (p+ 1/2 x y) (p+ 1/2 x z))"),
    # derived convexity equation
    ("(oplus x y)", "(oplus (oplus x y) (p+ 1/4 x y))"),
]


def test_a6_normal_forms_and_axioms():
    """nu is a section of normalize; axioms hold under substitution."""
    elapsed = _stopwatch()
    rng = random.Random(606)
    n_sets, n_subst = 1000, 500
    for _ in range(n_sets):
        space = sampling.rand_space(rng, max_points=4)
        s = sampling.rand_convex_set(rng, space, max_base=3, max_support=3)
        assert normalize(space, nu(space, s)) == s
    schemata = [(parse_term(l), parse_term(r)) for l, r in AXIOM_SCHEMATA]
    for _ in range(n_subst):
        space = sampling.rand_space(rng, max_points=3)
        env = {
            v: sampling.rand_term(rng, space, max_depth=2) for v in ("x", "y", "z")
        }
        for lhs, rhs in schemata:
            left = normalize(space, substitute(lhs, env))
            right = normalize(space, substitute(rhs, env))
            assert left == right
    _report(
        "A6",
        f"{n_sets} section round-trips, 8 identities under {n_subst} substitutions",
        elapsed(),
        60,
    )


def test_a7_constructive_derivations_exact():
    """Derivations are checker-valid with conclusions matching distances."""
    elapsed = _stopwatch()
    rng = random.Random(707)
    n = 200
    for _ in range(n):
        space = sampling.rand_space(rng, max_points=3)
        s = sampling.rand_convex_set(rng, space, max_base=2, max_support=2)
        t = sampling.rand_convex_set(rng, space, max_base=2, max_support=2)
        d = derive_hk(space, s, t)
        assert d.conclusion.eps == hk_distance(space, s, t)
        assert check_derivation(d.hypotheses, d).ok
    for _ in range(n):
        space = sampling.rand_space(rng, max_points=4)
        left = sampling.rand_dist(rng, space, max_support=3)
        right = sampling.rand_dist(rng, space, max_support=3)
        d = derive_kantorovich(space, left, right)
        assert d.conclusion.eps == kantorovich(space, left, right).value
        assert check_derivation(d.hypotheses, d).ok
    _report("A7", f"{n} set derivations and {n} transport derivations", elapsed(), 180)


def test_a8_presentation_roundtrips():
    """Free-algebra round-trips are clean; corruption is flagged."""
    elapsed = _stopwatch()
    space = FiniteMetricSpace(
        ("a", "b", "c"),
        {("a", "b"): F(1, 2), ("b", "c"): F(1, 2), ("a", "c"): ONE},
    )
    em = free_em_algebra(space)
    n = 100
    gf = roundtrip_GF(em, n, seed=810)
    fg = roundtrip_FG(functor_F(em), n, seed=811)
    assert gf.ok and gf.trials == n
    assert fg.ok and fg.trials == n
    bad = roundtrip_GF(corrupt_alpha(em), 60, seed=812)
    assert not bad.ok
    _report("A8", f"{n} samples per direction plus negative control", elapsed(), 60)


def _rand_subset(rng, points):
    k = rng.randint(1, len(points))
    return rng.sample(list(points), k)


def test_a9_hausdorff_lifting_lemmas():
    """H is monotone in the ground metric and invariant under isometries."""
    elapsed = _stopwatch()
    rng = random.Random(909)
    n = 500
    for i in range(n):
        space = sampling.rand_space(rng, max_points=4)
        a = _rand_subset(rng, space.points)
        b = _rand_subset(rng, space.points)
        if i % 2 == 0:
            lam = F(rng.randint(1, 8), 8)
            small = lambda x, y: lam * space.d(x, y)
            assert hausdorff(small, a, b) <= hausdorff(space.d, a, b)
        else:
            other = sampling.rand_space(rng, max_points=4)
            targets = list(other.points)
            relabel = {x: targets[j % len(targets)] for j, x in enumerate(space.points)}
            # max of a metric and a pulled-back pseudometric is a metric
            big = lambda x, y: max(space.d(x, y), other.d(relabel[x], relabel[y]))
            assert hausdorff(space.d, a, b) <= hausdorff(big, a, b)
    for _ in range(n):
        src = sampling.rand_space(rng, max_points=4)
        shuffled = list(src.points)
        rng.shuffle(shuffled)
        f = dict(zip(src.points, shuffled))
        iso = lambda u, v: src.d(f[u], f[v])
        a = _rand_subset(rng, src.points)
        b = _rand_subset(rng, src.points)
        fa, fb = [f[x] for x in a], [f[x] for x in b]
        assert hausdorff(src.d, fa, fb) == hausdorff(iso, a, b)
    _report("A9", f"{n} monotonicity and {n} isometric relabelings", elapsed(), 30)


def _weaken(rng, d: Derivation) -> Derivation:
    """A validity-preserving mutation of a finished derivation."""
    c = d.conclusion
    roll = rng.randrange(3)
    if roll == 0 and c.eps < 1:
        bump = min(ONE, c.eps + F(1, 8))
        return Derivation("Max", QuantEquation(c.left, c.right, bump), (d,))
    if roll == 1:
        flipped = Derivation("Symm", QuantEquation(c.right, c.left, c.eps), (d,))
        return Derivation("Symm", c, (flipped,))
    refl_right = Derivation("Refl", QuantEquation(c.right, c.right, F(0)))
    return Derivation("Triang", c, (d, refl_right))


def test_a10_deduction_soundness():
    """Valid derivations never undercut the true distance."""
    elapsed = _stopwatch()
    rng = random.Random(1010)
    n = 200
    for i in range(n):
        space = sampling.rand_space(rng, max_points=3)
        gamma = metric_hypotheses(space)
        t = sampling.rand_term(rng, space, max_depth=3)
        s = sampling.rand_term(rng, space, max_depth=3)
        _, d = tightest_derivable(space, t, s)
        if i % 2 == 0:
            d = _weaken(rng, d)
        res = check_derivation(gamma, d)
        assert res.ok, (res.path, res.reason)
        truth = term_distance(space, d.conclusion.left, d.conclusion.right)
        assert d.conclusion.eps >= truth
    _report("A10", f"{n} checked derivations vs true distances", elapsed(), 60)
