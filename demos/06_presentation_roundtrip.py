"""
Algebras for the monad vs. quantitative convex semilattices
===========================================================

The structure map of an algebra can be traded for a pair of operations
(join and mixtures) and back. On the free algebra the two translations
invert each other exactly; corrupting a structure map is detected by the
law checks.
"""

from fractions import Fraction

from hkconvex import (
    FiniteMetricSpace,
    corrupt_alpha,
    eval_canonical,
    free_em_algebra,
    functor_F,
    functor_G,
    hk_distance,
    monad_mult,
    roundtrip_FG,
    roundtrip_GF,
)

space = FiniteMetricSpace(
    ["a", "b", "c"],
    {
        ("a", "b"): Fraction(1, 2),
        ("b", "c"): Fraction(1, 2),
        ("a", "c"): Fraction(1),
    },
)

# the free algebra: the convex sets with flattening as structure map
em = free_em_algebra(space)
print("unit law:", em.check_unit(seed=2, trials=30).ok)
print("mult law:", em.check_mult(seed=3, trials=30).ok)

# F turns the structure map into operations on the convex sets
qa = functor_F(em)
print("axioms:", qa.check_axioms(seed=4, trials=30).ok)
print("non-expansive:", qa.check_nonexpansive(seed=5, trials=30).ok)

# both round trips are identities on the free algebra
back = functor_G(qa)
print("G(F(alpha)) == alpha on samples:", roundtrip_GF(em, 60, seed=6).ok)
print("F(G(ops)) == ops on samples:", roundtrip_FG(qa, 60, seed=7).ok)

# eval_canonical folds a nested set through the operations the way its
# canonical term is written; on the free algebra that is flattening
import random

from hkconvex import sampling

tower = sampling.rand_set_of_sets(random.Random(8), space)
assert eval_canonical(qa, tower) == monad_mult(tower) == back.alpha(tower)
print("eval_canonical(tower) == mu(tower):", True)
other = sampling.rand_set_of_sets(random.Random(12), space)
print("HK between two towers:", hk_distance(space, tower, other))

# a corrupted structure map breaks the unit law on singleton diracs and
# the round trip reports the mismatching samples
bad = corrupt_alpha(em)
report = roundtrip_GF(bad, 40, seed=9)
print("corruption detected:", not report.ok, f"({len(report.failures)} mismatches)")
