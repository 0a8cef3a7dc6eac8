"""Round-trips between convex-set algebras and quantitative convex semilattices.

An Eilenberg-Moore algebra here is a carrier with a structure map
``alpha: ConvexSet over the carrier -> carrier point``.  A quantitative
convex semilattice is a carrier with binary operations ``op_oplus`` and
``op_plusp(p, -, -)``.  Both directions of the correspondence are
function-backed:

* ``functor_F`` reads the two operations off a structure map,
  ``x (+) y = alpha(cc{dirac x, dirac y})`` and
  ``x +_p y = alpha({p x + (1-p) y})``.
* ``functor_G`` rebuilds a structure map by interpreting the canonical
  term `terms.nu(S)` of a set inside the algebra.

Carriers are never tabulated: even over a finite space the convex sets
form an infinite carrier, so all laws and both round-trips are checked
pointwise on seeded pseudo-random samples, each into a `LawReport`;
`check_monad_laws` checks the monad laws of the convex-set monad
itself the same way.  The flagship instance is
``free_em_algebra``, whose carrier is the convex sets themselves and
whose structure map is one level of `monad_mult`; there every check is
exactly computable.  Sets over either carrier are compared by
`lifting.hk_distance`, which reads the carrier metric off the support
items: `space.d` on labels, and itself one level down on sets.

On morphisms both constructions act as the identity, so a function is a
homomorphism of algebras iff it is one of semilattices; the sampled
`check_homomorphism` covers the algebra side.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable

from .convex import ConvexSet, functor_map, monad_mult, monad_unit, plus_p
from .core import Dist, FiniteMetricSpace, convex_combine, dirac
from .errors import EmptyInput, OutOfRange
from .lifting import hk_distance
from .sampling import (
    rand_convex_set,
    rand_prob,
    rand_set_of_sets_of_sets,
    rand_space,
    rand_weights,
)
from .syntax import Gen, Oplus, Term
from .terms import nu

ZERO = Fraction(0)
ONE = Fraction(1)


class LawReport:
    """Outcome of randomized law checking."""

    __slots__ = ("trials", "failures")

    def __init__(self, trials: int, failures: list[str]):
        self.trials = trials
        self.failures = failures

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {"trials": self.trials, "failures": self.failures, "ok": self.ok}


def check_monad_laws(seed: int, trials: int) -> LawReport:
    """Left/right unit and associativity on pseudo-random towers."""
    rng = random.Random(seed)
    failures: list[str] = []
    for t in range(trials):
        space = rand_space(rng, max_points=4)
        s = rand_convex_set(rng, space, max_base=3, max_support=3)
        unit_outer = monad_unit(space, s)
        if monad_mult(unit_outer) != s:
            failures.append(f"trial {t}: mult after outer unit")
        via_inner = functor_map(lambda x: monad_unit(space, x), s)
        if monad_mult(via_inner) != s:
            failures.append(f"trial {t}: mult after mapped unit")
        u = rand_set_of_sets_of_sets(rng, space)
        flat_inner = monad_mult(functor_map(monad_mult, u))
        flat_outer = monad_mult(monad_mult(u))
        if flat_inner != flat_outer:
            failures.append(f"trial {t}: associativity")
    return LawReport(trials, failures)


class SpaceCarrier:
    """The points of a finite metric space, as an algebra carrier."""

    def __init__(self, space: FiniteMetricSpace):
        self.space = space
        self.points = space.points

    def metric(self, x, y) -> Fraction:
        return self.space.d(x, y)

    def rand_point(self, rng: random.Random):
        if not self.space.points:
            raise EmptyInput("cannot draw from a space with no points")
        return rng.choice(self.space.points)


class FreeAlgebraCarrier:
    """Finitely generated convex sets over a space, metrized by HK."""

    def __init__(self, space: FiniteMetricSpace):
        self.space = space
        self.points = None

    def metric(self, s: ConvexSet, t: ConvexSet) -> Fraction:
        return hk_distance(self.space, s, t)

    def rand_point(self, rng: random.Random) -> ConvexSet:
        return rand_convex_set(rng, self.space, max_base=2, max_support=2)


def _rand_set(rng: random.Random, space: FiniteMetricSpace, draw) -> ConvexSet:
    """A random convex set of 1-2 distributions over 1-2 items `draw(rng)`."""
    gens = []
    for _ in range(rng.randint(1, 2)):
        k = rng.randint(1, 2)
        items = [draw(rng) for _ in range(k)]
        acc: dict = {}
        for item, w in zip(items, rand_weights(rng, k)):
            acc[item] = acc.get(item, ZERO) + w
        gens.append(Dist(space, acc))
    return ConvexSet(space, gens)


def rand_carrier_set(rng: random.Random, carrier) -> ConvexSet:
    """A random convex set of 1-2 distributions over 1-2 carrier points."""
    return _rand_set(rng, carrier.space, carrier.rand_point)


def _rand_tower(rng: random.Random, carrier) -> ConvexSet:
    """A random set of distributions over sets over carrier points."""
    return _rand_set(rng, carrier.space, lambda r: rand_carrier_set(r, carrier))


class EMAlgebra:
    """A carrier together with a structure map on convex sets over it."""

    def __init__(self, carrier, alpha: Callable[[ConvexSet], object]):
        self.carrier = carrier
        self.alpha = alpha

    @property
    def space(self) -> FiniteMetricSpace:
        return self.carrier.space

    def check_unit(self, seed: int = 0, trials: int = 50) -> LawReport:
        """alpha({dirac x}) = x, exhaustive on finite carriers."""
        if self.carrier.points is not None:
            points = list(self.carrier.points)
        else:
            rng = random.Random(seed)
            points = [self.carrier.rand_point(rng) for _ in range(trials)]
        failures = []
        for i, x in enumerate(points):
            if self.alpha(ConvexSet(self.space, [dirac(self.space, x)])) != x:
                failures.append(f"point {i}: unit law")
        return LawReport(len(points), failures)

    def check_mult(self, seed: int = 0, trials: int = 30) -> LawReport:
        """alpha . map(alpha) = alpha . mult on sampled two-level sets."""
        rng = random.Random(seed)
        failures = []
        for t in range(trials):
            u = _rand_tower(rng, self.carrier)
            via_map = self.alpha(functor_map(self.alpha, u))
            via_mult = self.alpha(monad_mult(u))
            if via_map != via_mult:
                failures.append(f"trial {t}: multiplication law")
        return LawReport(trials, failures)

    def check_nonexpansive(self, seed: int = 0, trials: int = 30) -> LawReport:
        """d(alpha S, alpha T) bounded by `hk_distance(S, T)`."""
        rng = random.Random(seed)
        failures = []
        for t in range(trials):
            s = rand_carrier_set(rng, self.carrier)
            u = rand_carrier_set(rng, self.carrier)
            lhs = self.carrier.metric(self.alpha(s), self.alpha(u))
            rhs = hk_distance(self.space, s, u)
            if lhs > rhs:
                failures.append(f"trial {t}: {lhs} > {rhs}")
        return LawReport(trials, failures)


class QuantConvexSemilattice:
    """A carrier with convex-semilattice operations, checked by sampling."""

    def __init__(self, carrier, op_oplus: Callable, op_plusp: Callable):
        self.carrier = carrier
        self.op_oplus = op_oplus
        self.op_plusp = op_plusp

    @property
    def space(self) -> FiniteMetricSpace:
        return self.carrier.space

    def check_axioms(self, seed: int = 0, trials: int = 50) -> LawReport:
        """All seven convex-semilattice equations at sampled points."""
        rng = random.Random(seed)
        j = self.op_oplus
        m = self.op_plusp
        failures = []
        for t in range(trials):
            x = self.carrier.rand_point(rng)
            y = self.carrier.rand_point(rng)
            z = self.carrier.rand_point(rng)
            p = rand_prob(rng)
            q = rand_prob(rng)
            checks = [
                ("A", j(j(x, y), z) == j(x, j(y, z))),
                ("C", j(x, y) == j(y, x)),
                ("I", j(x, x) == x),
                (
                    "A_p",
                    m(p, m(q, x, y), z)
                    == m(p * q, x, m(p * (1 - q) / (1 - p * q), y, z)),
                ),
                ("C_p", m(p, x, y) == m(1 - p, y, x)),
                ("I_p", m(p, x, x) == x),
                ("D", m(p, x, j(y, z)) == j(m(p, x, y), m(p, x, z))),
            ]
            for name, holds in checks:
                if not holds:
                    failures.append(f"trial {t}: axiom {name}")
        return LawReport(trials, failures)

    def check_nonexpansive(self, seed: int = 0, trials: int = 50) -> LawReport:
        """Join bounded by max of distances, mixture by the p-average."""
        rng = random.Random(seed)
        d = self.carrier.metric
        failures = []
        for t in range(trials):
            x1 = self.carrier.rand_point(rng)
            x2 = self.carrier.rand_point(rng)
            y1 = self.carrier.rand_point(rng)
            y2 = self.carrier.rand_point(rng)
            p = rand_prob(rng)
            if d(self.op_oplus(x1, x2), self.op_oplus(y1, y2)) > max(
                d(x1, y1), d(x2, y2)
            ):
                failures.append(f"trial {t}: join bound")
            if d(self.op_plusp(p, x1, x2), self.op_plusp(p, y1, y2)) > p * d(
                x1, y1
            ) + (1 - p) * d(x2, y2):
                failures.append(f"trial {t}: mixture bound")
        return LawReport(trials, failures)


def functor_F(em: EMAlgebra) -> QuantConvexSemilattice:
    """Read join and mixture operations off a structure map."""
    space = em.space

    def op_oplus(x, y):
        return em.alpha(ConvexSet(space, [dirac(space, x), dirac(space, y)]))

    def op_plusp(p, x, y):
        mixture = convex_combine([(p, dirac(space, x)), (ONE - p, dirac(space, y))])
        return em.alpha(ConvexSet(space, [mixture]))

    return QuantConvexSemilattice(em.carrier, op_oplus, op_plusp)


def eval_canonical(qa: QuantConvexSemilattice, s: ConvexSet):
    """Interpret the canonical term `terms.nu(s)` with the algebra's operations.

    `Gen` gives its label, `Oplus` gives `op_oplus` and `PlusP` gives
    `op_plusp(p, ...)`. The labels of `nu(s)` are the support items of
    `s`'s base, so they are carrier points (for the free algebra,
    `ConvexSet`s) and the term is interpreted over any carrier.
    """

    def value(term: Term):
        if isinstance(term, Gen):
            return term.label
        if isinstance(term, Oplus):
            return qa.op_oplus(value(term.left), value(term.right))
        return qa.op_plusp(term.p, value(term.left), value(term.right))

    return value(nu(qa.space, s))


def functor_G(qa: QuantConvexSemilattice) -> EMAlgebra:
    """Rebuild a structure map by evaluating canonical terms."""
    return EMAlgebra(qa.carrier, lambda s: eval_canonical(qa, s))


def free_em_algebra(space: FiniteMetricSpace) -> EMAlgebra:
    """The convex sets over `space` with one level of flattening."""
    return EMAlgebra(FreeAlgebraCarrier(space), monad_mult)


def corrupt_alpha(em: EMAlgebra) -> EMAlgebra:
    """Negative control: break the unit law on dirac singletons.

    Only meaningful for set-valued carriers (the free algebra and its
    relatives), where the replacement value is provably distinct.
    """
    space = em.space
    if len(space.points) < 2:
        raise OutOfRange("corruptible space size", len(space.points))

    def bad(s: ConvexSet):
        base = s.base
        if len(base) == 1 and len(base[0].support) == 1:
            x = base[0].support[0]
            other = monad_unit(space, space.points[0])
            if x == other:
                other = monad_unit(space, space.points[1])
            return plus_p(Fraction(1, 2), x, other)
        return em.alpha(s)

    return EMAlgebra(em.carrier, bad)


def roundtrip_GF(em: EMAlgebra, samples: int, seed: int = 0) -> LawReport:
    """Compare a structure map with the one recovered via F then G."""
    recovered = functor_G(functor_F(em))
    rng = random.Random(seed)
    failures = []
    for t in range(samples):
        s = rand_carrier_set(rng, em.carrier)
        if em.alpha(s) != recovered.alpha(s):
            failures.append(f"sample {t}: alpha mismatch")
    return LawReport(samples, failures)


def roundtrip_FG(qa: QuantConvexSemilattice, samples: int, seed: int = 0) -> LawReport:
    """Compare operations with the ones recovered via G then F."""
    recovered = functor_F(functor_G(qa))
    rng = random.Random(seed)
    failures = []
    for t in range(samples):
        x = qa.carrier.rand_point(rng)
        y = qa.carrier.rand_point(rng)
        p = rand_prob(rng)
        if qa.op_oplus(x, y) != recovered.op_oplus(x, y):
            failures.append(f"sample {t}: join mismatch")
        if qa.op_plusp(p, x, y) != recovered.op_plusp(p, x, y):
            failures.append(f"sample {t}: mixture mismatch")
    return LawReport(samples, failures)


def check_homomorphism(
    f: Callable, src: EMAlgebra, dst: EMAlgebra, samples: int = 30, seed: int = 0
) -> LawReport:
    """f . alpha_src = alpha_dst . map(f) on sampled sets over the source."""
    rng = random.Random(seed)
    failures = []
    for t in range(samples):
        s = rand_carrier_set(rng, src.carrier)
        lhs = f(src.alpha(s))
        rhs = dst.alpha(functor_map(f, s, target=dst.space))
        if lhs != rhs:
            failures.append(f"sample {t}: homomorphism square")
    return LawReport(samples, failures)
