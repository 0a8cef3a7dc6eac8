"""Round-trips between convex-set algebras and quantitative convex semilattices.

Every algebra here lives on the finitely generated convex sets over one
finite metric space, metrized by `lifting.hk_distance`. An
Eilenberg-Moore algebra is that space with a structure map
``alpha: ConvexSet over convex sets -> ConvexSet``; a quantitative
convex semilattice is that space with binary operations ``op_oplus``
and ``op_plusp(p, -, -)``. Both directions of the correspondence are
function-backed:

* ``functor_F`` reads the two operations off a structure map,
  ``x (+) y = alpha(cc{dirac x, dirac y})`` and
  ``x +_p y = alpha({p x + (1-p) y})``.
* ``functor_G`` rebuilds a structure map by interpreting the canonical
  term `terms.nu(S)` of a set inside the algebra.

The convex sets form an infinite carrier even over a finite space, so
all laws and both round-trips are checked pointwise on seeded
pseudo-random samples: one driver, `_sampled`, runs every check and
collects its failures into a `LawReport`, and every carrier point and
tower is drawn through `sampling` (`rand_point` and its tower
samplers). `check_monad_laws` checks the monad laws of the convex-set
monad itself the same way. A semilattice's axiom and bound checks read
`deduction`'s statements: `_axiom_right` gives each axiom's right side,
and the NExp rules' eps give the bounds. The flagship instance is
``free_em_algebra``, whose structure map is one level of `monad_mult`;
there every check is exactly computable.

On morphisms both constructions act as the identity, so a function is a
homomorphism of algebras iff it is one of semilattices; the sampled
`check_homomorphism` covers the algebra side.

`LawReport(trials, failures)`, `EMAlgebra(space, alpha)` and
`QuantConvexSemilattice(space, op_oplus, op_plusp)` are NamedTuples,
compared by their fields.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple

from .convex import ConvexSet, functor_map, monad_mult, monad_unit, plus_p
from .core import ONE, FiniteMetricSpace, convex_combine, dirac
from .deduction import AXIOMS, _axiom_right, _oplus_eps, _plusp_eps
from .errors import OutOfRange
from .lifting import hk_distance
from .sampling import (
    rand_convex_set,
    rand_point,
    rand_prob,
    rand_set_of_sets,
    rand_set_of_sets_of_sets,
    rand_space,
)
from .syntax import Gen, Oplus, PlusP, Term
from .terms import nu


class LawReport(NamedTuple):
    """Outcome of randomized law checking."""

    trials: int
    failures: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {"trials": self.trials, "failures": self.failures, "ok": self.ok}


def _sampled(
    seed: int,
    trials: int,
    label: str,
    trial: Callable[[random.Random], Iterable[tuple[str, bool]]],
) -> LawReport:
    """Run `trial` `trials` times on one rng seeded by `seed`.

    Each trial draws what it needs and returns (law, holds) pairs; a law
    that fails in trial t is reported as "<label> <t>: <law>".
    """
    rng = random.Random(seed)
    failures = [
        f"{label} {t}: {law}"
        for t in range(trials)
        for law, holds in trial(rng)
        if not holds
    ]
    return LawReport(trials, failures)


def check_monad_laws(seed: int, trials: int) -> LawReport:
    """Left/right unit and associativity on pseudo-random towers."""

    def trial(rng):
        space = rand_space(rng, max_points=4)
        s = rand_convex_set(rng, space, max_base=3, max_support=3)
        u = rand_set_of_sets_of_sets(rng, space)
        via_inner = functor_map(lambda x: monad_unit(space, x), s)
        return [
            ("mult after outer unit", monad_mult(monad_unit(space, s)) == s),
            ("mult after mapped unit", monad_mult(via_inner) == s),
            (
                "associativity",
                monad_mult(functor_map(monad_mult, u)) == monad_mult(monad_mult(u)),
            ),
        ]

    return _sampled(seed, trials, "trial", trial)


class EMAlgebra(NamedTuple):
    """The convex sets over a space together with a structure map."""

    space: FiniteMetricSpace
    alpha: Callable[[ConvexSet], ConvexSet]

    def check_unit(self, seed: int = 0, trials: int = 50) -> LawReport:
        """alpha({dirac x}) = x at sampled carrier points."""

        def trial(rng):
            x = rand_point(rng, self.space)
            return [("unit law", self.alpha(monad_unit(self.space, x)) == x)]

        return _sampled(seed, trials, "point", trial)

    def check_mult(self, seed: int = 0, trials: int = 30) -> LawReport:
        """alpha . map(alpha) = alpha . mult on sampled two-level sets."""

        def trial(rng):
            u = rand_set_of_sets_of_sets(rng, self.space)
            via_map = self.alpha(functor_map(self.alpha, u))
            return [("multiplication law", via_map == self.alpha(monad_mult(u)))]

        return _sampled(seed, trials, "trial", trial)

    def check_nonexpansive(self, seed: int = 0, trials: int = 30) -> LawReport:
        """d(alpha S, alpha T) bounded by `hk_distance(S, T)`."""

        def trial(rng):
            s = rand_set_of_sets(rng, self.space)
            u = rand_set_of_sets(rng, self.space)
            lhs = hk_distance(self.space, self.alpha(s), self.alpha(u))
            rhs = hk_distance(self.space, s, u)
            return [(f"{lhs} > {rhs}", lhs <= rhs)]

        return _sampled(seed, trials, "trial", trial)


class QuantConvexSemilattice(NamedTuple):
    """The convex sets over a space with convex-semilattice operations."""

    space: FiniteMetricSpace
    op_oplus: Callable
    op_plusp: Callable

    def check_axioms(self, seed: int = 0, trials: int = 50) -> LawReport:
        """The axioms of `deduction.AXIOMS` at sampled points: each left side,
        over `Gen` leaves, against the right side `deduction._axiom_right`
        gives it, both as the algebra's operations evaluate them."""

        def trial(rng):
            x, y, z = (Gen(rand_point(rng, self.space)) for _ in range(3))
            p = rand_prob(rng)
            q = rand_prob(rng)
            left = {
                "A": Oplus(Oplus(x, y), z),
                "C": Oplus(x, y),
                "I": Oplus(x, x),
                "A_p": PlusP(p, PlusP(q, x, y), z),
                "C_p": PlusP(p, x, y),
                "I_p": PlusP(p, x, x),
                "D": PlusP(p, x, Oplus(y, z)),
            }

            def agree(name):
                t = left[name]
                return _interpret(self, t) == _interpret(self, _axiom_right(name, t))

            return [(f"axiom {name}", agree(name)) for name in AXIOMS]

        return _sampled(seed, trials, "trial", trial)

    def check_nonexpansive(self, seed: int = 0, trials: int = 50) -> LawReport:
        """Join and mixture within the eps of `deduction`'s NExp rules."""

        def d(a, b):
            return hk_distance(self.space, a, b)

        def trial(rng):
            x1, x2, y1, y2 = (rand_point(rng, self.space) for _ in range(4))
            p = rand_prob(rng)
            d1, d2 = d(x1, y1), d(x2, y2)
            joined = d(self.op_oplus(x1, x2), self.op_oplus(y1, y2))
            mixed = d(self.op_plusp(p, x1, x2), self.op_plusp(p, y1, y2))
            return [
                ("join bound", joined <= _oplus_eps(d1, d2)),
                ("mixture bound", mixed <= _plusp_eps(p, d1, d2)),
            ]

        return _sampled(seed, trials, "trial", trial)


def _interpret(qa: QuantConvexSemilattice, term: Term):
    """The value of `term` in `qa`: a `Gen` gives its label, `Oplus` gives
    `op_oplus` and `PlusP` gives `op_plusp(p, ...)`, left side first."""
    if isinstance(term, Gen):
        return term.label
    left = _interpret(qa, term.left)
    right = _interpret(qa, term.right)
    if isinstance(term, Oplus):
        return qa.op_oplus(left, right)
    return qa.op_plusp(term.p, left, right)


def functor_F(em: EMAlgebra) -> QuantConvexSemilattice:
    """Read join and mixture operations off a structure map."""
    space = em.space

    def op_oplus(x, y):
        return em.alpha(ConvexSet(space, [dirac(space, x), dirac(space, y)]))

    def op_plusp(p, x, y):
        mixture = convex_combine([(p, dirac(space, x)), (ONE - p, dirac(space, y))])
        return em.alpha(ConvexSet(space, [mixture]))

    return QuantConvexSemilattice(space, op_oplus, op_plusp)


def eval_canonical(qa: QuantConvexSemilattice, s: ConvexSet):
    """Interpret the canonical term `terms.nu(s)` with the algebra's operations.

    The labels of `nu(s)` are the support items of `s`'s base, so for a
    set over carrier points they are `ConvexSet`s and the term is
    interpreted in the algebra.
    """
    return _interpret(qa, nu(qa.space, s))


def functor_G(qa: QuantConvexSemilattice) -> EMAlgebra:
    """Rebuild a structure map by evaluating canonical terms."""
    return EMAlgebra(qa.space, lambda s: eval_canonical(qa, s))


def free_em_algebra(space: FiniteMetricSpace) -> EMAlgebra:
    """The convex sets over `space` with one level of flattening."""
    return EMAlgebra(space, monad_mult)


def corrupt_alpha(em: EMAlgebra) -> EMAlgebra:
    """Negative control: break the unit law on dirac singletons, whose
    replacement, a half mixture with another point mass, is provably
    distinct."""
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

    return EMAlgebra(space, bad)


def roundtrip_GF(em: EMAlgebra, samples: int, seed: int = 0) -> LawReport:
    """Compare a structure map with the one recovered via F then G."""
    recovered = functor_G(functor_F(em))

    def trial(rng):
        s = rand_set_of_sets(rng, em.space)
        return [("alpha mismatch", em.alpha(s) == recovered.alpha(s))]

    return _sampled(seed, samples, "sample", trial)


def roundtrip_FG(qa: QuantConvexSemilattice, samples: int, seed: int = 0) -> LawReport:
    """Compare operations with the ones recovered via G then F."""
    recovered = functor_F(functor_G(qa))

    def trial(rng):
        x = rand_point(rng, qa.space)
        y = rand_point(rng, qa.space)
        p = rand_prob(rng)
        return [
            ("join mismatch", qa.op_oplus(x, y) == recovered.op_oplus(x, y)),
            ("mixture mismatch", qa.op_plusp(p, x, y) == recovered.op_plusp(p, x, y)),
        ]

    return _sampled(seed, samples, "sample", trial)


def check_homomorphism(
    f: Callable, src: EMAlgebra, dst: EMAlgebra, samples: int = 30, seed: int = 0
) -> LawReport:
    """f . alpha_src = alpha_dst . map(f) on sampled sets over the source."""

    def trial(rng):
        s = rand_set_of_sets(rng, src.space)
        rhs = dst.alpha(functor_map(f, s, target=dst.space))
        return [("homomorphism square", f(src.alpha(s)) == rhs)]

    return _sampled(seed, samples, "sample", trial)
