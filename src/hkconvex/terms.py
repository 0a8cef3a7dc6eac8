"""What a convex-semilattice term denotes; its syntax is in `syntax`.

`normalize` interprets a term as a convex set of distributions, `nu`
picks the canonical term of a convex set, and the two are mutually
inverse up to the theory. `term_distance` is the HK distance of the sets.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .convex import ConvexSet, plus_p
from .core import Dist, FiniteMetricSpace
from .errors import UnknownPoint, guard_depth
from .lifting import hk_distance
from .syntax import Gen, Oplus, PlusP, Term, _fold_items, oc_term

# `bench/tracing.py` and `bench/workloads.py` read these as `terms` attributes.
from .syntax import parse_term, print_term, substitute


def normalize(space: FiniteMetricSpace, term: Term) -> ConvexSet:
    """Interpret a term in the free algebra of convex sets.

    Each maximal oplus-free subterm denotes one distribution, which is
    evaluated on ints in one walk and becomes one generator; p+ over
    subterms that contain an oplus mixes their convex sets with `plus_p`.
    A term nested deeper than the recursion limit through p+ raises
    TooDeep; oplus nesting of any depth is walked without recursion.
    """
    return guard_depth(_normalize, space, term)


def _normalize(space: FiniteMetricSpace, term: Term) -> ConvexSet:
    if not isinstance(term, Oplus):
        return _as_set(space, _evaluate(space, term))
    # Convex union is associative and the base is canonical, so a maximal
    # oplus spine is re-based once, over the bases of all its leaves.
    gens = []
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, Oplus):
            stack.append(t.right)
            stack.append(t.left)
        else:
            value = _evaluate(space, t)
            if isinstance(value, ConvexSet):
                gens.extend(value.base)
            else:
                gens.append(Dist._from_ints(space, *value))
    return ConvexSet(space, gens)


def _evaluate(space: FiniteMetricSpace, term: Term):
    """The convex set of a term with an oplus in it, or else its one
    distribution as (den, {label: numerator}), not reduced."""
    if isinstance(term, Gen):
        if term.label not in space:
            raise UnknownPoint(term.label)
        return 1, {term.label: 1}
    if isinstance(term, Oplus):
        return _normalize(space, term)
    left = _evaluate(space, term.left)
    right = _evaluate(space, term.right)
    if isinstance(left, ConvexSet) or isinstance(right, ConvexSet):
        return plus_p(term.p, _as_set(space, left), _as_set(space, right))
    # p*L + (1-p)*R over the common denominator b * lcm(L, R), p = a/b.
    a, b = term.p.numerator, term.p.denominator
    (dl, nl), (dr, nr) = left, right
    d = lcm(dl, dr)
    fl, fr = a * (d // dl), (b - a) * (d // dr)
    num = {label: n * fl for label, n in nl.items()}
    for label, n in nr.items():
        num[label] = num.get(label, 0) + n * fr
    return b * d, num


def _as_set(space: FiniteMetricSpace, value) -> ConvexSet:
    if isinstance(value, ConvexSet):
        return value
    return ConvexSet(space, [Dist._from_ints(space, *value)])


def dist_term(dist: Dist) -> Term:
    """Left-fold of p+ over the support in canonical order.

    The step that attaches a point mixes it into the renormalized prefix
    before it, so its probability is one minus the point's renormalized
    weight (see `_fold_items`).
    """
    num = dist._num
    return _fold_items([(x, num[x]) for x in dist.support])


def nu(space: FiniteMetricSpace, s: ConvexSet) -> Term:
    """Canonical term of a convex set: left comb of oplus over the base."""
    return oc_term([dist_term(d) for d in s.base])


def term_distance(space: FiniteMetricSpace, left: Term, right: Term) -> Fraction:
    return hk_distance(space, normalize(space, left), normalize(space, right))


def term_equal_mod_theory(space: FiniteMetricSpace, left: Term, right: Term) -> bool:
    return normalize(space, left) == normalize(space, right)
