"""Constructive derivations: canonical-form proofs and metric lifts.

Everything here builds Derivation trees that the deduction checker
accepts, with exact epsilons.

Two rewriting engines produce the eps-0 glue:

* the mixture engine works on oplus-free terms viewed as left folds
  over generator lists with int weights; its pair step `_mix_pair`
  swaps (C_p) or merges (I_p) two adjacent items under A_p;
* the comb engine works on left combs of oplus leaves; its pair step
  `_oc_pair` swaps (C) or merges (I) two adjacent leaves under A, and
  flatten and absorption moves use A, C, I, D plus the derived
  pairwise convexity law.

`_sort_proof` is the one bubble sort both engines use (merge equal
keys, swap an inversion, rescan from 0). `_under_comb` lifts a proof
about a prefix under the untouched suffix of a comb; `_under_fold` folds
weighted step proofs onto a proof, which both lifts it under a fold's
suffix (Refl steps) and builds derive_kantorovich's parallel fold.
`chain` joins eps-0 steps with Triang, left to right, skipping absent
ones.

`ax(name, t)` makes the axiom instance whose left side is `t`. Its
right side is what `deduction._axiom_right`, the checker's own statement
of the axiom, gives for `t`, so no builder states one. A step that reads
an axiom right to left passes its right side with `flip=True`: the
forward instance with its conclusion flipped, one AxiomCS node and no
Symm node, which the checker accepts since it tries both orientations.

On top of these, derive_kantorovich mirrors an optimal coupling as a
parallel fold of hypothesis steps under the p+ congruence rule, and
derive_hk pads both sides with nearest-base witnesses, lifts each pair
to the Hausdorff value with Max, and joins them under the oplus
congruence rule.

Every public builder runs in one `syntax._sharing_terms` scope, so the
terms of the proof it returns are hash-consed: equal terms are one
object, which the writer then prints once. A builder called inside
another joins the caller's scope, and the scope's table is dropped when
the outermost builder returns or raises, so no table outlives a build
and terms built outside one are never shared.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce

from .convex import (
    ConvexSet,
    in_hull,
    monad_unit,
    nearest_point,
    oplus as set_oplus,
    plus_p as set_plus_p,
)
from .core import ZERO, Dist, FiniteMetricSpace, convex_combine
from .deduction import (
    Derivation,
    QuantEquation,
    _axiom_right,
    _oplus_eps,
    _plusp_eps,
    _triang_eps,
    metric_hypotheses,
)
from .errors import SpaceMismatch
from .syntax import Gen, Oplus, PlusP, Term, _fold_items, _sharing_terms, oc_term
from .terms import dist_term, nu
from .transport import kantorovich


# ---------------------------------------------------------------- builders

def refl(t: Term) -> Derivation:
    return Derivation("Refl", QuantEquation(t, t, ZERO))


def symm(d: Derivation) -> Derivation:
    return Derivation("Symm", d.conclusion.flip(), (d,))


def triang(d1: Derivation, d2: Derivation) -> Derivation:
    c1, c2 = d1.conclusion, d2.conclusion
    assert c1.right == c2.left
    eq = QuantEquation(c1.left, c2.right, _triang_eps(c1.eps, c2.eps))
    return Derivation("Triang", eq, (d1, d2))


def emax(d: Derivation, eps: Fraction) -> Derivation:
    assert eps >= d.conclusion.eps
    eq = QuantEquation(d.conclusion.left, d.conclusion.right, eps)
    return Derivation("Max", eq, (d,))


def congr_oplus(d1: Derivation, d2: Derivation) -> Derivation:
    c1, c2 = d1.conclusion, d2.conclusion
    eq = QuantEquation(
        Oplus(c1.left, c2.left), Oplus(c1.right, c2.right), _oplus_eps(c1.eps, c2.eps)
    )
    return Derivation("NExpOplus", eq, (d1, d2))


def congr_plusp(p: Fraction, d1: Derivation, d2: Derivation) -> Derivation:
    c1, c2 = d1.conclusion, d2.conclusion
    eq = QuantEquation(
        PlusP(p, c1.left, c2.left),
        PlusP(p, c1.right, c2.right),
        _plusp_eps(p, c1.eps, c2.eps),
    )
    return Derivation("NExpPlusP", eq, (d1, d2))


def assum(eq: QuantEquation) -> Derivation:
    return Derivation("Assum", eq)


def ax(name: str, t: Term, flip: bool = False) -> Derivation:
    """The named axiom's instance t = right, read left to right (see
    `deduction._axiom_right`); with `flip`, the same instance written
    right = t. The checker accepts either orientation."""
    right = _axiom_right(name, t)
    assert right is not None
    eq = QuantEquation(right, t, ZERO) if flip else QuantEquation(t, right, ZERO)
    return Derivation("AxiomCS", eq, axiom=name)


def chain(*steps: Derivation | None) -> Derivation | None:
    """The left Triang fold of the steps that are not None."""
    out = None
    for step in steps:
        if step is not None:
            out = step if out is None else triang(out, step)
    return out


def _sort_proof(entries, key, pair, combine):
    """Bubble entries to key order, merging equal keys; (final, proof|None).

    Each round makes the first move it meets, scanning from 0: a pair
    with equal keys merges (`pair(entries, i, True)`, and `combine`
    makes the merged entry), a pair out of order swaps
    (`pair(entries, i, False)`).
    """
    entries = list(entries)
    proof = None
    while True:
        for i in range(len(entries) - 1):
            a, b = key(entries[i]), key(entries[i + 1])
            if a == b:
                proof = chain(proof, pair(entries, i, True))
                entries[i : i + 2] = [combine(entries[i], entries[i + 1])]
                break
            if a > b:
                proof = chain(proof, pair(entries, i, False))
                entries[i], entries[i + 1] = entries[i + 1], entries[i]
                break
        else:
            return entries, proof


# ------------------------------------------------- mixture engine (p+ only)
#
# Items are (label, weight) lists with positive int weights. A fold depends
# only on the ratios of its weights (see `_fold_items`), so a prefix is
# folded as it stands, and each probability is one Fraction of two ints.


def _total(items) -> int:
    return sum([w for _, w in items])


def _join_mix(p, items_a, items_b):
    """PlusP(p, fold(A), fold(B)) = fold(p A ++ (1-p) B), at eps 0."""
    a, b = p.numerator, p.denominator
    ta, tb = _total(items_a), _total(items_b)
    out = [(x, w * a * tb) for x, w in items_a] + [
        (x, w * (b - a) * ta) for x, w in items_b
    ]
    weights = [w for _, w in items_b]
    return out, _join_fold(p, _fold_items(items_a), _fold_items(items_b), weights, tb)


def _join_fold(p, fa: Term, fb: Term, weights: list[int], total: int) -> Derivation:
    """PlusP(p, fa, fb) = the fold of fb's labels after fa's, at eps 0.

    fb is the fold of labels with int `weights`, which sum to `total`.
    """
    if len(weights) == 1:
        return refl(PlusP(p, fa, fb))
    # fb ends in its last label y at 1 - v / total; re-associating puts y
    # last at phat = 1 - (1 - p) v / total, over fa +_q (fb less y).
    a, b = p.numerator, p.denominator
    v = weights[-1]
    rest = b * total - (b - a) * v
    phat = Fraction(rest, b * total)
    q = Fraction(a * total, rest)
    n1 = ax("A_p", PlusP(phat, PlusP(q, fa, fb.left), fb.right), flip=True)
    inner = _join_fold(q, fa, fb.left, weights[:-1], total - v)
    return triang(n1, congr_plusp(phat, inner, refl(fb.right)))


def _flatten_mix(t: Term):
    """(items, proof) with proof: t = fold(items), at eps 0."""
    if isinstance(t, Gen):
        # Rebuilt, so that a leaf of the caller's term is shared too.
        return [(t.label, 1)], refl(Gen(t.label))
    assert isinstance(t, PlusP)
    items_a, da = _flatten_mix(t.left)
    items_b, db = _flatten_mix(t.right)
    d0 = congr_plusp(t.p, da, db)
    out, dj = _join_mix(t.p, items_a, items_b)
    return out, triang(d0, dj)


def _under_fold(pf: Derivation, total: int, steps) -> Derivation:
    """Fold pf, about a fold of weight `total`, with the (proof, weight)
    steps under the p+ congruence, p = S_{j-1}/S_j."""
    for step, v in steps:
        pf = congr_plusp(Fraction(total, total + v), pf, step)
        total += v
    return pf


def _mix_pair(items, i, merge: bool) -> Derivation:
    """fold(items) = fold(items with i, i+1 merged or swapped), at eps 0.

    A merge needs equal labels and adds their weights.
    """
    (a, u), (b, v) = items[i], items[i + 1]
    pair = PlusP(Fraction(u, u + v), Gen(a), Gen(b))
    assert not merge or a == b
    pf = ax("I_p" if merge else "C_p", pair)
    head = items[:i]
    total = _total(head)
    if head:
        # A_p regroups the fold to fold(head) +_w pair.
        n1 = ax("A_p", _fold_items(items[: i + 2]))
        w, x, _ = n1.conclusion.right
        swapped = head + [(b, v), (a, u)]
        pf = chain(
            n1,
            congr_plusp(w, refl(x), pf),
            None if merge else ax("A_p", _fold_items(swapped), flip=True),
        )
    suffix = [(refl(Gen(y)), w) for y, w in items[i + 2 :]]
    return _under_fold(pf, total + u + v, suffix)


def _sort_mix(space: FiniteMetricSpace, items) -> Derivation | None:
    """fold(items) = its canonical fold, at eps 0; None if already so."""
    return _sort_proof(
        items,
        lambda item: space.index(item[0]),
        _mix_pair,
        lambda a, b: (a[0], a[1] + b[1]),
    )[1]


@_sharing_terms()
def prove_dist(space: FiniteMetricSpace, t: Term) -> Derivation:
    """t = dist_term(value of t), at eps 0, for oplus-free t."""
    items, d0 = _flatten_mix(t)
    return chain(d0, _sort_mix(space, items))


# ---------------------------------------------------- comb engine (oplus)

def _under_comb(pf: Derivation, suffix) -> Derivation:
    """Lift pf about a comb under the suffix leaves."""
    for leaf in suffix:
        pf = congr_oplus(pf, refl(leaf))
    return pf


def _oc_pair(leaves, i, merge: bool) -> Derivation:
    """oc(leaves) = oc(leaves with i, i+1 merged or swapped), at eps 0.

    A merge needs equal leaves and keeps one.
    """
    a, b = leaves[i], leaves[i + 1]
    assert not merge or a == b
    pf = ax("I" if merge else "C", Oplus(a, b))
    if i:
        x = oc_term(leaves[:i])
        pf = chain(
            ax("A", Oplus(Oplus(x, a), b)),
            congr_oplus(refl(x), pf),
            None if merge else ax("A", Oplus(Oplus(x, b), a), flip=True),
        )
    return _under_comb(pf, leaves[i + 2 :])


def _ojoin(left: list[Term], right: list[Term]) -> Derivation:
    """Oplus(oc(L), oc(R)) = oc(L ++ R), at eps 0."""
    if len(right) == 1:
        return refl(oc_term(left + right))
    last = right[-1]
    n1 = ax("A", Oplus(Oplus(oc_term(left), oc_term(right[:-1])), last), flip=True)
    n2 = congr_oplus(_ojoin(left, right[:-1]), refl(last))
    return triang(n1, n2)


def _unflatten_head(head: Term, rest: list[Term]) -> Derivation:
    """oc([head] ++ rest) = Oplus(head, oc(rest)), at eps 0."""
    if len(rest) == 1:
        return refl(Oplus(head, rest[0]))
    last = rest[-1]
    n1 = congr_oplus(_unflatten_head(head, rest[:-1]), refl(last))
    n2 = ax("A", Oplus(Oplus(head, oc_term(rest[:-1])), last))
    return triang(n1, n2)


def _comb_congr(leaves: list[Term], j: int, pf: Derivation) -> Derivation:
    """Apply pf at leaf j of the comb; pf rewrites that leaf at eps 0."""
    if j:
        pf = congr_oplus(refl(oc_term(leaves[:j])), pf)
    return _under_comb(pf, leaves[j + 1 :])


def _bubble(leaves: list[Term], src: int, dst: int):
    """Adjacent swaps moving leaf src to dst; returns (new_leaves, proof)."""
    leaves = list(leaves)
    proof = None
    while src > dst:
        proof = chain(proof, _oc_pair(leaves, src - 1, False))
        leaves[src - 1], leaves[src] = leaves[src], leaves[src - 1]
        src -= 1
    while src < dst:
        proof = chain(proof, _oc_pair(leaves, src, False))
        leaves[src], leaves[src + 1] = leaves[src + 1], leaves[src]
        src += 1
    return leaves, proof


def _dup_front(leaves: list[Term], i: int) -> Derivation:
    """oc(leaves) = Oplus(leaves[i], oc(leaves)), at eps 0."""
    b = leaves[i]
    fronted, d1 = _bubble(leaves, i, 0)
    doubled = [b] + fronted
    d2 = symm(_oc_pair(doubled, 0, True))
    d3 = _unflatten_head(b, fronted)
    back, d4 = _bubble(fronted, 0, i)
    assert back == list(leaves)
    return chain(d1, d2, d3, d4 and congr_oplus(refl(b), d4))


def _pw_single(x: Term, y: Term, p: Fraction) -> Derivation:
    """Oplus(x, y) = Oplus(Oplus(x, y), PlusP(p, x, y)), at eps 0."""
    e = Oplus(x, y)
    m = PlusP(p, x, y)
    mq = PlusP(1 - p, x, y)

    def star() -> Derivation:
        # e = ((e + m) + mq) as a comb [x, y, m, mq]
        d1 = symm(ax("I_p", PlusP(p, e, e)))
        d2 = ax("D", PlusP(p, e, e))
        left_box = triang(
            _d_left(x, y, x, p),
            congr_oplus(ax("I_p", PlusP(p, x, x)), refl(PlusP(p, y, x))),
        )
        right_box = triang(
            _d_left(x, y, y, p),
            congr_oplus(refl(PlusP(p, x, y)), ax("I_p", PlusP(p, y, y))),
        )
        d3 = congr_oplus(left_box, right_box)
        # now at Oplus(Oplus(x, y +_p x), Oplus(m, y)); rewrite y +_p x -> mq
        d4 = congr_oplus(
            congr_oplus(refl(x), ax("C_p", PlusP(p, y, x))),
            refl(Oplus(m, y)),
        )
        # flatten [[x, mq], [m, y]] and sort to [x, y, m, mq]
        d5 = _ojoin([x, mq], [m, y])
        d6 = _oc_pair([x, mq, m, y], 2, False)
        d7 = _oc_pair([x, mq, y, m], 1, False)
        d8 = _oc_pair([x, y, mq, m], 2, False)
        return chain(d1, d2, d3, d4, d5, d6, d7, d8)

    st = star()
    # e + m = (((e + m) + mq) + m) = ((e + m) + m + mq) = (e + m) + mq = e
    d1 = congr_oplus(st, refl(m))
    d2 = _oc_pair([x, y, m, mq, m], 3, False)
    d3 = _oc_pair([x, y, m, m, mq], 2, True)
    return symm(chain(d1, d2, d3, symm(st)))


def _d_left(v: Term, w: Term, u: Term, p: Fraction) -> Derivation:
    """(v oplus w) p+ u = (v p+ u) oplus (w p+ u), at eps 0."""
    n1 = ax("C_p", PlusP(p, Oplus(v, w), u))
    n2 = ax("D", n1.conclusion.right)
    uv, uw = n2.conclusion.right
    return chain(n1, n2, congr_oplus(ax("C_p", uv), ax("C_p", uw)))


def _oc_swap_composite(x: Term, y: Term, r: Term) -> Derivation:
    """Oplus(x, Oplus(y, r)) = Oplus(y, Oplus(x, r)), at eps 0."""
    n1 = ax("A", Oplus(Oplus(x, y), r), flip=True)
    n2 = congr_oplus(ax("C", Oplus(x, y)), refl(r))
    n3 = ax("A", Oplus(Oplus(y, x), r))
    return chain(n1, n2, n3)


def _absorb(
    space: FiniteMetricSpace,
    leaves: list[Term],
    values: list[Dist],
    target_term: Term,
    target_value: Dist,
    cert: list[Fraction],
) -> Derivation:
    """oc(leaves) = Oplus(target_term, oc(leaves)), at eps 0.

    cert holds hull coefficients of target_value over values. Induction
    on the support size of cert: a single-point certificate duplicates
    the matching leaf; otherwise the target splits as a two-point
    mixture of its first certificate leaf and the renormalized rest,
    which the pairwise convexity law absorbs.
    """
    support = [i for i, lam in enumerate(cert) if lam > 0]
    assert support
    if len(support) == 1:
        assert leaves[support[0]] == target_term
        return _dup_front(leaves, support[0])
    i1 = support[0]
    lam1 = cert[i1]
    a1 = leaves[i1]
    rest_cert = [ZERO] * len(cert)
    for i in support[1:]:
        rest_cert[i] = cert[i] / (1 - lam1)
    rest_value = convex_combine(
        [(rest_cert[i], values[i]) for i in support[1:]]
    )
    bprime = dist_term(rest_value)
    c = oc_term(leaves)
    m = PlusP(1 - lam1, bprime, a1)
    pd = prove_dist(space, m)
    assert pd.conclusion.right == target_term

    d1 = _absorb(space, leaves, values, bprime, rest_value, rest_cert)
    dup = _dup_front(leaves, i1)
    d2 = congr_oplus(refl(bprime), dup)
    d3 = symm(ax("A", Oplus(Oplus(bprime, a1), c)))
    d4 = congr_oplus(_pw_single(bprime, a1, 1 - lam1), refl(c))
    d5 = congr_oplus(congr_oplus(refl(Oplus(bprime, a1)), pd), refl(c))
    d6 = ax("A", Oplus(Oplus(Oplus(bprime, a1), target_term), c))
    d7 = ax("A", d6.conclusion.right)
    d8 = congr_oplus(refl(bprime), _oc_swap_composite(a1, target_term, c))
    d9 = congr_oplus(
        refl(bprime), congr_oplus(refl(target_term), symm(dup))
    )
    d10 = _oc_swap_composite(bprime, target_term, c)
    d11 = congr_oplus(refl(target_term), symm(d1))
    return chain(d1, d2, d3, d4, d5, d6, d7, d8, d9, d10, d11)


def _canon_oplus(
    space: FiniteMetricSpace, values: list[Dist], base: tuple[Dist, ...]
) -> Derivation | None:
    """oc(dist_term of values) = nu of their hull, at eps 0; None if equal.

    Sorts the leaves, merges duplicates and absorbs every leaf that is
    not in `base`, the unique base of the hull of `values`.
    """
    entries, proof = _sort_proof(
        [(dist_term(v), v) for v in values],
        lambda entry: entry[1].sort_key(),
        lambda entries, i, merge: _oc_pair([leaf for leaf, _ in entries], i, merge),
        lambda a, b: a,
    )
    leaves = [leaf for leaf, _ in entries]
    values = [v for _, v in entries]
    base = set(base)
    for extra in [v for v in values if v not in base]:
        idx = values.index(extra)
        moved, d_bubble = _bubble(leaves, idx, len(leaves) - 1)
        del values[idx]
        leaves, last = moved[:-1], moved[-1]
        d_comm = ax("C", Oplus(oc_term(leaves), last))
        ok, cert = in_hull(extra, values)
        assert ok
        d_drop = symm(_absorb(space, leaves, values, last, extra, list(cert)))
        proof = chain(proof, d_bubble, d_comm, d_drop)
    return proof


def _spread(leaves: list[Term], wrap, split) -> Derivation:
    """wrap(oc(leaves)) = oc of wrap over the leaves, at eps 0.

    split(x, y) proves wrap(Oplus(x, y)) = Oplus(wrap(x), wrap(y)).
    """
    if len(leaves) == 1:
        return refl(wrap(leaves[0]))
    head, last = leaves[:-1], leaves[-1]
    n1 = split(oc_term(head), last)
    return triang(n1, congr_oplus(_spread(head, wrap, split), refl(wrap(last))))


def _distribute(p: Fraction, left: list[Term], right: list[Term]):
    """PlusP(p, oc(L), oc(R)) = oc of all pairwise p+ terms, at eps 0.

    Output leaf order: right leaf major, left leaf minor.
    """
    ocl = oc_term(left)

    def wrap(b: Term) -> Term:
        return PlusP(p, ocl, b)

    def split(x: Term, y: Term) -> Derivation:
        return ax("D", wrap(Oplus(x, y)))

    proof = _spread(right, wrap, split)
    cur: list[Term] = [wrap(b) for b in right]
    groups: list[list[Term]] = []
    for j, b in enumerate(right):
        pf = _spread(left, lambda a: PlusP(p, a, b), lambda x, y: _d_left(x, y, b, p))
        proof = chain(proof, _comb_congr(cur, j, pf))
        group = [PlusP(p, a, b) for a in left]
        cur[j] = oc_term(group)
        groups.append(group)
    # Flatten the comb of combs: join each group into the running
    # prefix, rewriting under congruence with the untouched suffix.
    flat = list(groups[0])
    for j in range(1, len(groups)):
        inner = _ojoin(flat, groups[j])
        proof = chain(proof, _under_comb(inner, cur[j + 1 :]))
        flat = flat + groups[j]
    return flat, proof


@_sharing_terms()
def canon_proof(space: FiniteMetricSpace, t: Term):
    """(derivation, set): t = nu(set) at eps 0, set = normalize(t)."""
    return _canon_proof(space, t)


def _canon_proof(space: FiniteMetricSpace, t: Term):
    if isinstance(t, Gen):
        return refl(Gen(t.label)), monad_unit(space, t.label)
    dl, sl = _canon_proof(space, t.left)
    dr, sr = _canon_proof(space, t.right)
    leaves_l = [dist_term(x) for x in sl.base]
    leaves_r = [dist_term(x) for x in sr.base]
    if isinstance(t, Oplus):
        s = set_oplus(sl, sr)
        values = list(sl.base) + list(sr.base)
        d0 = congr_oplus(dl, dr)
        dd = _ojoin(leaves_l, leaves_r)
    else:
        assert isinstance(t, PlusP)
        s = set_plus_p(t.p, sl, sr)
        values = [
            convex_combine([(t.p, a), (1 - t.p, b)])
            for b in sr.base
            for a in sl.base
        ]
        d0 = congr_plusp(t.p, dl, dr)
        leaves, dd = _distribute(t.p, leaves_l, leaves_r)
        for j, leaf in enumerate(leaves):
            pf = prove_dist(space, leaf)
            if pf.conclusion.left != pf.conclusion.right:
                dd = chain(dd, _comb_congr(leaves, j, pf))
            leaves[j] = pf.conclusion.right
    out = chain(d0, dd, _canon_oplus(space, values, s.base))
    assert out.conclusion == QuantEquation(t, nu(space, s), ZERO)
    return out, s


@_sharing_terms()
def prove_equal(space: FiniteMetricSpace, left: Term, right: Term) -> Derivation:
    """Derivation of left =_0 right for theory-equal terms."""
    dl, sl = canon_proof(space, left)
    dr, sr = canon_proof(space, right)
    if sl != sr:
        raise ValueError("terms are not equal modulo the theory")
    return triang(dl, symm(dr))


# -------------------------------------------------------- metric derivations

def _fold_pair(space: FiniteMetricSpace, cells) -> Derivation:
    """Parallel fold over coupling cells under the p+ congruence.

    Cells are (x, y, weight) with positive int weights, folded as
    `_fold_items` folds labels.
    """

    def step(x: str, y: str) -> Derivation:
        if x == y:
            return refl(Gen(x))
        return assum(QuantEquation(Gen(x), Gen(y), space.d(x, y)))

    steps = [(step(x, y), w) for x, y, w in cells]
    return _under_fold(*steps[0], steps[1:])


def _support_hypotheses(space, left_points, right_points):
    eqs = []
    for x in left_points:
        for y in right_points:
            if x != y:
                eqs.append(QuantEquation(Gen(x), Gen(y), space.d(x, y)))
    return tuple(dict.fromkeys(eqs))


@_sharing_terms()
def derive_kantorovich(space: FiniteMetricSpace, left: Dist, right: Dist) -> Derivation:
    """nu({left}) =_eps nu({right}) with eps the Kantorovich distance.

    Mirrors the optimal coupling as a fold of ground hypotheses under
    the p+ congruence, then rearranges each side to its canonical term.
    """
    if left.space != space or right.space != space:
        raise SpaceMismatch()
    result = kantorovich(space, left, right)
    num = result.witness._num
    cells = [(x, y, num[(x, y)]) for x, y in result.witness.support]
    core = _fold_pair(space, cells)
    row_items = [(x, w) for x, _y, w in cells]
    col_items = [(y, w) for _x, y, w in cells]
    pl = _sort_mix(space, row_items)
    d = chain(pl and symm(pl), core, _sort_mix(space, col_items))
    expected = QuantEquation(dist_term(left), dist_term(right), result.value)
    assert d.conclusion == expected
    return d._replace(
        hypotheses=_support_hypotheses(space, left.support, right.support)
    )


@_sharing_terms()
def derive_hk(space: FiniteMetricSpace, left: ConvexSet, right: ConvexSet) -> Derivation:
    """nu(left) =_h nu(right) with h the Hausdorff-Kantorovich distance.

    Pads each side with the projection mixtures witnessing the other
    side's directed infima (absorbed at eps 0 since they lie in the
    hull), proves each aligned pair at its Kantorovich distance, lifts
    all pairs to h with Max, folds them under the oplus congruence, and
    removes the padding with eps-0 canonicalization.
    """
    to_right = [nearest_point(space, g, right)[:2] for g in left.base]
    to_left = [nearest_point(space, g, left)[:2] for g in right.base]
    # At h = 0 every conclusion is eps-0 glue, so h is then `ZERO` itself.
    h = max(value for value, _ in to_right + to_left) or ZERO
    pairs = [(s, mix) for s, (_, mix) in zip(left.base, to_right)] + [
        (mix, t) for (_, mix), t in zip(to_left, right.base)
    ]
    pair_proofs = [
        emax(derive_kantorovich(space, a, b), h) for a, b in pairs
    ]
    hfold = reduce(congr_oplus, pair_proofs)
    # The padding mixtures lie in the hulls, so the bases stay those of
    # left and right.
    pad_s = _canon_oplus(space, [a for a, _ in pairs], left.base)
    pad_t = _canon_oplus(space, [b for _, b in pairs], right.base)
    d = chain(pad_s and symm(pad_s), hfold, pad_t)
    expected = QuantEquation(nu(space, left), nu(space, right), h)
    assert d.conclusion == expected
    supp_left = sorted(
        {x for b in left.base for x in b.support}, key=space.index
    )
    supp_right = sorted(
        {x for b in right.base for x in b.support}, key=space.index
    )
    return d._replace(hypotheses=_support_hypotheses(space, supp_left, supp_right))


@_sharing_terms()
def tightest_derivable(space: FiniteMetricSpace, left: Term, right: Term):
    """(value, derivation): the least derivable eps between two terms.

    The derivation's hypotheses are `metric_hypotheses(space)`, the gamma
    that `check_derivation` accepts it under.
    """
    dl, sl = canon_proof(space, left)
    dr, sr = canon_proof(space, right)
    dh = derive_hk(space, sl, sr)
    d = chain(dl, dh, symm(dr))
    return dh.conclusion.eps, d._replace(hypotheses=metric_hypotheses(space))
