"""Quantitative derivations and the proof checker.

A derivation is a tree whose conclusion is a quantitative equation
t =_eps s. The checker replays every rule side condition exactly and
reports the path to the first broken node, so constructed proofs can be
serialized, shipped, and re-verified independently.
"""

import json
from fractions import Fraction

from hkconvex import (
    ConvexSet,
    Dist,
    FiniteMetricSpace,
    QuantEquation,
    check_derivation,
    derivation_from_json_dict,
    derivation_to_json_dict,
    dirac,
    hk_distance,
    kantorovich,
    metric_hypotheses,
    parse_term,
    term_distance,
)
from hkconvex.proofs import derive_hk, derive_kantorovich, tightest_derivable

space = FiniteMetricSpace(
    ["a", "b", "c"],
    {
        ("a", "b"): Fraction(1, 2),
        ("b", "c"): Fraction(1, 2),
        ("a", "c"): Fraction(1),
    },
)

# hypotheses: the ground distances as quantitative equations
gamma = metric_hypotheses(space)
print("ground hypotheses:", len(gamma))

# a transport derivation mirrors the optimal coupling; its epsilon is
# exactly the Kantorovich distance
left = Dist(space, {"a": "1/2", "b": "1/2"})
right = dirac(space, "a")
d = derive_kantorovich(space, left, right)
print("transport conclusion:", d.conclusion)
assert d.conclusion.eps == kantorovich(space, left, right).value

# a set-level derivation pads both sides with projection mixtures and
# folds pairwise transport proofs; epsilon is exactly the lifted distance
s = ConvexSet(space, [dirac(space, "a"), dirac(space, "b")])
t = ConvexSet(space, [dirac(space, "c")])
dh = derive_hk(space, s, t)
print("set-level epsilon:", dh.conclusion.eps, "=", hk_distance(space, s, t))

# the tightest derivable bound between two terms equals their distance
a = parse_term("(oplus a b)")
b = parse_term("(p+ 1/4 a c)")
value, proof = tightest_derivable(space, a, b)
print("tightest epsilon:", value, "=", term_distance(space, a, b))

# derivations survive a JSON round trip and re-check cleanly
blob = json.dumps(derivation_to_json_dict(proof))
recovered = derivation_from_json_dict(json.loads(blob))
res = check_derivation(gamma, recovered)
print("checker verdict:", res.ok)

# tampering with the conclusion is caught, with the failing node's path
forged = derivation_to_json_dict(proof)
forged["conclusion"]["eps"] = "0"
bad = check_derivation(gamma, derivation_from_json_dict(forged))
print("forged eps rejected:", not bad.ok, "at node", list(bad.path), "because", bad.reason)

# claims must also be in range: epsilons live in [0, 1]
try:
    QuantEquation(a, b, Fraction(3, 2))
except Exception as e:
    print("rejected:", e)
