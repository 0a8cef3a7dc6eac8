"""Byte pin of the proof builders that `derive` does not reach.

`tests/test_certify_bytes.py` pins `derive_hk` through the CLI. This file
pins `canon_proof` (the oplus join, `_distribute`, the per-leaf mixture
rewrites and their I_p merges) and `tightest_derivable` on seeded
`sampling.rand_term` pairs. The sha256 of their JSON documents and
values must stay equal to `DIGEST`: a change that moves a single node of
either builder's derivation fails here.
"""

import hashlib
import json
import random

from hkconvex.deduction import derivation_to_json_dict
from hkconvex.proofs import canon_proof, tightest_derivable
from hkconvex.sampling import rand_space, rand_term

SEEDS = range(20)
DEPTH = 4
DIGEST = "9761738a69e06f21854146acf6280ad53830bed6aedfc697dacc2046addcfdd3"


def _document(d) -> bytes:
    return json.dumps(derivation_to_json_dict(d)).encode("utf-8")


def test_canon_and_tightest_proofs_are_pinned():
    digest = hashlib.sha256()
    for seed in SEEDS:
        rng = random.Random(seed)
        space = rand_space(rng, 4)
        left = rand_term(rng, space, DEPTH)
        right = rand_term(rng, space, DEPTH)
        d, _ = canon_proof(space, left)
        digest.update(_document(d))
        value, d = tightest_derivable(space, left, right)
        digest.update(str(value).encode("utf-8"))
        digest.update(_document(d))
    assert digest.hexdigest() == DIGEST
