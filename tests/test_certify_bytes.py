"""Byte pin of the CLI proof pipeline: `derive` then `check` on fixed inputs.

The instances come from a seeded `random.Random`: 3-5 points whose
distances lie in [1/2, 1] (so any choice satisfies the triangle
inequality), and two sets of 1-2 generators with supports of 1-3 points
and small integer weights. The sha256 of everything the two commands
print must stay equal to `DIGEST`: a change to the proof builders, the
JSON writer or reader, or the checker that moves a single byte of
`derive`'s document or of `check`'s reply fails here.
"""

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction

from hkconvex import FiniteMetricSpace, metric_hypotheses
from hkconvex.cli import main
from hkconvex.deduction import equation_to_json_dict

SEEDS = range(9)
POINTS = (3, 4, 5)
# Computed with the proof builders, writer, reader and checker whose
# output `bench/golden.json` also pins.
DIGEST = "c6ba91b91ba21f7c804cbe3447272b4e05cf668931756e53867dc353d17d1c72"


def _instance(seed: int, n: int) -> dict:
    rng = random.Random(1000 * n + seed)
    points = [f"p{i}" for i in range(n)]
    dist = []
    for i, x in enumerate(points):
        for y in points[i + 1 :]:
            k = rng.randint(1, 4)
            dist.append([x, y, str(Fraction(rng.randint(k, 2 * k), 2 * k))])

    def generator() -> dict:
        support = rng.sample(points, rng.randint(1, 3))
        raw = [rng.randint(1, 6) for _ in support]
        return {x: str(Fraction(r, sum(raw))) for x, r in zip(support, raw)}

    def side() -> list:
        return [generator() for _ in range(rng.randint(1, 2))]

    return {"space": {"points": points, "dist": dist}, "left": side(), "right": side()}


def _run(*argv) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def test_derive_then_check_output_is_pinned(tmp_path):
    digest = hashlib.sha256()
    for n in POINTS:
        for seed in SEEDS:
            data = _instance(seed, n)
            space = FiniteMetricSpace.from_json_dict(data["space"])
            data["gamma"] = [equation_to_json_dict(eq) for eq in metric_hypotheses(space)]
            paths = {}
            for key, obj in data.items():
                paths[key] = tmp_path / f"{n}-{seed}-{key}.json"
                paths[key].write_text(json.dumps(obj))
            code, proof = _run(
                "derive",
                "--space", str(paths["space"]),
                "--left", str(paths["left"]),
                "--right", str(paths["right"]),
            )
            assert code == 0, (n, seed)
            proof_path = tmp_path / f"{n}-{seed}-proof.json"
            proof_path.write_text(proof)
            code, reply = _run(
                "check",
                "--space", str(paths["space"]),
                "--gamma", str(paths["gamma"]),
                "--proof", str(proof_path),
            )
            assert (code, json.loads(reply)["ok"]) == (0, True), (n, seed, reply)
            digest.update(proof.encode("utf-8"))
            digest.update(reply.encode("utf-8"))
    assert digest.hexdigest() == DIGEST
