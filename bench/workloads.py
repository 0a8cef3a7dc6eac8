"""The three benchmark workloads: what one instance runs, and its checks.

Each workload turns the generator's plain data into library inputs
(`prepare`, outside the timed region), runs one instance (`run`, timed),
renders the outputs canonically (`canonical`, for the golden digest and
the traced/untraced comparison), and checks them (`verify`, outside the
timed region). Library functions are always called through their module
attribute, so that the tracer's rebinding of those attributes sees every
call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
from fractions import Fraction

from hkconvex import cli, convex, core, deduction, lifting, terms, transport

import gen


def _stats_mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def proof_nodes(node: dict) -> int:
    """Derivation.size() of a derivation given as its JSON document."""
    return 1 + sum(proof_nodes(p) for p in node.get("premises", ()))


def call_cli(argv: list) -> tuple:
    """Run the CLI in-process; returns (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


class Certify:
    """CLI `derive` then `check` against the space's metric hypotheses."""

    name = "certify"
    cycle = gen.CERTIFY_CYCLE

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def data(self, index: int) -> dict:
        return gen.certify_instance(self.seed, index)

    def prepare(self, data: dict, tag: str) -> dict:
        folder = os.path.join(self.workdir, tag)
        os.makedirs(folder, exist_ok=True)
        space = core.FiniteMetricSpace.from_json_dict(data["space"])
        gamma = [
            deduction.equation_to_json_dict(eq)
            for eq in deduction.metric_hypotheses(space)
        ]
        paths = {}
        for key, obj in (
            ("space", data["space"]),
            ("left", data["left"]),
            ("right", data["right"]),
            ("gamma", gamma),
        ):
            paths[key] = os.path.join(folder, key + ".json")
            with open(paths[key], "w", encoding="utf-8") as handle:
                json.dump(obj, handle)
        paths["proof"] = os.path.join(folder, "proof.json")
        return {"data": data, "folder": folder, "paths": paths}

    def derive(self, inst: dict) -> tuple:
        p = inst["paths"]
        code, text = call_cli(
            ["derive", "--space", p["space"], "--left", p["left"], "--right", p["right"]]
        )
        with open(p["proof"], "w", encoding="utf-8") as handle:
            handle.write(text)
        return code, text

    def check(self, inst: dict) -> tuple:
        p = inst["paths"]
        return call_cli(
            ["check", "--space", p["space"], "--gamma", p["gamma"], "--proof", p["proof"]]
        )

    def run(self, inst: dict) -> dict:
        return {"derive": self.derive(inst), "check": self.check(inst)}

    def canonical(self, out: dict) -> str:
        return out["derive"][1] + out["check"][1]

    def verify(self, inst: dict, out: dict) -> tuple:
        problems = []
        data = inst["data"]
        space = core.FiniteMetricSpace.from_json_dict(data["space"])
        left = convex.ConvexSet.from_json_dict(space, data["left"])
        right = convex.ConvexSet.from_json_dict(space, data["right"])
        derive_code, derive_text = out["derive"]
        check_code, check_text = out["check"]
        proof = json.loads(derive_text) if derive_code == 0 else {}
        if derive_code != 0:
            problems.append(f"derive exited {derive_code}")
        else:
            conclusion = proof["conclusion"]
            if Fraction(conclusion["eps"]) != lifting.hk_distance(space, left, right):
                problems.append("conclusion eps differs from hk_distance")
            if conclusion["l"] != terms.print_term(terms.nu(space, left)):
                problems.append("conclusion left side is not nu(left)")
            if conclusion["r"] != terms.print_term(terms.nu(space, right)):
                problems.append("conclusion right side is not nu(right)")
        if check_code != 0 or json.loads(check_text).get("ok") is not True:
            problems.append(f"check rejected the proof: {check_text.strip()}")
        gens = data["left"]["generators"] + data["right"]["generators"]
        stats = {
            "points": len(data["space"]["points"]),
            "generators": len(gens),
            "base": len(left.base) + len(right.base),
            "support": _stats_mean(len(g) for g in gens),
            "proof_nodes": proof_nodes(proof) if proof else 0,
            "proof_kb": len(derive_text.encode("utf-8")) / 1024,
        }
        return problems, stats

    def cleanup(self, inst: dict) -> None:
        shutil.rmtree(inst["folder"], ignore_errors=True)


def _tower_json(s) -> list:
    """A set of distributions over ground convex sets, canonically."""
    return [
        [[inner.to_json_dict(), str(w)] for inner, w in phi.items()] for phi in s.base
    ]


class Monad:
    """Library monad operations on a tower built from three inner sets."""

    name = "monad"
    cycle = len(gen.MONAD_POINTS)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def data(self, index: int) -> dict:
        return gen.monad_instance(self.seed, index)

    def prepare(self, data: dict, tag: str) -> dict:
        space = core.FiniteMetricSpace.from_json_dict(data["space"])
        inner = [convex.ConvexSet.from_json_dict(space, s) for s in data["inner"]]
        outer = [[(k, Fraction(w)) for k, w in entry] for entry in data["outer"]]
        return {
            "data": data,
            "space": space,
            "inner": inner,
            "outer": outer,
            "p": Fraction(data["p"]),
        }

    def run(self, inst: dict) -> dict:
        space, inner = inst["space"], inst["inner"]
        dists = []
        for entry in inst["outer"]:
            # Two listed inner sets may generate the same convex set; their
            # weights then merge, as the CLI's nested-set loader does.
            weights: dict = {}
            for k, w in entry:
                weights[inner[k]] = weights.get(inner[k], 0) + w
            dists.append(core.Dist(space, weights))
        s = convex.ConvexSet(space, dists)
        m = convex.monad_mult(s)
        p = convex.plus_p(inst["p"], inner[0], inner[1])
        o = convex.oplus(m, p)
        w = convex.wms(s.base[0])
        x = convex.oplus(w, inner[2])
        n = terms.normalize(space, terms.nu(space, x))
        return {"tower": s, "mult": m, "plusp": p, "oplus": o, "wms": w, "union": x, "nf": n}

    def canonical(self, out: dict) -> str:
        doc = {k: v.to_json_dict() for k, v in out.items() if k != "tower"}
        doc["tower"] = _tower_json(out["tower"])
        return json.dumps(doc, sort_keys=True)

    def verify(self, inst: dict, out: dict) -> tuple:
        problems = []
        space = inst["space"]
        for key in ("mult", "oplus"):
            s = out[key]
            if convex.monad_mult(convex.monad_unit(space, s)) != s:
                problems.append(f"mult(unit({key})) != {key}")
            if convex.ConvexSet(space, s.base).base != s.base:
                problems.append(f"re-basing {key} changed its base")
        if out["nf"] != out["union"]:
            problems.append("normalize(nu(s)) != s")
        stats = {
            "points": len(space.points),
            "inner_base": _stats_mean(len(s.base) for s in inst["inner"]),
            "mult_base": len(out["mult"].base),
            "oplus_base": len(out["oplus"].base),
            "support": _stats_mean(
                len(g.support) for s in inst["inner"] for g in s.base
            ),
        }
        return problems, stats

    def cleanup(self, inst: dict) -> None:
        pass


class Transport:
    """`kantorovich` with its coupling witness on 12-20 point spaces."""

    name = "transport"
    cycle = len(gen.TRANSPORT_POINTS)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.spaces = {
            n: core.FiniteMetricSpace.from_json_dict(gen.transport_space(seed, n))
            for n in gen.TRANSPORT_POINTS
        }

    def data(self, index: int) -> dict:
        n = gen.transport_points(index)
        return gen.transport_instance(self.seed, index, self.spaces[n].points)

    def prepare(self, data: dict, tag: str) -> dict:
        space = self.spaces[data["n"]]
        return {
            "data": data,
            "space": space,
            "left": core.Dist.from_json_dict(space, data["left"]),
            "right": core.Dist.from_json_dict(space, data["right"]),
        }

    def run(self, inst: dict):
        return transport.kantorovich(inst["space"], inst["left"], inst["right"])

    def canonical(self, out) -> str:
        return json.dumps(
            {"value": str(out.value), "witness": out.witness.to_json_list()},
            sort_keys=True,
        )

    def verify(self, inst: dict, out) -> tuple:
        problems = []
        space, left, right = inst["space"], inst["left"], inst["right"]
        if transport.transport_cost(space, out.witness) != out.value:
            problems.append("transport_cost(witness) != value")
        rows: dict = {}
        cols: dict = {}
        for (x, y), q in out.witness.items():
            if q <= 0:
                problems.append(f"nonpositive coupling weight at ({x},{y})")
            rows[x] = rows.get(x, 0) + q
            cols[y] = cols.get(y, 0) + q
        if rows != dict(left.items()) or cols != dict(right.items()):
            problems.append("witness marginals differ from the inputs")
        stats = {
            "points": len(space.points),
            "support": (len(left.support) + len(right.support)) / 2,
            "witness_cells": len(out.witness.support),
        }
        return problems, stats

    def cleanup(self, inst: dict) -> None:
        pass


WORKLOADS = {w.name: w for w in (Certify, Monad, Transport)}
