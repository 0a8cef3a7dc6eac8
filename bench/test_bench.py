"""Tests of the benchmark itself.

Run from the root of a checkout:

    python3 -m pytest bench -q
"""

import ast
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_library()

import gen  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from hkconvex import transport  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


@pytest.fixture
def make(tmp_path):
    def build(name, seed=run.DEFAULT_SEED):
        return workloads.WORKLOADS[name](seed, str(tmp_path / name))

    return build


def test_generator_imports_only_the_standard_library():
    tree = ast.parse((BENCH / "gen.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    assert imported == {"__future__", "random", "fractions", "string"}


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_byte_identical_inputs(make, name):
    first = [json.dumps(make(name, 5).data(i), sort_keys=True) for i in range(30)]
    again = [json.dumps(make(name, 5).data(i), sort_keys=True) for i in range(30)]
    other = [json.dumps(make(name, 6).data(i), sort_keys=True) for i in range(30)]
    assert first == again
    assert first != other


def test_certify_cycle_covers_every_shape_once():
    shapes = [gen.certify_shape(i) for i in range(gen.CERTIFY_CYCLE)]
    assert len(set(shapes)) == gen.CERTIFY_CYCLE
    assert {n for n, _, _ in shapes} == {3, 4, 5}
    assert {k for _, left, right in shapes for k in left + right} == {1, 2, 3}
    assert gen.certify_shape(gen.CERTIFY_CYCLE) == shapes[0]


@pytest.mark.parametrize("name", NAMES)
def test_wrappers_change_no_output_and_uninstall_cleanly(make, name):
    import hkconvex
    from hkconvex import convex, lifting, proofs

    before = {m: dict(vars(m)) for m in (hkconvex, convex, lifting, proofs)}
    wl = make(name)
    tracer = tracing.Tracer()
    for i in range(3):
        plain = wl.run(wl.prepare(wl.data(i), f"p{i}"))
        tracer.install(i)
        try:
            traced = wl.run(wl.prepare(wl.data(i), f"t{i}"))
        finally:
            tracer.uninstall()
        assert wl.canonical(plain) == wl.canonical(traced)
    assert tracer.spans
    for module, attrs in before.items():
        assert dict(vars(module)) == attrs


def test_tracer_rebinds_names_imported_by_other_modules():
    from hkconvex import convex, lifting, proofs

    tracer = tracing.Tracer()
    tracer.install(0)
    try:
        assert lifting.nearest_point is convex.nearest_point
        assert proofs.nearest_point is convex.nearest_point
        assert convex.nearest_point.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert not hasattr(convex.nearest_point, "__wrapped__")


def traced_counts(make, name, monkeypatch, instances):
    monkeypatch.setattr(run, "MIN_INSTANCES", instances)
    monkeypatch.setattr(run, "LOOP_DEADLINE_S", float("inf"))
    wl = make(name)
    tracer = tracing.Tracer()
    res = run.run_loop(wl, {}, 0.0, [], tracer)
    assert not res["failures"]
    metrics = tracing.layer_metrics(tracer.spans, res["scale"], instances, res["stats"], 0.0)
    return {k: v["value"] for k, v in metrics.items() if v["unit"] in ("count", "kB")}


@pytest.mark.parametrize("name", NAMES)
def test_two_traced_runs_give_identical_counts(make, name, monkeypatch):
    first = traced_counts(make, name, monkeypatch, 4)
    second = traced_counts(make, name, monkeypatch, 4)
    assert first == second
    assert any(first.values())


def test_certify_counts_reach_every_layer(make, monkeypatch):
    counts = traced_counts(make, "certify", monkeypatch, 6)
    for key in (
        "linprog.solves",
        "transport.solves",
        "convex.in_hull.calls",
        "convex.nearest_point.calls",
        "terms.parse_term.calls",
        "proofs.nodes",
        "deduction.json.kb",
    ):
        assert counts[key] > 0, key


def test_corrupted_proof_node_fails_the_check(make):
    wl = make("certify")
    inst = wl.prepare(wl.data(4), "x")
    derived = wl.derive(inst)
    proof = json.loads(derived[1])
    node = proof
    while node.get("premises"):
        node = node["premises"][-1]
    node["conclusion"]["eps"] = "1/1000"
    with open(inst["paths"]["proof"], "w", encoding="utf-8") as handle:
        json.dump(proof, handle)
    problems, _ = wl.verify(inst, {"derive": derived, "check": wl.check(inst)})
    assert any("check rejected" in p for p in problems)


def test_wrong_conclusion_eps_fails_the_check(make):
    wl = make("certify")
    inst = wl.prepare(wl.data(0), "x")
    out = wl.run(inst)
    proof = json.loads(out["derive"][1])
    proof["conclusion"]["eps"] = "1"
    out["derive"] = (0, json.dumps(proof))
    problems, _ = wl.verify(inst, out)
    assert "conclusion eps differs from hk_distance" in problems


class WrongValue(workloads.Transport):
    def run(self, inst):
        result = super().run(inst)
        return transport.TransportResult(result.value + 1, result.witness)


class WrongSet(workloads.Monad):
    def run(self, inst):
        out = super().run(inst)
        out["nf"] = out["plusp"]
        return out


@pytest.mark.parametrize("cls", [WrongValue, WrongSet])
def test_mutated_outputs_count_as_failed(tmp_path, monkeypatch, cls):
    monkeypatch.setattr(run, "MIN_INSTANCES", 3)
    wl = cls(7, str(tmp_path))
    res = run.run_loop(wl, {}, 0.0, [])
    attempted = len(res["plain"])
    assert attempted >= 3 and attempted % wl.cycle == 0
    assert [i for i, _ in res["failures"]] == list(range(attempted))


def test_golden_digest_mismatch_counts_as_failed(make, monkeypatch):
    monkeypatch.setattr(run, "MIN_INSTANCES", 2)
    res = run.run_loop(make("transport"), {}, 0.0, ["0" * 16, "0" * 16])
    assert [i for i, _ in res["failures"]] == [0, 1]


@pytest.mark.parametrize("name", NAMES)
def test_default_seed_matches_golden(make, name):
    golden = run.load_golden(name, run.DEFAULT_SEED)
    assert len(golden) >= run.MIN_INSTANCES
    wl = make(name)
    for i in range(3):
        out = wl.run(wl.prepare(wl.data(i), f"g{i}"))
        assert run.digest(wl.canonical(out)) == golden[i]
