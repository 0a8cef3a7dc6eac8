"""Per-layer tracing from outside the library.

`Tracer.install` wraps the public functions of each layer module and
rebinds every `hkconvex` module attribute that holds one of them, since
modules such as `lifting` and `proofs` import functions like
`nearest_point` by name. A few core constructors are wrapped on their
class instead, because rebinding a class name would break isinstance
checks. `uninstall` restores the originals exactly.

Each wrapped call records one span, kept in memory: (function key,
start, end, parent span, instance id, note). The note holds what a count
needs from the call's arguments or result, taken after the end time.
A recursive function gets a span only at its outermost entry. Self time
is a span's duration minus the durations of its child spans; children
nest strictly because the benchmark runs one thread.
"""

from __future__ import annotations

import sys
import time

from hkconvex import (
    cli,
    convex,
    core,
    deduction,
    lifting,
    linprog,
    proofs,
    terms,
    transport,
)

MODULES = {
    "cli": cli,
    "core": core,
    "linprog": linprog,
    "transport": transport,
    "convex": convex,
    "lifting": lifting,
    "terms": terms,
    "proofs": proofs,
    "deduction": deduction,
}

FUNCTIONS = {
    "cli": ("main",),
    "core": ("convex_combine", "pushforward", "dirac", "validate_space"),
    "linprog": ("solve_lp", "feasible_point"),
    "transport": (
        "kantorovich",
        "optimal_transport",
        "solve_transport",
        "transport_cost",
    ),
    "convex": (
        "in_hull",
        "unique_base",
        "monad_unit",
        "oplus",
        "plus_p",
        "wms",
        "functor_map",
        "monad_mult",
        "nearest_point",
    ),
    "lifting": ("hk_distance", "hk_directed", "directed_hausdorff", "hausdorff"),
    "terms": ("parse_term", "print_term", "normalize", "nu", "dist_term", "substitute"),
    "proofs": (
        "derive_hk",
        "derive_kantorovich",
        "canon_proof",
        "prove_dist",
        "prove_equal",
    ),
    "deduction": (
        "check_derivation",
        "derivation_from_json_dict",
        "derivation_to_json_dict",
        "equation_from_json_dict",
        "equation_to_json_dict",
        "metric_hypotheses",
    ),
}

# Constructors that validate their input: (layer, class, method).
METHODS = (
    ("core", core.FiniteMetricSpace, "__init__"),
    ("core", core.Coupling, "__init__"),
    ("core", core.Dist, "__init__"),
)

RECURSIVE = {
    "terms.print_term",
    "terms.normalize",
    "terms.substitute",
    "deduction.derivation_from_json_dict",
    "deduction.derivation_to_json_dict",
}

DEDUCTION_JSON = {
    "deduction.derivation_from_json_dict",
    "deduction.derivation_to_json_dict",
    "deduction.equation_from_json_dict",
    "deduction.equation_to_json_dict",
}

# What each count needs from a call, computed after the span has ended.
NOTES = {
    "linprog.solve_lp": lambda args, kwargs, result: len(args[1]) * len(args[0]),
    "transport.solve_transport": lambda args, kwargs, result: len(args[0]) * len(args[1]),
    "convex.in_hull": lambda args, kwargs, result: result[0],
    "convex.unique_base": lambda args, kwargs, result: (len(args[0]), len(result)),
    "cli.main": lambda args, kwargs, result: args[0][0],
}


class Tracer:
    """Collects spans of wrapped library calls for one benchmark run."""

    def __init__(self):
        self.spans: list = []
        self.instance = -1
        self._stack: list = []
        self._active: dict = {}
        self._saved: list = []
        self._wrappers = self._build()

    def _wrap(self, key: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note = NOTES.get(key)
        active = self._active
        recursive = key in RECURSIVE
        active[key] = 0

        def traced(*args, **kwargs):
            if recursive:
                if active[key]:
                    return fn(*args, **kwargs)
                active[key] = 1
            span = [key, 0.0, 0.0, stack[-1] if stack else -1, self.instance, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if recursive:
                    active[key] = 0
            if note is not None:
                span[5] = note(args, kwargs, result)
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def _build(self) -> dict:
        wrappers = {}
        for layer, names in FUNCTIONS.items():
            module = MODULES[layer]
            for name in names:
                fn = getattr(module, name)
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for layer, cls, name in METHODS:
            fn = cls.__dict__[name]
            wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{cls.__name__}.{name}", fn))
        return wrappers

    def install(self, instance: int) -> None:
        """Rebind every hkconvex attribute holding a wrapped callable."""
        self.instance = instance
        saved = self._saved
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("hkconvex"):
                continue
            for attr, value in list(vars(module).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    saved.append((module, attr, value))
                    setattr(module, attr, hit[1])
        for layer, cls, name in METHODS:
            fn = cls.__dict__[name]
            saved.append((cls, name, fn))
            setattr(cls, name, self._wrappers[id(fn)][1])

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)
        self.instance = -1

    def write(self, path: str) -> None:
        """All spans as tab-separated lines, times in microseconds."""
        if not self.spans:
            return
        base = self.spans[0][1]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("key\tstart_us\tend_us\tparent\tinstance\tnote\n")
            for key, start, end, parent, instance, note in self.spans:
                handle.write(
                    f"{key}\t{(start - base) * 1e6:.1f}\t{(end - base) * 1e6:.1f}"
                    f"\t{parent}\t{instance}\t{'' if note is None else note}\n"
                )


def self_times(spans: list) -> list:
    """Self time of every span: its duration minus its children's."""
    out = [end - start for _key, start, end, _parent, _inst, _note in spans]
    for _key, start, end, parent, _inst, _note in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(
    spans: list,
    scale: list,
    count_instances: int,
    stats: list,
    overhead_frac: float,
) -> dict:
    """Per-instance per-layer metrics, as named in BENCHMARK.json.

    Times average over every traced instance, each scaled by its
    instance's machine-speed factor in `scale`; counts average over the
    first `count_instances` instances only, so that two runs with the same
    seed report identical counts however long they ran.
    """
    timed_instances = len(scale)
    selfs = [own * scale[span[4]] for span, own in zip(spans, self_times(spans))]
    layer_self = {layer: 0.0 for layer in MODULES}
    key_self: dict = {}
    cli_ms = {"derive": 0.0, "check": 0.0}
    calls: dict = {}
    cells = {"linprog": 0, "transport": 0}
    inside = gens_in = base_out = 0
    for span, own in zip(spans, selfs):
        key, start, end, _parent, inst, note = span
        layer = key.split(".", 1)[0]
        layer_self[layer] += own
        key_self[key] = key_self.get(key, 0.0) + own
        if key == "cli.main" and note in cli_ms:
            cli_ms[note] += (end - start) * scale[inst]
        if inst >= count_instances:
            continue
        calls[key] = calls.get(key, 0) + 1
        if key == "linprog.solve_lp":
            cells["linprog"] += note
        elif key == "transport.solve_transport":
            cells["transport"] += note
        elif key == "convex.in_hull":
            inside += bool(note)
        elif key == "convex.unique_base":
            gens_in += note[0]
            base_out += note[1]

    def per_timed_ms(seconds: float) -> float:
        return seconds * 1000 / timed_instances

    def per_counted(count: float) -> float:
        return count / count_instances

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    solves = calls.get("linprog.solve_lp", 0)
    hull = calls.get("convex.in_hull", 0)
    counted = stats[:count_instances]
    json_self = sum(key_self.get(k, 0.0) for k in DEDUCTION_JSON)
    values = {
        "linprog.self_ms": (per_timed_ms(layer_self["linprog"]), "ms"),
        "linprog.solves": (per_counted(solves), "count"),
        "linprog.cells": (per_counted(cells["linprog"]), "count"),
        "linprog.feasibility_frac": (
            ratio(calls.get("linprog.feasible_point", 0), solves),
            "ratio",
        ),
        "transport.self_ms": (per_timed_ms(layer_self["transport"]), "ms"),
        "transport.solves": (per_counted(calls.get("transport.solve_transport", 0)), "count"),
        "transport.cells": (per_counted(cells["transport"]), "count"),
        "convex.self_ms": (per_timed_ms(layer_self["convex"]), "ms"),
        "convex.in_hull.calls": (per_counted(hull), "count"),
        "convex.in_hull.inside_frac": (ratio(inside, hull), "ratio"),
        "convex.unique_base.gens_in": (per_counted(gens_in), "count"),
        "convex.unique_base.base_out": (per_counted(base_out), "count"),
        "convex.nearest_point.calls": (
            per_counted(calls.get("convex.nearest_point", 0)),
            "count",
        ),
        "lifting.self_ms": (per_timed_ms(layer_self["lifting"]), "ms"),
        "terms.self_ms": (per_timed_ms(layer_self["terms"]), "ms"),
        "terms.parse_term.calls": (per_counted(calls.get("terms.parse_term", 0)), "count"),
        "terms.parse_term.self_ms": (
            per_timed_ms(key_self.get("terms.parse_term", 0.0)),
            "ms",
        ),
        "proofs.self_ms": (per_timed_ms(layer_self["proofs"]), "ms"),
        "proofs.nodes": (
            per_counted(sum(s.get("proof_nodes", 0) for s in counted)),
            "count",
        ),
        "deduction.check.self_ms": (
            per_timed_ms(key_self.get("deduction.check_derivation", 0.0)),
            "ms",
        ),
        "deduction.json.self_ms": (per_timed_ms(json_self), "ms"),
        "deduction.json.kb": (
            per_counted(sum(s.get("proof_kb", 0.0) for s in counted)),
            "kB",
        ),
        "cli.derive_ms": (per_timed_ms(cli_ms["derive"]), "ms"),
        "cli.check_ms": (per_timed_ms(cli_ms["check"]), "ms"),
        "cli.self_ms": (per_timed_ms(layer_self["cli"]), "ms"),
        "core.self_ms": (per_timed_ms(layer_self["core"]), "ms"),
        "trace.overhead_frac": (overhead_frac, "ratio"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}
