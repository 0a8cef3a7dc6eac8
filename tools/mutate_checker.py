"""Mutation gate for the proof checker's rules in `hkconvex.deduction`.

Makes one mutant of `deduction.py` per single-operator swap inside the
functions that decide whether a proof node is accepted (`CHECKED`):
`==`/`!=`, `<`/`<=`, `>`/`>=`, `in`/`not in`, `and`/`or`, and a dropped
`not`. Each mutant is written into a temporary copy of the repository,
never into `src`, and the checker's tests run against it with `-x`. A
mutant that passes them all survives. The script exits 1 when a mutant
survives that `EQUIVALENT` does not list with the reason it behaves as
the original, and 2 when the unmutated copy fails its tests.

Run from anywhere:  python tools/mutate_checker.py
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULE = Path("src/hkconvex/deduction.py")
TESTS = ["tests/test_deduction.py", "tests/test_proofs.py"]
CHECKED = (
    "_triang_eps",
    "_oplus_eps",
    "_plusp_eps",
    "_axiom_right",
    "_match_axiom",
    "_uses_assumption",
    "_check_node",
)
SWAPS = {
    ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq,
    ast.Lt: ast.LtE,
    ast.LtE: ast.Lt,
    ast.Gt: ast.GtE,
    ast.GtE: ast.Gt,
    ast.In: ast.NotIn,
    ast.NotIn: ast.In,
    ast.And: ast.Or,
    ast.Or: ast.And,
}
# Survivors that compute what the original computes, by mutant name (see
# `mutants`), each with the reason.
EQUIVALENT: dict[str, str] = {}


def mutants(tree: ast.Module):
    """(name, mutated module source) for each single swap.

    A name is `<function>:<line> <old> -> <new>`, with the line of the
    mutated node in `deduction.py` and the operators' `ast` class names,
    or `<function>:<line> drop not`; a comparison chain with several
    operators gives one mutant per operator, numbered by position.
    """
    functions = [
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name in CHECKED
    ]
    for function in functions:
        for node in ast.walk(function):
            if isinstance(node, ast.Compare):
                for k, op in enumerate(node.ops):
                    if type(op) not in SWAPS:
                        continue
                    new = SWAPS[type(op)]
                    suffix = f" #{k}" if len(node.ops) > 1 else ""
                    name = f"{type(op).__name__} -> {new.__name__}{suffix}"
                    node.ops[k] = new()
                    yield f"{function.name}:{node.lineno} {name}", ast.unparse(tree)
                    node.ops[k] = op
            elif isinstance(node, ast.BoolOp):
                op = node.op
                new = SWAPS[type(op)]
                node.op = new()
                name = f"{type(op).__name__} -> {new.__name__}"
                yield f"{function.name}:{node.lineno} {name}", ast.unparse(tree)
                node.op = op
            elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
                yield from _dropped_not(tree, function, node)


def _dropped_not(tree: ast.Module, function: ast.FunctionDef, node: ast.UnaryOp):
    """The mutant with `not x` replaced by `x`, found through its parent."""
    for parent in ast.walk(function):
        for field, value in ast.iter_fields(parent):
            if value is node:
                setattr(parent, field, node.operand)
                yield f"{function.name}:{node.lineno} drop not", ast.unparse(tree)
                setattr(parent, field, node)
                return
            if isinstance(value, list) and any(v is node for v in value):
                k = next(i for i, v in enumerate(value) if v is node)
                value[k] = node.operand
                yield f"{function.name}:{node.lineno} drop not", ast.unparse(tree)
                value[k] = node
                return


def _passes(copy: Path) -> bool:
    """Whether the checker's tests pass on the copy, stopping at the first
    failure. Byte code and the hypothesis database are not kept, so no run
    sees a stale module or replays another mutant's failures."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *TESTS]
    result = subprocess.run(command, cwd=copy, env=env, capture_output=True)
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
    return result.returncode == 0


def main() -> int:
    source = (ROOT / MODULE).read_text()
    tree = ast.parse(source)
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        target = copy / MODULE
        target.write_text(ast.unparse(tree))
        if not _passes(copy):
            print("the unmutated checker fails its tests; no mutant was run")
            return 2
        start = time.monotonic()
        count = 0
        survivors = []
        for name, text in mutants(tree):
            count += 1
            target.write_text(text)
            if _passes(copy):
                survivors.append(name)
                print("survived:", name, "|", EQUIVALENT.get(name, "not listed"), flush=True)
    unlisted = [name for name in survivors if name not in EQUIVALENT]
    stale = sorted(set(EQUIVALENT) - set(survivors))
    seconds = time.monotonic() - start
    print(
        f"{count} mutants, {count - len(survivors)} killed, {len(survivors)} survived "
        f"({len(unlisted)} not listed as equivalent) in {seconds:.0f} s"
    )
    for name in stale:
        print("listed as equivalent but killed or not made:", name)
    return 1 if unlisted else 0


if __name__ == "__main__":
    sys.exit(main())
