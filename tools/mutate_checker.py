"""Mutation gate for the proof checker's rules and the term reader.

For each target in `TARGETS`, makes one mutant of its module per
single-operator swap inside the functions it names: in `deduction.py`
those that decide whether a proof node is accepted, in `syntax.py` those
that read a term text, since a wrong skip would let the checker compare
a term that the proof's text does not spell. The swaps are `==`/`!=`,
`<`/`<=`, `>`/`>=`, `in`/`not in`, `and`/`or`, and a dropped `not`. Each
mutant is written into a temporary copy of the repository, never into
`src`, and the target's tests run against it with `-x`. A mutant that
passes them all survives. The script exits 1 when a mutant survives that
`EQUIVALENT` does not list with the reason it behaves as the original,
and 2 when an unmutated copy fails its tests or an argument names no
target.

Run from anywhere:  python tools/mutate_checker.py [deduction] [syntax]
With no argument every target runs; an argument picks one by its
module's name, so that each can run under its own time limit.
"""

from __future__ import annotations

import ast
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# (module, the functions mutated in it, as `name` or `Class.name`, and
# the tests run against each mutant).
TARGETS = (
    (
        Path("src/hkconvex/deduction.py"),
        (
            "_triang_eps",
            "_oplus_eps",
            "_plusp_eps",
            "_axiom_right",
            "_match_axiom",
            "_uses_assumption",
            "_check_node",
        ),
        ["tests/test_deduction.py", "tests/test_proofs.py"],
    ),
    (
        Path("src/hkconvex/syntax.py"),
        ("_Reader.token", "_Reader.term", "_Reader.open_of", "parse_term"),
        ["tests/test_terms.py"],
    ),
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
# A mutant can loop forever or grow a structure without bound; its test
# run is stopped at these limits and counts as killed.
SECONDS_PER_RUN = 120
BYTES_PER_RUN = 512 << 20
# Survivors that compute what the original computes, by mutant name (see
# `mutants`), each with the reason. A term reader mutant that only changes
# a guess of a child's slice changes no result, since a wrong guess costs
# one lookup (see `syntax._Reader`); one that loses a right guess on a
# derived document is killed by the test that counts group reads.
EQUIVALENT: dict[str, str] = {
    "_Reader.term:277 Gt -> GtE": (
        "with close == a the children's region is empty: the trim from close runs"
        " back into the head, so b <= a and nothing is guessed, as before"
    ),
    "_Reader.term:285 Gt -> GtE": (
        "the scan may run on from a back into the head, and a b below a guesses"
        " nothing, as b == a does"
    ),
    "_Reader.term:287 Gt -> GtE": (
        "with b == a the left guess is empty or reaches back into the head;"
        " no key is such a slice, so the read goes on as with no guess"
    ),
    "_Reader.open_of:327 GtE -> Gt": (
        "a '(' found at lo itself gives b == a, which guesses nothing, as -1 does"
    ),
    "_Reader.open_of:336 Lt -> LtE": (
        "lo is the left child's start, after '(' and the head, so rfind never returns 0"
    ),
}


def _functions(tree: ast.Module, names) -> list:
    """(qualified name, node) of each function of `names`, in source order."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in names:
            found.append((node.name, node))
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and f"{node.name}.{item.name}" in names:
                    found.append((f"{node.name}.{item.name}", item))
    return found


def mutants(tree: ast.Module, names):
    """(name, mutated module source) for each single swap in the functions
    of `names`.

    A name is `<function>:<line> <old> -> <new>`, with the line of the
    mutated node in its module and the operators' `ast` class names, or
    `<function>:<line> drop not`; a comparison chain with several
    operators gives one mutant per operator, numbered by position.
    """
    for qualname, function in _functions(tree, names):
        for node in ast.walk(function):
            if isinstance(node, ast.Compare):
                for k, op in enumerate(node.ops):
                    if type(op) not in SWAPS:
                        continue
                    new = SWAPS[type(op)]
                    suffix = f" #{k}" if len(node.ops) > 1 else ""
                    name = f"{type(op).__name__} -> {new.__name__}{suffix}"
                    node.ops[k] = new()
                    yield f"{qualname}:{node.lineno} {name}", ast.unparse(tree)
                    node.ops[k] = op
            elif isinstance(node, ast.BoolOp):
                op = node.op
                new = SWAPS[type(op)]
                node.op = new()
                name = f"{type(op).__name__} -> {new.__name__}"
                yield f"{qualname}:{node.lineno} {name}", ast.unparse(tree)
                node.op = op
            elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
                yield from _dropped_not(tree, qualname, function, node)


def _dropped_not(tree: ast.Module, qualname: str, function: ast.FunctionDef, node: ast.UnaryOp):
    """The mutant with `not x` replaced by `x`, found through its parent."""
    for parent in ast.walk(function):
        for field, value in ast.iter_fields(parent):
            if value is node:
                setattr(parent, field, node.operand)
                yield f"{qualname}:{node.lineno} drop not", ast.unparse(tree)
                setattr(parent, field, node)
                return
            if isinstance(value, list) and any(v is node for v in value):
                k = next(i for i, v in enumerate(value) if v is node)
                value[k] = node.operand
                yield f"{qualname}:{node.lineno} drop not", ast.unparse(tree)
                value[k] = node
                return


def _passes(copy: Path, tests: list) -> bool:
    """Whether `tests` pass on the copy, stopping at the first failure.
    Byte code and the hypothesis database are not kept, so no run sees a
    stale module or replays another mutant's failures."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        result = subprocess.run(
            command,
            cwd=copy,
            env=env,
            capture_output=True,
            timeout=SECONDS_PER_RUN,
            preexec_fn=_limit_memory,
        )
    except subprocess.TimeoutExpired:
        return False
    finally:
        shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
    return result.returncode == 0


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (BYTES_PER_RUN, BYTES_PER_RUN))


def main(modules: list[str]) -> int:
    unknown = set(modules) - {module.stem for module, _, _ in TARGETS}
    if unknown:
        print("no target named", ", ".join(sorted(unknown)))
        return 2
    targets = [t for t in TARGETS if not modules or t[0].stem in modules]
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        start = time.monotonic()
        count = 0
        survivors = []
        for module, names, tests in targets:
            tree = ast.parse((ROOT / module).read_text())
            target = copy / module
            target.write_text(ast.unparse(tree))
            if not _passes(copy, tests):
                print(f"the unmutated {module.name} fails its tests; no mutant was run")
                return 2
            for name, text in mutants(tree, names):
                count += 1
                target.write_text(text)
                if _passes(copy, tests):
                    survivors.append(name)
                    print("survived:", name, "|", EQUIVALENT.get(name, "not listed"), flush=True)
            target.write_text(ast.unparse(tree))
    unlisted = [name for name in survivors if name not in EQUIVALENT]
    functions = {name for _, names, _ in targets for name in names}
    stale = sorted(
        name for name in EQUIVALENT if name.split(":")[0] in functions and name not in survivors
    )
    seconds = time.monotonic() - start
    print(
        f"{count} mutants, {count - len(survivors)} killed, {len(survivors)} survived "
        f"({len(unlisted)} not listed as equivalent) in {seconds:.0f} s"
    )
    for name in stale:
        print("listed as equivalent but killed or not made:", name)
    return 1 if unlisted else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
