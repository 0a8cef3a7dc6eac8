"""Static checks on the package's import graph, read with `ast`; nothing
under test is imported."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hkconvex"


def _imports(module: str) -> list[ast.Import | ast.ImportFrom]:
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    return [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]


def _relative_imports(module: str) -> set[str]:
    """The package modules `module` imports, by `from .x import y` or by
    `from . import x`."""
    found = set()
    for node in _imports(module):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def _closure(module: str) -> set[str]:
    seen, todo = set(), [module]
    while todo:
        for other in _relative_imports(todo.pop()) - seen:
            seen.add(other)
            todo.append(other)
    return seen - {module}


def test_relative_imports_are_read_in_both_forms():
    # `convex` reaches `linprog` only through `from . import linprog`.
    assert {"core", "errors", "linprog"} <= _relative_imports("convex")
    assert {"convex", "linprog", "lifting", "syntax"} <= _closure("terms")


def test_the_checker_reaches_syntax_only():
    # The proof checker must not reach what normalizes a term or solves an LP.
    assert _closure("deduction") <= {"core", "errors", "syntax"}


def _absolute_imports() -> set[tuple[str, str]]:
    """(file name, module) for every absolute import in the package."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _imports(path.stem):
            if isinstance(node, ast.Import):
                found.update((path.name, alias.name) for alias in node.names)
            elif node.level == 0:
                found.add((path.name, node.module))
    return found


def test_every_absolute_import_is_stdlib():
    outside = {
        (file, name)
        for file, name in _absolute_imports()
        if name.split(".")[0] not in sys.stdlib_module_names
    }
    assert not outside


def test_no_module_imports_dataclasses_or_inspect():
    # A dataclass makes its process import `dataclasses`, and with it
    # `inspect`, `ast`, `dis` and `tokenize`; records are NamedTuples.
    heavy = {"dataclasses", "inspect"}
    assert not {(f, name) for f, name in _absolute_imports() if name.split(".")[0] in heavy}
