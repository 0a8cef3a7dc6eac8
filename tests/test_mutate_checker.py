"""The mutation gate's mutant names (`tools/mutate_checker.py`)."""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "mutate_checker", ROOT / "tools" / "mutate_checker.py"
)
mutate_checker = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutate_checker)


def _names(source: str, functions) -> list[str]:
    return [name for name, _ in mutate_checker.mutants(ast.parse(source), functions)]


@pytest.mark.parametrize(
    "module, functions",
    [(module, functions) for module, functions, _ in mutate_checker.TARGETS],
    ids=[module.stem for module, _, _ in mutate_checker.TARGETS],
)
def test_mutant_names_survive_an_edit_outside_their_function(module, functions):
    source = (ROOT / module).read_text()
    names = _names(source, functions)
    assert len(set(names)) == len(names)
    assert _names("# one more line\n" + source, functions) == names
    # every survivor listed as equivalent for this module names a mutant it makes
    listed = {n for n in mutate_checker.EQUIVALENT if n.split(":")[0] in functions}
    assert listed <= set(names)
