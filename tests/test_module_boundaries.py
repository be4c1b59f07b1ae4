"""Each shiftspec module keeps its private names to itself.

A name that starts with one underscore is private to the module that
defines it: no module in ``src/shiftspec`` imports such a name from another
shiftspec module. A name another module needs is made public, with a
docstring, in the module that owns it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "shiftspec"


def _private_imports(tree: ast.Module) -> list[str]:
    """'module: name' for every private name imported from shiftspec."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "shiftspec":
            continue
        found += [f"{'.' * node.level}{module}: {alias.name}"
                  for alias in node.names
                  if alias.name.startswith("_")
                  and not alias.name.startswith("__")]
    return found


def test_no_module_imports_a_private_name_of_another():
    offenders = {path.name: _private_imports(ast.parse(
                     path.read_text(encoding="utf-8")))
                 for path in sorted(PACKAGE.glob("*.py"))}
    assert "rng.py" in offenders  # the guard read the package
    assert {name: found for name, found in offenders.items() if found} == {}


def test_the_guard_sees_relative_and_absolute_private_imports():
    tree = ast.parse("from .rng import RandomStream, _rekey\n"
                     "from shiftspec.analytic import _horner\n"
                     "from . import _private\n"
                     "from numpy import _globals\n"
                     "from .core import __doc__\n")
    assert _private_imports(tree) == [".rng: _rekey",
                                      "shiftspec.analytic: _horner",
                                      ".: _private"]
