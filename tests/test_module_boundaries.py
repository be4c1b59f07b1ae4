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


def _normal_cdf_uses(tree: ast.Module) -> list[int]:
    """Lines that read normal_cdf, by bare name or as an attribute."""
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Name) and node.id == "normal_cdf"
                   or isinstance(node, ast.Attribute)
                   and node.attr == "normal_cdf"})


def test_only_analytic_calls_normal_cdf():
    # a closed-form accuracy goes through analytic.gaussian_margin_cdf, the
    # one owner of the weighted sum and its s = 0 step; __init__ only
    # re-exports the name
    callers = {path.name: _normal_cdf_uses(ast.parse(
                   path.read_text(encoding="utf-8")))
               for path in sorted(PACKAGE.glob("*.py"))
               if path.name not in ("analytic.py", "__init__.py")}
    assert "cmnist.py" in callers and "conditions.py" in callers
    assert {name: lines for name, lines in callers.items() if lines} == {}


def test_the_normal_cdf_guard_sees_names_and_attributes():
    tree = ast.parse("from .analytic import normal_cdf\n"
                     "x = normal_cdf(1.0)\n"
                     "y = analytic.normal_cdf(2.0)\n"
                     "f = normal_cdf\n"
                     "z = normal_quantile(0.5)\n")
    assert _normal_cdf_uses(tree) == [2, 3, 4]


def _readers(tree: ast.Module, name: str) -> list[str]:
    """The function, by dotted path, or '<module>' around every read of name
    as a bare name and every call of it as an attribute. Imports and
    definitions are not reads, nor is an attribute that is not called: a
    ConditionReport's theorem1_margin field shares the function's name."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            func = child.func if isinstance(child, ast.Call) else None
            if (isinstance(child, ast.Name) and child.id == name
                    and isinstance(child.ctx, ast.Load)
                    or isinstance(func, ast.Attribute) and func.attr == name):
                found.append(scope or "<module>")
            visit(child, scope)

    visit(tree, "")
    return found


def _package_readers(name: str) -> set[str]:
    """'module: function' for every read of name in src/shiftspec."""
    return {f"{path.name}: {scope}"
            for path in sorted(PACKAGE.glob("*.py"))
            for scope in _readers(ast.parse(path.read_text(encoding="utf-8")),
                                  name)}


def test_one_pass_evaluates_the_theorem_conditions_of_a_stack():
    # condition_reports is the one record of a shift stack's conditions:
    # simulate and the zero-measure experiment read its columns, and no
    # second path computes the margins or the shifted moments
    assert _package_readers("theorem1_margin") == {
        "conditions.py: condition_reports"}
    assert _package_readers("_stacked_moments") == {
        "conditions.py: condition_reports", "conditions.py: shift_moments"}


def test_the_reader_guard_sees_scopes_names_and_attributes():
    tree = ast.parse("from .conditions import theorem1_margin\n"
                     "def theorem1_margin(): pass\n"
                     "f = theorem1_margin\n"
                     "def outer():\n"
                     "    def inner():\n"
                     "        return conditions.theorem1_margin(1)\n"
                     "    return theorem1_margin(2)\n"
                     "margin = report.theorem1_margin\n"
                     "class Stack:\n"
                     "    def of(self):\n"
                     "        theorem1_margin = 3\n"
                     "        return theorem1_margin\n")
    assert _readers(tree, "theorem1_margin") == [
        "<module>", "outer.inner", "outer", "Stack.of"]


_OUTPUT_WRITERS = ("write_json_report", "write_text", "mkdir")


def _output_writers(tree: ast.Module) -> dict[str, set[str]]:
    """Every scope that reads a name that writes a command's outputs."""
    return {name: set(_readers(tree, name)) for name in _OUTPUT_WRITERS}


def test_only_main_writes_a_commands_outputs():
    # a cmd_* function returns (payload, files, summary) and main writes
    # them, so no --out directory appears before a command has succeeded
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    assert _output_writers(tree) == {name: {"main"}
                                     for name in _OUTPUT_WRITERS}


def test_the_writer_guard_sees_every_writer_and_its_scope():
    tree = ast.parse("from .report import write_json_report\n"
                     "def cmd_run(args):\n"
                     "    out.mkdir(parents=True)\n"
                     "    write_json_report({}, out / 'r.json', 's')\n"
                     "    (out / 'a.csv').write_text('')\n"
                     "def main():\n"
                     "    Path(args.out).mkdir()\n"
                     "    save = write_json_report\n"
                     "    [(out / n).write_text(t) for n, t in files]\n")
    assert _output_writers(tree) == {"write_json_report": {"cmd_run", "main"},
                                     "write_text": {"cmd_run", "main"},
                                     "mkdir": {"cmd_run", "main"}}
