"""Every public name of the package is needed by something.

A function or class exported by ``shiftspec/__init__.py``, and every public
module-level function and public method in ``src/shiftspec``, must be
referenced by another definition in ``src/shiftspec``, by a name the
benchmark reads (any ``perfbench/*.py``, plus ``WRAPPED`` in
``perfbench/tracer.py``), or be listed in ``KEPT`` below with the reason it
stays: a test oracle, read by a test other than this one. Code that only
its own tests call fails here.
"""

import ast
import importlib.util
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "shiftspec"

KEPT = {
    "color_classifier_accuracy": "test oracle",
    "digit_classifier_accuracy": "test oracle",
    "probit": "test oracle",
    "reflection_shift": "test oracle",
    "save_accuracy_table": "test oracle",
    "sweep_pairs": "test oracle",
}


def _modules():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def _exports() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _public_functions() -> set[tuple[str, str]]:
    """(qualified name, name) of each public module-level function and each
    public method of a public class."""
    found = set()
    for _, tree in _modules():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                found.add((node.name, node.name))
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                found |= {(f"{node.name}.{sub.name}", sub.name) for sub in node.body
                          if isinstance(sub, ast.FunctionDef)
                          and not sub.name.startswith("_")}
    return found


def _names_in(node) -> set[str]:
    """Every bare name and attribute name read anywhere under node."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def _owned_parts(node, module: str):
    """(owner, part) pairs of a top-level statement: a method is owned by
    ``Class.method``, the rest of a class by the class, and module-level
    code outside a definition by its module."""
    owner = getattr(node, "name", f"<module {module}>")
    if not isinstance(node, ast.ClassDef):
        return [(owner, node)]
    return ([(owner, part) for part in node.bases + node.keywords + node.decorator_list]
            + [(f"{owner}.{part.name}" if isinstance(part, ast.FunctionDef) else owner,
                part) for part in node.body])


def _src_references() -> dict[str, set[str]]:
    """name -> the owners in src/shiftspec (see _owned_parts) that read it."""
    readers = defaultdict(set)
    for path, tree in _modules():
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for owner, part in _owned_parts(node, path.stem):
                for name in _names_in(part):
                    readers[name].add(owner)
    return readers


def _wrapped_names() -> set[str]:
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {part for quals in tracer.WRAPPED.values() for qual in quals
            for part in qual.split(".")}


def _unreached(items) -> list[str]:
    """The qualified names among (qualified name, name) items that nothing
    outside their own definition reads and no benchmark name or KEPT keeps."""
    readers = _src_references()
    needed = set(KEPT) | _wrapped_names()
    for path in (ROOT / "perfbench").glob("*.py"):
        needed |= _names_in(ast.parse(path.read_text(encoding="utf-8")))
    return sorted(qual for qual, name in items
                  if name not in needed
                  and all(o == qual or o.startswith(qual + ".")
                          for o in readers[name]))


def test_every_export_has_a_caller_or_a_reason():
    exports = _exports()
    assert _unreached((name, name) for name in exports - {"__version__"}) == []
    assert set(KEPT) <= exports
    assert set(KEPT.values()) <= {"test oracle"}


def test_every_public_function_and_method_has_a_caller_or_a_reason():
    found = _public_functions()
    assert {"fit_probit_line", "RandomStream.substream_uniform",
            "ScatterPlot.render"} <= {qual for qual, _ in found}
    assert _unreached(found) == []


def test_every_kept_name_is_read_by_another_test():
    read = set()
    for path in (ROOT / "tests").glob("*.py"):
        if path.name != Path(__file__).name:
            read |= _names_in(ast.parse(path.read_text(encoding="utf-8")))
    assert sorted(set(KEPT) - read) == []
