"""Every public name the package exports is needed by something.

A function or class exported by ``shiftspec/__init__.py`` must be
referenced by another definition in ``src/shiftspec``, by the benchmark's
workloads (``perfbench/workloads.py``) or by the benchmark's tracer
(``WRAPPED`` in ``perfbench/tracer.py``), or be listed in ``KEPT`` below
with the reason it stays. Code that only its own tests call fails here.
"""

import ast
import importlib.util
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "shiftspec"

KEPT = {
    "color_classifier_accuracy": "library API",
    "digit_classifier_accuracy": "library API",
    "probit": "library API",
    "reflection_alpha_threshold": "library API",
    "reflection_shift": "library API",
    "save_accuracy_table": "library API",
    "sweep_pairs": "library API",
}


def _exports() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _names_in(node) -> set[str]:
    """Every bare name and attribute name read anywhere under node."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def _src_references() -> dict[str, set[str]]:
    """name -> the top-level definitions in src/shiftspec that read it;
    module-level code outside a definition is owned by its module."""
    readers = defaultdict(set)
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            owner = getattr(node, "name", f"<module {path.stem}>")
            for name in _names_in(node):
                readers[name].add(owner)
    return readers


def _wrapped_names() -> set[str]:
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {part for quals in tracer.WRAPPED.values() for qual in quals
            for part in qual.split(".")}


def test_every_export_has_a_caller_or_a_reason():
    readers = _src_references()
    workloads = _names_in(ast.parse(
        (ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8")))
    needed = workloads | _wrapped_names() | set(KEPT)
    exports = _exports()
    unused = sorted(name for name in exports - {"__version__"}
                    if not readers[name] - {name} and name not in needed)
    assert unused == []
    assert set(KEPT) <= exports
    assert set(KEPT.values()) <= {"library API", "test oracle"}
