"""JSON report emission plus a small schema validator.

Reports are serialized with sorted keys and two-space indentation so a fixed
seed yields byte-identical files. The schemas shipped under ``schemas/`` use
a subset of JSON Schema (type, required, properties, items, enum) that
``validate_schema`` understands.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "null": type(None),
}


def load_schema(name: str) -> dict:
    ref = resources.files("shiftspec").joinpath("schemas").joinpath(name)
    return json.loads(ref.read_text(encoding="utf-8"))


def validate_schema(instance, schema, path: str = "$") -> list[str]:
    """Return a list of violations; empty means the instance conforms."""
    problems: list[str] = []
    expected = schema.get("type")
    if expected == "number":
        if not isinstance(instance, (int, float)) or isinstance(instance, bool):
            problems.append(f"{path}: expected number, got {type(instance).__name__}")
            return problems
    elif expected == "integer":
        if not isinstance(instance, int) or isinstance(instance, bool):
            problems.append(f"{path}: expected integer, got {type(instance).__name__}")
            return problems
    elif expected in _TYPES:
        if not isinstance(instance, _TYPES[expected]):
            problems.append(f"{path}: expected {expected}, got {type(instance).__name__}")
            return problems

    if "enum" in schema and instance not in schema["enum"]:
        problems.append(f"{path}: {instance!r} not in {schema['enum']!r}")

    if expected == "object":
        for key in schema.get("required", ()):
            if key not in instance:
                problems.append(f"{path}: missing required key {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in instance:
                problems.extend(validate_schema(instance[key], sub, f"{path}.{key}"))
    elif expected == "array" and "items" in schema:
        for i, item in enumerate(instance):
            problems.extend(validate_schema(item, schema["items"], f"{path}[{i}]"))
    return problems


def write_json_report(payload: dict, path: Path, schema_name: str) -> None:
    problems = validate_schema(payload, load_schema(schema_name))
    if problems:
        raise ValueError("report does not conform to its schema: "
                         + "; ".join(problems))
    # NaN and infinities are not JSON; refuse them rather than write them
    path.write_text(json.dumps(payload, indent=2, sort_keys=True,
                               allow_nan=False) + "\n", encoding="utf-8")
