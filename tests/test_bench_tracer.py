"""The benchmark's traced mode wraps shiftspec functions by name; every name
it lists must still exist, or ``perfbench/run.py --trace 1`` breaks."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    tracer = _load_tracer()
    missing = []
    for layer, names in tracer.WRAPPED.items():
        module = importlib.import_module(f"shiftspec.{layer}")
        for qual in names:
            if "." in qual:
                cls_name, meth = qual.split(".")
                found = meth in vars(getattr(module, cls_name, object))
            else:
                found = callable(getattr(module, qual, None))
            if not found:
                missing.append(f"{layer}.{qual}")
    assert missing == []


def test_every_measured_name_is_wrapped():
    tracer = _load_tracer()
    wrapped = {f"{layer}.{qual}" for layer, names in tracer.WRAPPED.items()
               for qual in names}
    assert set(tracer.MEASURES) <= wrapped
