"""The benchmark harness names opvib entry points; each must still exist."""

import importlib.util
from pathlib import Path

import opvib

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_entry_point_resolves_on_opvib():
    # the tracer looks each name up with getattr on entry, so one removed
    # from opvib makes every traced benchmark run raise AttributeError
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for module, path, _ in spans.ENTRY_POINTS:
        owner = getattr(opvib, module, None)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module}.{path}")
    assert spans.ENTRY_POINTS and not missing
