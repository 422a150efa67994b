"""The benchmark's tracer wraps program names by (module, attribute); a
refactor that moves or drops one would end every traced run in an
AttributeError, so each target must resolve."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module, attr, _, _ in tracing.TARGETS:
        assert hasattr(importlib.import_module(module), attr), f"{module}.{attr}"
