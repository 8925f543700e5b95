"""perfbench's tracer wraps rtorch functions by module and name, and skips a
name it cannot find.  A renamed function would silently drop its per-layer
metric, so every name the tracer wraps must still resolve."""
import importlib

import pytest

from conftest import REPO_ROOT


def tracer_tables():
    path = REPO_ROOT / "perfbench" / "tracing.py"
    namespace: dict = {}
    exec(compile(path.read_text(), str(path), "exec"), namespace)  # read only: no bytecode written
    return namespace["SPANS"], namespace["COUNTERS"]


SPANS, COUNTERS = tracer_tables()
# orchestration reaches the normal tail only through admission, so this counter wraps nothing
UNWRAPPED = {("orchestration", "miss_probability")}
TARGETS = sorted({(entry[0], entry[1]) for entry in SPANS + COUNTERS} - UNWRAPPED)


@pytest.mark.parametrize("module, attr", TARGETS, ids=[f"{m}.{a}" for m, a in TARGETS])
def test_traced_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"rtorch.{module}"), attr, None))
