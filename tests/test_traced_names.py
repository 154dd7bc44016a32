"""Every name that the benchmark's tracer wraps resolves in the package.

``perfbench/tracing.py`` is read and run from its source, so no bytecode
is written next to it, and each ``TRACED`` entry is looked up as
``Tracer.install`` does: the module, then any attribute path, then the
last name in the owner's own ``vars``.  A rename or deletion of a traced
function fails here rather than only in a traced benchmark run."""

import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
NAMESPACE = {"__name__": "tracing"}
exec(compile(TRACING.read_text(), str(TRACING), "exec"), NAMESPACE)


@pytest.mark.parametrize("mod_name, path", NAMESPACE["TRACED"], ids=NAMESPACE["NAMES"])
def test_traced_name_resolves(mod_name, path):
    owner = importlib.import_module(f"parastein.{mod_name}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert callable(vars(owner)[attr])
