"""The traced benchmark (``perfbench/tracer.py``) wraps library entry points
by name, so a rename or deletion in the library breaks ``--trace 1``.  The
names are read from the tracer's source, without importing it."""
import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def entry_points() -> dict:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(getattr(t, "id", None) == "ENTRY_POINTS" for t in targets):
                return ast.literal_eval(node.value)
    raise AssertionError(f"no ENTRY_POINTS in {TRACER}")


def test_every_traced_entry_point_resolves():
    # a name is an attribute of nscsg.<layer>, or Class.method on one
    missing = []
    for layer, names in entry_points().items():
        module = importlib.import_module(f"nscsg.{layer}")
        for name in names:
            owner = module
            for part in name.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"nscsg.{layer}.{name}")
    assert not missing, missing
