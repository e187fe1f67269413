"""The public names the benchmark traces and calls must exist in the package.

``perfbench/layers.py`` skips a wrapped name that no longer exists and reports
its layer as absent, so deleting one of them (for instance the otherwise
unused ``qswitch.comb.haar_random_unitaries``) would only show up when the
benchmark runs.  This test catches it in tier 1.

The converse trap is an import that a module keeps only so that the benchmark
can wrap it.  Every relative import of the package must be used in its module
or exported, and the ones kept for a wrap alone are listed here.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LAYERS_PATH = ROOT / "perfbench" / "layers.py"
SRC = ROOT / "src" / "qswitch"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = _load_layers()


@pytest.mark.parametrize("wrap", layers.WRAPS, ids=lambda w: f"{w.module}.{w.attr}")
def test_wrapped_name_resolves(wrap):
    assert hasattr(importlib.import_module(wrap.module), wrap.attr)


@pytest.mark.parametrize("name", layers.TASK_NAMES)
def test_task_name_resolves(name):
    module, attr = name.rsplit(".", 1)
    assert hasattr(importlib.import_module(module), attr)


def _unused_relative_imports(path: Path) -> list[str]:
    """Names a module imports relatively but neither reads nor lists in ``__all__``."""
    tree = ast.parse(path.read_text())
    imported = [alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]:
            exported = set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used | exported]


def test_relative_imports_are_used_or_exported():
    wrapped = {(wrap.module, wrap.attr) for wrap in layers.WRAPS}
    wrap_only = []
    for path in sorted(SRC.glob("*.py")):
        module = "qswitch" if path.stem == "__init__" else f"qswitch.{path.stem}"
        for name in _unused_relative_imports(path):
            assert (module, name) in wrapped, f"{module} imports {name} but neither uses nor exports it"
            wrap_only.append(f"{module}.{name}")
    # each is a deletion that waits on an edit of the benchmark's wraps
    assert wrap_only == ["qswitch.comb.haar_random_unitaries"]
