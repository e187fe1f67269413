"""The public names the benchmark traces and calls must exist in the package.

``perfbench/layers.py`` skips a wrapped name that no longer exists and reports
its layer as absent, so deleting one of them (for instance the otherwise
unused ``qswitch.comb.haar_random_unitaries``) would only show up when the
benchmark runs.  This test catches it in tier 1.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


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
