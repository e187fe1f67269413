"""Every name a module lists in ``__all__`` must exist in it.

The lists are edited by hand whenever a function moves or goes, and a stale
entry only fails at ``from qswitch.<module> import *``.
"""

import importlib
import pkgutil

import pytest

import qswitch

MODULES = ["qswitch"] + [f"qswitch.{m.name}" for m in pkgutil.iter_modules(qswitch.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"{name}.__all__ lists a name twice"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names what it does not define: {missing}"
