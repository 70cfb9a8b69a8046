"""``from <module> import *`` fails on an ``__all__`` entry the module lacks,
and the package exports exactly the names its modules list."""

import importlib
import pkgutil
import types

import pytest

import chebsig

MODULES = ["chebsig"] + [f"chebsig.{m.name}" for m in pkgutil.iter_modules(chebsig.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    exec(f"from {module} import *", {})


def test_package_exports_the_module_lists():
    # A name dropped from one module's __all__ but kept in the package (or
    # the reverse) fails here; report.format_float is the one name the
    # package leaves to its module.
    modules = ["cheb", "conditioning", "fourier", "nodes", "report", "signals"]
    listed = set().union(*(importlib.import_module(f"chebsig.{m}").__all__ for m in modules))
    public = {
        name for name, value in vars(chebsig).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == listed - {"format_float"}
