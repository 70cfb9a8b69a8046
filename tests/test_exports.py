"""``from <module> import *`` fails on an ``__all__`` entry the module lacks."""

import pkgutil

import pytest

import chebsig

MODULES = ["chebsig"] + [f"chebsig.{m.name}" for m in pkgutil.iter_modules(chebsig.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    exec(f"from {module} import *", {})
