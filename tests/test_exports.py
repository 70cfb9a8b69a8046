"""``from <module> import *`` fails on an ``__all__`` entry the module lacks,
and the package exports exactly the names its modules list."""

import importlib
import math
import pkgutil
import types

import numpy as np
import pytest

import chebsig

MODULES = ["chebsig"] + [f"chebsig.{m.name}" for m in pkgutil.iter_modules(chebsig.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    exec(f"from {module} import *", {})


def test_package_exports_the_module_lists():
    # A name dropped from one module's __all__ but kept in the package (or
    # the reverse) fails here.
    modules = ["cheb", "conditioning", "fourier", "nodes", "report", "signals"]
    listed = set().union(*(importlib.import_module(f"chebsig.{m}").__all__ for m in modules))
    public = {
        name for name, value in vars(chebsig).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == listed


UNIT = chebsig.Domain(-1.0, 1.0)
PAIR = chebsig.Signal([0.0, 1.0], [1.0, 2.0])
FOUR = chebsig.Signal(np.arange(4.0), [1.0, 2.0, 3.0, 4.0])

#: Every export that takes a count or a seed: (call, argument name, minimum,
#: a valid value).
COUNTS = {
    "cheb_points_second_kind": (lambda n: chebsig.cheb_points_second_kind(n).points, "n", 1, 7),
    "cheb_points_first_kind": (lambda n: chebsig.cheb_points_first_kind(n).points, "count", 1, 7),
    "interpolant_from_function": (
        lambda n: chebsig.interpolant_from_function(np.sin, n=n).coeffs, "n", 1, 7),
    "legendre_points": (lambda n: chebsig.legendre_points(n).points, "count", 1, 7),
    "uniform_points": (lambda n: chebsig.uniform_points(n).points, "count", 2, 7),
    "uneven_grid": (lambda n: chebsig.uneven_grid(n, 2.0, 0), "count", 2, 7),
    "uneven_grid_seed": (lambda s: chebsig.uneven_grid(7, 2.0, s), "seed", 0, 3),
    "add_noise_seed": (lambda s: chebsig.add_noise(FOUR, 0.1, s).y, "seed", 0, 3),
    "clenshaw_curtis_weights": (chebsig.clenshaw_curtis_weights, "n", 0, 7),
    "build_basis_matrix": (
        lambda n: chebsig.build_basis_matrix(chebsig.Basis.CHEBYSHEV, UNIT, n), "max_degree", 0, 3),
    "conditioning_sweep": (
        lambda n: chebsig.conditioning_sweep(chebsig.Basis.MONOMIAL, UNIT, n), "n_max", 0, 3),
    "moving_average": (lambda n: chebsig.moving_average(PAIR, n).y, "window", 1, 3),
    "resample_spectral": (lambda n: chebsig.resample_spectral(FOUR, n).y, "new_count", 4, 8),
}


@pytest.mark.parametrize("export", sorted(COUNTS))
def test_count_arguments(export):
    # A non-integer (whole-number floats and NaN included), a bool or a
    # count or seed below the minimum raises a ValueError naming the
    # argument; a numpy integer gives the bits of the Python int.
    call, name, minimum, good = COUNTS[export]
    for bad in (2.5, float(good), math.nan, True, minimum - 1):
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= {minimum}$"):
            call(bad)
    assert call(np.int64(good)).tobytes() == call(good).tobytes()
