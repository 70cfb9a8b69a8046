"""Chebyshev and trigonometric interpolation toolkit.

Library layers:

- :mod:`chebsig.cheb` — Chebyshev nodes, series, evaluation, calculus.
- :mod:`chebsig.fourier` — spectral resampling, trigonometric interpolation, spectra.
- :mod:`chebsig.nodes` — Legendre points, node comparisons, probes.
- :mod:`chebsig.conditioning` — basis quasimatrix singular values.
- :mod:`chebsig.signals` — gamma-variate signals, noise, filtering.
- :mod:`chebsig.experiments` — the reproducible experiment harness.

Randomness everywhere is numpy's PCG64 seeded explicitly, so results are
reproducible from (parameters, seed).
"""

from .cheb import (
    ChebInterpolant,
    Domain,
    NodeSet,
    UnresolvedFunctionError,
    cheb_points_first_kind,
    cheb_points_second_kind,
    derivative,
    evaluate,
    evaluate_barycentric,
    interpolant_from_function,
    interpolant_from_values,
    min_and_max,
    truncate,
)
from .conditioning import (
    Basis,
    NumericallySingularError,
    build_basis_matrix,
    clenshaw_curtis_weights,
    condition_number,
    conditioning_sweep,
    singular_values,
)
from .fourier import (
    UnevenSpacingError,
    amplitude_spectrum,
    resample_spectral,
    trig_interpolate,
)
from .nodes import (
    compare_nodes,
    legendre_points,
    mean_distance,
    smallest_nonzero_midpoint,
    uniform_points,
)
from .report import ExperimentReport, Series, write_report
from .signals import (
    GammaParams,
    Signal,
    add_noise,
    gamma_variate,
    moving_average,
    uneven_grid,
)

__version__ = "0.1.0"
