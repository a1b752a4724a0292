"""oscilla: finite Fourier cosine/sine transforms of densities on (0, 1).

The package evaluates

    U(x) = integral_0^1 f(t) cos(xt) dt
    V(x) = integral_0^1 f(t) sin(xt) dt

for positive weights f, localizes and verifies the positive zeros of U, V
and their derivatives, and classifies parameter families (beta, Kuttner,
power, Gegenbauer) into positivity and zero-distribution regions, checking
each region's interval predictions numerically.
"""
from __future__ import annotations

from .errors import (
    OscillaError, ParameterError, NonIntegrableError, QuadratureError,
    ConsistencyError, SeriesRegimeError, SeriesCancellationError,
    PoleProximityError,
)
from .density import Density, ShapeReport, make_density, reflect, parse_density
from .transform import (
    TransformKind, EvalResult, evaluate, evaluate_many, closed_form, default_tol,
)
from .hypergeom import HypSpec, hyp_pfq, beta_series
from .partial_fractions import (
    LatticeCoefficients, sample_lattice, pf_partial_sum,
    wronskian_series, wronskian_direct,
)
from .zeros import (
    ZeroRecord, EndpointSpec, PatternItem, PositivityClaim, Prediction,
    VerificationReport, sigma_roots, scan_and_refine, verify_pattern,
    interlace_check,
)
from .atlas import (
    RegionLabel, AtlasRecord, ShapePredictions, classify_beta_params,
    region_memberships, predict, predict_from_shape, kuttner_predict,
    lommel_predict, lommel_realization, steinerberger_signs,
    steinerberger_predict, verify_cell, sweep, iter_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "OscillaError", "ParameterError", "NonIntegrableError", "QuadratureError",
    "ConsistencyError", "SeriesRegimeError", "SeriesCancellationError",
    "PoleProximityError",
    "Density", "ShapeReport", "make_density", "reflect", "parse_density",
    "TransformKind", "EvalResult", "evaluate", "evaluate_many", "closed_form",
    "default_tol",
    "HypSpec", "hyp_pfq", "beta_series",
    "LatticeCoefficients", "sample_lattice", "pf_partial_sum",
    "wronskian_series", "wronskian_direct",
    "ZeroRecord", "EndpointSpec", "PatternItem", "PositivityClaim",
    "Prediction", "VerificationReport", "sigma_roots", "scan_and_refine",
    "verify_pattern", "interlace_check",
    "RegionLabel", "AtlasRecord", "ShapePredictions", "classify_beta_params",
    "region_memberships", "predict", "predict_from_shape", "kuttner_predict",
    "lommel_predict", "lommel_realization", "steinerberger_signs",
    "steinerberger_predict", "verify_cell", "sweep", "iter_sweep",
    "__version__",
]
