"""Exact translation between 1-D ReLU networks and piecewise-linear splines.

Networks here map R to R, feed the raw input into every layer through
"source channels", and are equal (not approximately, but as functions) to
continuous piecewise-linear splines with finitely many knots.  The package
converts in both directions in closed form, normalizes network scales,
synthesizes networks whose splines break exactly at prescribed knots, and
audits the sharp bound on how many knots a given architecture can produce.
"""

from .analysis import BoundReport, active_knots, audit_bound, coeffs_from_knots
from .core import (
    ACTIVITY_TOL,
    DEFAULT_TOL,
    ActivityError,
    CoverageError,
    CplSpline,
    DegenerateFirstLayerError,
    DimensionMismatchError,
    InterlacingError,
    KnotHierarchy,
    Layer,
    PiecewiseForm,
    ReluNetwork,
    SplineBundle,
    SynthesisOptions,
    Tolerances,
    canonicalize,
    knot_bound,
)
from .evaluate import equivalence_error, eval_bundle, eval_network, eval_spline, probe_grid
from .normalize import is_normalized, positive_scale_normalize
from .serialization import (
    SchemaError,
    detect_and_load,
    dump_json,
    format_float,
    hierarchy_from_obj,
    hierarchy_to_obj,
    load_json,
    network_from_obj,
    network_to_obj,
    spline_from_obj,
    spline_to_obj,
    write_csv,
)
from .synth import (
    epsilon_select,
    hierarchy_from_flat,
    prescribed_knots,
    redundancy_residual,
    slopes_from_knots,
    synth_three_hidden,
    synth_two_hidden,
    synth_two_hidden_no_source,
    weights_from_slopes,
)
from .transfer import (
    dnn_to_spline,
    first_layer_canonicalize,
    layer_transfer,
    shallow_to_spline,
    sigma_compose,
    spline_to_shallow,
)

__version__ = "0.1.0"

__all__ = [
    "ACTIVITY_TOL",
    "DEFAULT_TOL",
    "ActivityError",
    "BoundReport",
    "CoverageError",
    "CplSpline",
    "DegenerateFirstLayerError",
    "DimensionMismatchError",
    "InterlacingError",
    "KnotHierarchy",
    "Layer",
    "PiecewiseForm",
    "ReluNetwork",
    "SchemaError",
    "SplineBundle",
    "SynthesisOptions",
    "Tolerances",
    "active_knots",
    "audit_bound",
    "canonicalize",
    "coeffs_from_knots",
    "detect_and_load",
    "dnn_to_spline",
    "dump_json",
    "epsilon_select",
    "equivalence_error",
    "eval_bundle",
    "eval_network",
    "eval_spline",
    "first_layer_canonicalize",
    "format_float",
    "hierarchy_from_flat",
    "hierarchy_from_obj",
    "hierarchy_to_obj",
    "is_normalized",
    "knot_bound",
    "layer_transfer",
    "load_json",
    "network_from_obj",
    "network_to_obj",
    "positive_scale_normalize",
    "prescribed_knots",
    "probe_grid",
    "redundancy_residual",
    "shallow_to_spline",
    "sigma_compose",
    "slopes_from_knots",
    "spline_from_obj",
    "spline_to_obj",
    "spline_to_shallow",
    "synth_three_hidden",
    "synth_two_hidden",
    "synth_two_hidden_no_source",
    "weights_from_slopes",
]
