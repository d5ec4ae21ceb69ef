"""Numerical geometry of the product spaces S2xR and H2xR.

Closed-form geodesics from a base point, normalising isometries, interior
angles and angle sums of geodesic triangles, one-parameter angle-sum
sweeps, and an independent ODE/quadrature verification engine, all in the
projective (affine-chart) model of the two geometries.

Importing the package runs ``core``, ``geodesics`` and ``triangles``, which
a triangle needs.  ``isometries``, ``oracle``, ``sweep`` and ``verification``
are registered in ``sys.modules`` as modules whose import runs on first
attribute access (``core._lazy_module``); a public name of one of them, or
``BASE_POINT``, is read on first access and then kept in the package globals.
"""

from . import core
from .core import Geometry, contains, metric_at, model_point, to_model
from .exceptions import (ConsistencyError, DegenerateError, DomainError, GeometryError,
                         PrecondError, SingularityError)
from .geodesics import (GeodesicParams, distance, geodesic_params, geodesic_point, sample_curve,
                        tangent_of)
from .tolerances import DEFAULT, Tolerances
from .triangles import (GeodesicTriangle, TriangleAngles, TriangleClass, angle_sum, classify,
                        coplanar_with_center, encloses_center, geodesic_triangle)

__version__ = "0.1.0"

isometries, oracle, sweep, verification = (
    core._lazy_module(f"{__name__}.{m}") for m in ("isometries", "oracle", "sweep", "verification"))

_LAZY = {name: module for module, names in [
    (core, ["BASE_POINT"]),
    (isometries, ["apply_isometry", "fibre_translation", "rotation_x", "rotation_z",
                  "tangent_endpoints", "to_origin", "vertex_angle"]),
    (oracle, ["arc_length_quadrature", "integrate_geodesic", "integrate_geodesic_cartesian",
              "unit_speed_drift"]),
    (sweep, ["ExtremumKind", "SweepResult", "SweepSpec", "angle_sum_at", "evaluate",
             "limits_check"]),
] for name in names}


def __getattr__(name: str):
    """A name of a lazy module, read on first access (which runs that module's
    import, or builds core's BASE_POINT) and kept in the package globals."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_LAZY[name], name)
    return value


def __dir__():
    return sorted({*__all__, *globals()})


__all__ = [
    "Geometry",
    "contains",
    "metric_at",
    "model_point",
    "to_model",
    "GeometryError",
    "DomainError",
    "DegenerateError",
    "PrecondError",
    "ConsistencyError",
    "SingularityError",
    "GeodesicParams",
    "geodesic_point",
    "geodesic_params",
    "tangent_of",
    "distance",
    "sample_curve",
    "GeodesicTriangle",
    "TriangleAngles",
    "TriangleClass",
    "geodesic_triangle",
    "angle_sum",
    "coplanar_with_center",
    "encloses_center",
    "classify",
    "Tolerances",
    "DEFAULT",
    *_LAZY,
]
