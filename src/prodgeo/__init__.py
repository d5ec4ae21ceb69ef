"""Numerical geometry of the product spaces S2xR and H2xR.

Closed-form geodesics from a base point, normalising isometries, interior
angles and angle sums of geodesic triangles, one-parameter angle-sum
sweeps, and an independent ODE/quadrature verification engine, all in the
projective (affine-chart) model of the two geometries.
"""

from .core import (
    BASE_POINT,
    Geometry,
    contains,
    homogeneous,
    metric_at,
    model_point,
    to_model,
)
from .exceptions import (
    ConsistencyError,
    DegenerateError,
    DomainError,
    GeometryError,
    PrecondError,
    SingularityError,
)
from .geodesics import (
    GeodesicParams,
    distance,
    geodesic_params,
    geodesic_point,
    sample_curve,
    tangent_of,
)
from .isometries import (
    apply_isometry,
    fibre_translation,
    reference_image_base,
    reference_image_third,
    reference_images_plane_mover,
    rotation_x,
    rotation_z,
    tangent_endpoints,
    to_origin,
    vertex_angle,
)
from .oracle import (
    arc_length_quadrature,
    integrate_geodesic,
    integrate_geodesic_cartesian,
    unit_speed_drift,
)
from .sweep import ExtremumKind, SweepResult, SweepSpec, angle_sum_at, evaluate, limits_check
from .tolerances import DEFAULT, Tolerances
from .triangles import (
    GeodesicTriangle,
    TriangleAngles,
    TriangleClass,
    angle_sum,
    classify,
    coplanar_with_center,
    encloses_center,
    geodesic_triangle,
)

__version__ = "0.1.0"

__all__ = [
    "BASE_POINT",
    "Geometry",
    "contains",
    "homogeneous",
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
    "fibre_translation",
    "rotation_x",
    "rotation_z",
    "to_origin",
    "apply_isometry",
    "reference_image_base",
    "reference_image_third",
    "reference_images_plane_mover",
    "GeodesicTriangle",
    "TriangleAngles",
    "TriangleClass",
    "geodesic_triangle",
    "tangent_endpoints",
    "vertex_angle",
    "angle_sum",
    "coplanar_with_center",
    "encloses_center",
    "classify",
    "ExtremumKind",
    "SweepSpec",
    "SweepResult",
    "angle_sum_at",
    "evaluate",
    "limits_check",
    "integrate_geodesic",
    "integrate_geodesic_cartesian",
    "unit_speed_drift",
    "arc_length_quadrature",
    "Tolerances",
    "DEFAULT",
]
