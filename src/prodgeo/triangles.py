"""Geodesic triangles: interior angles, angle sums and their trichotomy.

A triangle keeps the vertices its caller gave, read-only, and computes its
angles once, on first use.  The angles come from the product structure of
the geometry: a point splits into a fibre height f and a point s on the
surface factor,

    S2xR :  f = log |p|,     s = p / |p|,
    H2xR :  f = log sqrt(Q), s = p / sqrt(Q),  Q = (x - r)(x + r), r = hypot(y, z),

and the unit tangent at A toward B is (f_B - f_A, d_AB xi_AB) / l_AB, with
d_AB the surface distance, xi_AB the unit surface tangent at s_A toward s_B
(Euclidean, respectively Minkowski, form) and l_AB = hypot(f_B - f_A, d_AB).
The angle between two unit tangents u, v is 2 atan2(|u - v|, |u + v|), which
keeps full precision near 0 and pi where acos loses sqrt(eps) (Kahan,
"Miscalculating Area and Angles of a Needle-like Triangle").  ``_angle_sums``
does this for whole arrays of triangles, with no isometry and no inverse
problem: angles are isometry-invariant, so no vertex is moved (the paper's
method, which moves them, is ``isometries``).

Angle sums obey a strict trichotomy: S2xR sums are >= pi and H2xR sums are
<= pi, with equality exactly when the vertices are Euclid-coplanar with the
model centre E0 = (1 : 0 : 0 : 0) *and* the triangle does not enclose E0.
A coplanar S2xR triangle that winds around the centre lives on a flat
cylinder leaf and its angle sum lies strictly above pi; see ``classify``.
Both conditions hold for the vertices scaled to unit size, as a normaliser
(linear, weight 1) keeps them too.  An S2xR side whose end points have
antipodal surface points has no unique geodesic: such triangles are
degenerate.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core import Geometry, _split, require_member
from .exceptions import ConsistencyError, DegenerateError
from .geodesics import _surface_arc, _tangent_sq
from .tolerances import DEFAULT

__all__ = [
    "GeodesicTriangle",
    "TriangleAngles",
    "TriangleClass",
    "geodesic_triangle",
    "angle_sum",
    "coplanar_with_center",
    "encloses_center",
    "classify",
]


@dataclass(frozen=True, eq=False)
class GeodesicTriangle:
    """Vertices of a geodesic triangle as the caller gave them: read-only
    copies, so its angles and coplanarity, computed once, cannot go stale."""

    kind: Geometry
    a1: np.ndarray
    a2: np.ndarray
    a3: np.ndarray

    def __post_init__(self):
        for name in ("a1", "a2", "a3"):
            vertex = np.array(getattr(self, name), dtype=float)
            vertex.flags.writeable = False
            object.__setattr__(self, name, vertex)

    @property
    def vertices(self):
        return self.a1, self.a2, self.a3

    @cached_property
    def _angles(self) -> TriangleAngles:
        return TriangleAngles(*map(float, _angle_sums(self.kind, *self.vertices)))

    @cached_property
    def _is_coplanar(self) -> bool:
        return _coplanar(*self.vertices)


class TriangleAngles(NamedTuple):
    w1: float
    w2: float
    w3: float
    total: float


class TriangleClass(enum.Enum):
    SUM_EQUALS_PI = "equal"
    SUM_ABOVE_PI = "above"
    SUM_BELOW_PI = "below"


def geodesic_triangle(kind: Geometry, a1, a2, a3) -> GeodesicTriangle:
    """Build a triangle of three model points, kept as given.

    Raises DomainError for a point outside the model and DegenerateError
    when two vertices coincide (see ``_require_distinct``).
    """
    a1, a2, a3 = (require_member(kind, p) for p in (a1, a2, a3))
    _require_distinct(a1, a2, a3)
    return GeodesicTriangle(kind, a1, a2, a3)


def _require_distinct(a1, a2, a3) -> None:
    """Raise DegenerateError where two of the vertices, (3,) or (N, 3) arrays,
    differ by at most ``vertex_gap`` max(|a1|, |p|, |q|) in each coordinate
    (max norms): scale-invariant, and max(1, |p|, |q|) with a1 the base point."""
    vertices = (a1, a2, a3)
    sizes = [np.abs(a).max(axis=-1) for a in vertices]
    for i, j in ((0, 1), (0, 2), (1, 2)):
        scale = np.maximum(sizes[0], np.maximum(sizes[i], sizes[j]))
        if (np.abs(vertices[i] - vertices[j]).max(axis=-1) <= DEFAULT.vertex_gap * scale).any():
            raise DegenerateError("two triangle vertices coincide")


def angle_sum(tri: GeodesicTriangle) -> TriangleAngles:
    """All three interior angles and their sum, from the triangle's own
    vertices.

    Raises DegenerateError for an S2xR side on the cut locus.
    """
    return tri._angles


def _angle_sums(kind: Geometry, a1, a2, a3) -> TriangleAngles:
    """Interior angles w1, w2, w3 and their sum for vertex arrays of shape
    (3,) or (N, 3) that broadcast together: scalars or (N,) arrays.

    Vertices must be distinct (see ``_require_distinct``); a vertex outside
    the model raises DomainError, an S2xR side whose surface points are
    antipodal DegenerateError.
    """
    f1, s1 = _split(kind, a1)
    f2, s2 = _split(kind, a2)
    f3, s3 = _split(kind, a3)
    t12, t21 = _side_tangents(kind, f1, s1, f2, s2)
    t13, t31 = _side_tangents(kind, f1, s1, f3, s3)
    t23, t32 = _side_tangents(kind, f2, s2, f3, s3)
    w1 = _tangent_angle(kind, s1, t12, t13)
    w2 = _tangent_angle(kind, s2, t21, t23)
    w3 = _tangent_angle(kind, s3, t31, t32)
    return TriangleAngles(w1, w2, w3, w1 + w2 + w3)


#: smallest positive double: the divisor floor of a side's zero surface part
_TINY = np.finfo(float).tiny

def _side_tangents(kind: Geometry, fa, sa, fb, sb):
    """Unit tangents (fibre, x, y, z) at A toward B and at B toward A, from
    the surface arc of ``_surface_arc`` and its mirror image at s_B."""
    cos, at_a, sin_a, dist = _surface_arc(kind, sa, sb)
    if kind is Geometry.S2R and ((cos < 0.0) & (sin_a <= DEFAULT.cut_locus)).any():
        raise DegenerateError("two vertices have antipodal S2 points: the side is not unique")
    at_b = tuple(a - cos * b for a, b in zip(sa, sb))
    sin_b = np.sqrt(_tangent_sq(kind, sb, at_b))
    rise = fb - fa
    length = np.hypot(rise, dist)
    # a side along the fibre has sin = dist = 0 and no surface part; adding
    # the smallest double changes no sine above 1e-290 and avoids 0 / 0
    scale_a = dist / ((sin_a + _TINY) * length)
    scale_b = dist / ((sin_b + _TINY) * length)
    return ((rise / length, *(c * scale_a for c in at_a)),
            (-rise / length, *(c * scale_b for c in at_b)))


def _tangent_angle(kind: Geometry, s, u, v):
    """Angle 2 atan2(|u - v|, |u + v|) between unit tangents at surface point ``s``."""
    diff = _tangent_sq(kind, s, [a - b for a, b in zip(u[1:], v[1:])]) + (u[0] - v[0]) ** 2
    both = _tangent_sq(kind, s, [a + b for a, b in zip(u[1:], v[1:])]) + (u[0] + v[0]) ** 2
    return 2.0 * np.arctan2(np.sqrt(diff), np.sqrt(both))


def coplanar_with_center(tri: GeodesicTriangle) -> bool:
    """True when the three vertices are Euclid-coplanar with the centre E0.

    E0 is the Cartesian origin, so the test is the vanishing of the triple
    product of the vertex position vectors, relative to their norms.
    """
    return tri._is_coplanar


def _unit_rows(a1, a2, a3) -> np.ndarray:
    """The points as rows over their largest |coordinate|: no product overflows."""
    rows = np.array([a1, a2, a3])
    return rows / np.abs(rows).max(axis=1, keepdims=True)


def _coplanar(a1, a2, a3) -> bool:
    """``coplanar_with_center`` of three points (scale-invariant in each)."""
    rows = _unit_rows(a1, a2, a3)
    det = float(np.linalg.det(rows))
    return abs(det) <= DEFAULT.coplanar * float(np.linalg.norm(rows, axis=1).prod())


def encloses_center(tri: GeodesicTriangle) -> bool:
    """True when the vertices are coplanar with E0 and the Euclidean
    triangle they span contains E0.

    Only possible in S2xR: H2xR vertices all have x > 0 so their hull
    misses the origin.
    """
    if not tri._is_coplanar:
        return False
    # barycentric solve of 0 = l1 a1 + l2 a2 + l3 a3, sum(l) = 1
    m = np.vstack([_unit_rows(*tri.vertices).T, np.ones(3)])
    lam, *_ = np.linalg.lstsq(m, np.array([0.0, 0.0, 0.0, 1.0]), rcond=None)
    residual = m @ lam - np.array([0.0, 0.0, 0.0, 1.0])
    if float(np.abs(residual).max()) > DEFAULT.enclosure_residual:
        return False
    return bool(np.all(lam >= -DEFAULT.enclosure_weight))


def classify(tri: GeodesicTriangle) -> TriangleClass:
    """Classify a triangle by the trichotomy of its angle sum.

    Coplanar-with-E0 triangles not enclosing the centre have sum pi;
    otherwise the sum is above pi in S2xR and below pi in H2xR.  The
    computed sum must agree with the class, else ConsistencyError (an
    implementation bug, never suppressed).
    """
    total = angle_sum(tri).total
    tol = DEFAULT.angle_sum
    if tri._is_coplanar and not encloses_center(tri):
        if abs(total - math.pi) > tol:
            raise ConsistencyError(
                f"coplanar triangle has angle sum {total}, expected pi"
            )
        return TriangleClass.SUM_EQUALS_PI
    if tri.kind is Geometry.S2R:
        if total < math.pi - tol:
            raise ConsistencyError(f"S2xR angle sum {total} below pi")
        return TriangleClass.SUM_ABOVE_PI
    if total > math.pi + tol:
        raise ConsistencyError(f"H2xR angle sum {total} above pi")
    return TriangleClass.SUM_BELOW_PI
