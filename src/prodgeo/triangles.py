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
method, which moves them, is ``isometries``).  Its fixed part (a1, a2) is
built once per S(t) sweep, its moving part (a3) per batch; surface points
are stacked by component, (3, N), so a vector operation is one ufunc call.

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
    vertices = [require_member(kind, p) for p in (a1, a2, a3)]
    _require_distinct(vertices)
    return GeodesicTriangle(kind, *vertices)


def _require_distinct(vertices, new: int = 1) -> None:
    """Raise DegenerateError where two ``vertices``, (3,) or (N, 3) arrays,
    differ by at most ``vertex_gap`` max(|p|, |q|) in each coordinate (the
    pair's own max norms: scale-invariant); the first ``new`` are known apart."""
    floors = [DEFAULT.vertex_gap * _max_abs(a) for a in vertices]
    for j in range(new, len(vertices)):
        for i in range(j):
            if (_max_abs(vertices[i] - vertices[j]) <= np.maximum(floors[i], floors[j])).any():
                raise DegenerateError("two triangle vertices coincide")


def _max_abs(a):
    """max |coordinate| of points by columns: numpy reduces an axis of 3 slowly."""
    a = np.abs(a)
    return np.maximum(np.maximum(a[..., 0], a[..., 1]), a[..., 2])


def angle_sum(tri: GeodesicTriangle) -> TriangleAngles:
    """All three interior angles and their sum, from the triangle's own
    vertices.

    Raises DegenerateError for an S2xR side on the cut locus.
    """
    return tri._angles


def _angle_sums(kind: Geometry, a1, a2, a3) -> TriangleAngles:
    """Interior angles w1, w2, w3 and their sum, scalars or (N,) arrays, for
    a1 and a2 of one shape, (3,) or (N, 3), and a3 of that shape or (N, 3).

    Vertices must be distinct (see ``_require_distinct``); a vertex outside
    the model raises DomainError, an S2xR side whose surface points are
    antipodal DegenerateError.
    """
    return _third_vertex(kind, _fixed_side(kind, a1, a2), *_split(kind, a3))


def _fixed_side(kind: Geometry, a1, a2) -> tuple:
    """The fixed part: the splits of a1 and a2 and the tangents of side 1-2."""
    (f1, s1), (f2, s2) = _split(kind, a1), _split(kind, a2)
    return f1, s1, f2, s2, *_side_tangents(kind, f1, s1, f2, s2)


def _third_vertex(kind: Geometry, side: tuple, f3, s3) -> TriangleAngles:
    """The moving part, for split third vertices: sides 1-3, 2-3 and the angles."""
    f1, s1, f2, s2, (r12, u12), (r21, u21) = side
    if s1.ndim < s3.ndim:  # one side 1-2 against a batch of third vertices
        s1, s2, u12, u21 = (v[:, None] for v in (s1, s2, u12, u21))
    t13, t31 = _side_tangents(kind, f1, s1, f3, s3)
    t23, t32 = _side_tangents(kind, f2, s2, f3, s3)
    w1 = _tangent_angle(kind, s1, (r12, u12), t13)
    w2 = _tangent_angle(kind, s2, (r21, u21), t23)
    w3 = _tangent_angle(kind, s3, t31, t32)
    return TriangleAngles(w1, w2, w3, w1 + w2 + w3)


#: smallest positive double: the divisor floor of a side's zero surface part
_TINY = np.finfo(float).tiny

def _side_tangents(kind: Geometry, fa, sa, fb, sb):
    """Unit tangents (fibre, surface) at A toward B and at B toward A, from
    the surface arc of ``_surface_arc`` and its mirror image at s_B."""
    cos, at_a, sin_a, dist = _surface_arc(kind, sa, sb)
    if kind is Geometry.S2R and ((cos < 0.0) & (sin_a <= DEFAULT.cut_locus)).any():
        raise DegenerateError("two vertices have antipodal S2 points: the side is not unique")
    at_b = sa - cos * sb
    sin_b = np.sqrt(_tangent_sq(kind, sb, at_b))
    rise = fb - fa
    length = np.hypot(rise, dist)
    # a side along the fibre has sin = dist = 0 and no surface part; adding
    # the smallest double changes no sine above 1e-290 and avoids 0 / 0
    scale_a = dist / ((sin_a + _TINY) * length)
    scale_b = dist / ((sin_b + _TINY) * length)
    return (rise / length, at_a * scale_a), (-rise / length, at_b * scale_b)


def _tangent_angle(kind: Geometry, s, u, v):
    """Angle 2 atan2(|u - v|, |u + v|) between unit tangents at surface point ``s``."""
    diff = _tangent_sq(kind, s, u[1] - v[1]) + (u[0] - v[0]) ** 2
    both = _tangent_sq(kind, s, u[1] + v[1]) + (u[0] + v[0]) ** 2
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
