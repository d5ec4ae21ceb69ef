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
method, which moves them, is ``isometries``), and it is the reference the
closed-form S(t) of ``sweep`` is tested against.  Surface points are
stacked by component, (3, N), so a vector operation is one ufunc call.

Angle sums obey a strict trichotomy: sum - pi has the sign of the surface
curvature, ``Geometry.curvature`` (S2xR sums are >= pi, H2xR sums <= pi),
and is zero exactly when the vertices are Euclid-coplanar with the model
centre E0 = (1 : 0 : 0 : 0) *and* the triangle does not enclose E0.
A coplanar S2xR triangle that winds around the centre lives on a flat
cylinder leaf and its angle sum lies strictly above pi; see ``classify``.
Both conditions hold for the vertices scaled to unit size, as a normaliser
(linear, weight 1) keeps them too, and both are sign tests in floats on
those unit rows, with no linear solve.  An S2xR side whose end points have
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
    pair's own max norms: scale-invariant); the first ``new`` are known apart.

    One triangle is compared in Python floats, as ``core._scaled_norm``
    reads one point: numpy's per-call cost on (3,) arrays would be most of
    building a triangle.  A batch stays in numpy; there a gap that
    overflows is inf, which is apart.
    """
    if all(a.ndim == 1 for a in vertices):
        points = [a.tolist() for a in vertices]
        close = any(_close(points[i], points[j]) for j in range(new, len(points)) for i in range(j))
    else:
        floors = [DEFAULT.vertex_gap * _max_abs(a) for a in vertices]
        with np.errstate(over="ignore"):
            close = any((_max_abs(vertices[i] - vertices[j]) <= np.maximum(floors[i], floors[j])).any()
                        for j in range(new, len(vertices)) for i in range(j))
    if close:
        raise DegenerateError("two triangle vertices coincide")


def _close(p, q) -> bool:
    """``_require_distinct`` of two points given as float triples: rounding
    is monotone, so vertex_gap times the larger size is the larger floor."""
    (x, y, z), (u, v, w) = p, q
    return (max(abs(x - u), abs(y - v), abs(z - w))
            <= DEFAULT.vertex_gap * max(abs(x), abs(y), abs(z), abs(u), abs(v), abs(w)))


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
    (f1, s1), (f2, s2) = _split(kind, a1), _split(kind, a2)
    (r12, u12), (r21, u21) = _side_tangents(kind, f1, s1, f2, s2)
    f3, s3 = _split(kind, a3)
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


def _coplanar(a1, a2, a3) -> bool:
    """``coplanar_with_center`` of three points (scale-invariant in each): the
    triple product of the points over their largest |coordinate|, in floats,
    against the product of those rows' norms."""
    (x1, y1, z1), (x2, y2, z2), (x3, y3, z3) = map(_unit_row, (a1, a2, a3))
    det = x1 * (y2 * z3 - z2 * y3) - y1 * (x2 * z3 - z2 * x3) + z1 * (x2 * y3 - y2 * x3)
    norms = math.hypot(x1, y1, z1) * math.hypot(x2, y2, z2) * math.hypot(x3, y3, z3)
    return abs(det) <= DEFAULT.coplanar * norms


def _unit_row(a) -> tuple:
    """One point over its largest |coordinate|, as floats: no product overflows."""
    x, y, z = a.tolist()
    big = max(abs(x), abs(y), abs(z))
    return x / big, y / big, z / big


def encloses_center(tri: GeodesicTriangle) -> bool:
    """True when the vertices are coplanar with E0 and the Euclidean
    triangle they span contains E0.

    Only possible in S2xR: H2xR vertices all have x > 0 so their hull
    misses the origin.  A sign test in floats (``_encloses``), no solve.
    """
    return tri._is_coplanar and _encloses(*map(_unit_row, tri.vertices))


def _encloses(r1, r2, r3) -> bool:
    """Whether E0 lies in the triangle of the coplanar unit rows: with c_i
    the cross product of the rows other than row i and n the largest c_i
    (their sum cancels where the rows lie on one line), the barycentric
    weights of E0 are the c_i . n over their sum."""
    crosses = [(p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0])
               for p, q in ((r2, r3), (r3, r1), (r1, r2))]
    nx, ny, nz = max(crosses, key=lambda c: c[0] * c[0] + c[1] * c[1] + c[2] * c[2])
    weights = [cx * nx + cy * ny + cz * nz for cx, cy, cz in crosses]
    total = weights[0] + weights[1] + weights[2]
    return total > 0.0 and min(weights) >= -DEFAULT.enclosure_weight * total


def classify(tri: GeodesicTriangle) -> TriangleClass:
    """Classify a triangle by the trichotomy of its angle sum.

    Coplanar-with-E0 triangles not enclosing the centre have sum pi;
    otherwise sum - pi has the sign of the curvature.  The computed sum
    must agree with the class, else ConsistencyError (an implementation
    bug, never suppressed).
    """
    total = angle_sum(tri).total
    tol = DEFAULT.angle_sum
    if tri._is_coplanar and not encloses_center(tri):
        if abs(total - math.pi) > tol:
            raise ConsistencyError(
                f"coplanar triangle has angle sum {total}, expected pi"
            )
        return TriangleClass.SUM_EQUALS_PI
    sign = tri.kind.curvature
    if sign * (total - math.pi) < -tol:
        raise ConsistencyError(f"{tri.kind.value} angle sum {total} on the wrong side of pi")
    return TriangleClass.SUM_ABOVE_PI if sign > 0.0 else TriangleClass.SUM_BELOW_PI
