"""Geodesic triangles: interior angles, angle sums and their trichotomy.

A triangle is normalised on construction so its first vertex sits at the
base point, by the closed form of the paper's normaliser (``_normalise``),
and computes its angles once, on first use.  The angles come from the
product structure of the geometry: a point splits into a fibre height f and
a point s on the surface factor,

    S2xR :  f = log |p|,     s = p / |p|,
    H2xR :  f = log sqrt(Q), s = p / sqrt(Q),  Q = (x - r)(x + r), r = hypot(y, z),

and the unit tangent at A toward B is (f_B - f_A, d_AB xi_AB) / l_AB, with
d_AB the surface distance, xi_AB the unit surface tangent at s_A toward s_B
(Euclidean, respectively Minkowski, form) and l_AB = hypot(f_B - f_A, d_AB).
The angle between two unit tangents u, v is 2 atan2(|u - v|, |u + v|), which
keeps full precision near 0 and pi where acos loses sqrt(eps) (Kahan,
"Miscalculating Area and Angles of a Needle-like Triangle").  ``_angle_sums``
does this for whole arrays of triangles, with no isometry and no inverse
problem.

The paper's method is kept as the reproduced method and cross-check:
``tangent_endpoints`` and ``vertex_angle`` move a vertex to the base point
with its normalising isometry and read the tangents off the inverse problem,
where the ambient metric is the identity.

Angle sums obey a strict trichotomy: S2xR sums are >= pi and H2xR sums are
<= pi, with equality exactly when the vertices are Euclid-coplanar with the
model centre E0 = (1 : 0 : 0 : 0) *and* the triangle does not enclose E0.
A coplanar S2xR triangle that winds around the centre lives on a flat
cylinder leaf and its angle sum lies strictly above pi; see ``classify``.
An S2xR side whose end points have antipodal surface points has no unique
geodesic: such triangles are degenerate.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core import BASE_POINT, Geometry, _fibre_norm, _guard_member, _split, require_member
from .exceptions import ConsistencyError, DegenerateError
from .geodesics import _geodesic_params, _surface_arc, _tangent_sq, tangent_of
from .isometries import _to_origin, apply_isometry
from .tolerances import DEFAULT

__all__ = [
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
]


@dataclass(frozen=True, eq=False)
class GeodesicTriangle:
    """Vertices of a geodesic triangle, with a1 at the base point: read-only
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
    """Build a triangle, normalising all vertices by the isometry that
    carries ``a1`` to the base point (the closed form ``_normalise``).

    Raises DegenerateError when two vertices coincide after normalisation.
    """
    return _geodesic_triangle(kind, *(require_member(kind, p) for p in (a1, a2, a3)))


def _geodesic_triangle(kind: Geometry, a1, a2, a3) -> GeodesicTriangle:
    """``geodesic_triangle`` of vertices already known to be model points."""
    b2, b3 = _normalise(kind, a1, np.array([a2, a3]))
    _require_distinct(BASE_POINT, b2, b3)
    return GeodesicTriangle(kind, BASE_POINT, b2, b3)


def _normalise(kind: Geometry, a, points):
    """Images of the (N, 3) ``points`` under the normaliser of ``a``, the
    linear map of ``to_origin`` in closed form.  With n = (y, z) / r,
    r = hypot(y, z) ((1, 0) if r = 0), and (c, s) = (x, r) / |a| (|a| from
    ``_fibre_norm``), components along e_x and n go to c p_x + sigma s p_n and
    c p_n - s p_x (sigma = +1 on S2xR, -1 on H2xR), the rest stays, and all
    is divided by |a|: the identity at the base point, bit for bit."""
    norm = float(_fibre_norm(kind, a))
    x, y, z = a
    r = float(np.hypot(y, z))  # the H2xR spread of ``_fibre_norm``, so c^2 - s^2 = 1
    ny, nz = (y / r, z / r) if r > 0.0 else (1.0, 0.0)
    sigma = 1.0 if kind is Geometry.S2R else -1.0
    c, s = x / norm, r / norm
    twist = (c - 1.0) * ny * nz
    # row i holds the image of e_i, as points are rows
    move = np.array([[c, -s * ny, -s * nz],
                     [sigma * s * ny, c * ny * ny + nz * nz, twist],
                     [sigma * s * nz, twist, c * nz * nz + ny * ny]])
    return points @ move / norm


def _require_distinct(a1, a2, a3) -> None:
    """Raise DegenerateError where two of the vertices, (3,) or (N, 3) arrays,
    coincide to within ``vertex_gap`` of their size (at least 1)."""
    for p, q in ((a1, a2), (a1, a3), (a2, a3)):
        scale = np.maximum(1.0, np.maximum(np.abs(p).max(axis=-1), np.abs(q).max(axis=-1)))
        if (np.abs(p - q).max(axis=-1) <= DEFAULT.vertex_gap * scale).any():
            raise DegenerateError("two triangle vertices coincide")


def tangent_endpoints(tri: GeodesicTriangle) -> dict[tuple[int, int], np.ndarray]:
    """The six unit tangents t_i^j at the base point.

    Key (i, j) is the tangent toward vertex i's image under the normaliser
    of vertex j; j = 0 means no transform (sides leaving the base vertex).
    Consistency of the frame is enforced: the tangent toward a vertex and
    the tangent toward the image of the base point under that vertex's
    normaliser must be antipodal.
    """
    tangents = {key: t for i in (1, 2, 3) for key, t in _vertex_tangents(tri, i).items()}
    for out, back in (((2, 0), (1, 2)), ((3, 0), (1, 3))):
        residual = float(np.abs(tangents[out] + tangents[back]).max())
        if residual > DEFAULT.isometry:
            raise ConsistencyError(
                f"tangents {out} and {back} are not antipodal (residual {residual:.2e})"
            )
    return tangents


def _vertex_tangents(tri: GeodesicTriangle, i: int) -> dict[tuple[int, int], np.ndarray]:
    """Tangents at vertex ``i`` toward the other two, keyed as in ``tangent_endpoints``;
    vertices 2 and 3 are computed images, re-checked before one is moved."""
    others = [(n, p) for n, p in enumerate(tri.vertices, start=1) if n != i]
    if i == 1:
        return {(n, 0): tangent_of(_geodesic_params(tri.kind, p)) for n, p in others}
    _guard_member(tri.kind, tri.vertices[i - 1])
    move = _to_origin(tri.kind, tri.vertices[i - 1])
    return {(n, i): tangent_of(_geodesic_params(tri.kind, apply_isometry(move, p)))
            for n, p in others}


def _angle(t1, t2):
    """Angle between unit vectors, in Kahan's atan2 form."""
    return 2.0 * math.atan2(float(np.linalg.norm(t1 - t2)), float(np.linalg.norm(t1 + t2)))


#: the frame keys of the two tangents at vertex 1, 2 and 3 (see ``tangent_endpoints``)
_FRAME_PAIRS = (((2, 0), (3, 0)), ((1, 2), (3, 2)), ((1, 3), (2, 3)))


def _frame_angles(frame) -> TriangleAngles:
    """The paper's angles: the three interior angles read off the tangent frame."""
    w1, w2, w3 = (_angle(frame[a], frame[b]) for a, b in _FRAME_PAIRS)
    return TriangleAngles(w1, w2, w3, w1 + w2 + w3)


def vertex_angle(tri: GeodesicTriangle, i: int) -> float:
    """Interior angle at vertex ``i`` (1, 2 or 3), in (0, pi), by the paper's
    method: the vertex is moved to the base point by its normaliser."""
    if i not in (1, 2, 3):
        raise ValueError(f"vertex index must be 1, 2 or 3, got {i}")
    return _angle(*_vertex_tangents(tri, int(i)).values())


def angle_sum(tri: GeodesicTriangle) -> TriangleAngles:
    """All three interior angles and their sum.

    Raises DegenerateError for an S2xR side on the cut locus and DomainError
    for a vertex that rounding left outside the model.
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


def _coplanar(a1, a2, a3) -> bool:
    """``coplanar_with_center`` of three points (scale-invariant in each)."""
    det = float(np.linalg.det(np.array([a1, a2, a3])))
    scale = float(np.linalg.norm(a1) * np.linalg.norm(a2) * np.linalg.norm(a3))
    return abs(det) <= DEFAULT.coplanar * scale


def encloses_center(tri: GeodesicTriangle) -> bool:
    """True when the vertices are coplanar with E0 and the Euclidean
    triangle they span contains E0.

    Only possible in S2xR: H2xR vertices all have x > 0 so their hull
    misses the origin.
    """
    if not tri._is_coplanar:
        return False
    a1, a2, a3 = tri.vertices
    # barycentric solve of 0 = l1 a1 + l2 a2 + l3 a3, sum(l) = 1
    m = np.vstack([np.array([a1, a2, a3]).T, np.ones(3)])
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
