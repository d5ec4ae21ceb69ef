"""Geodesic triangles: interior angles, angle sums and their trichotomy.

A triangle is normalised on construction so its first vertex sits at the
base point.  The interior angle at the base point is the Euclidean angle
between the unit tangents of the two outgoing sides (the ambient metric is
the identity there); the angles at the other two vertices are obtained by
first moving that vertex to the base point with its normalising isometry.

Angle sums obey a strict trichotomy: S2xR sums are >= pi and H2xR sums are
<= pi, with equality exactly when the vertices are Euclid-coplanar with the
model centre E0 = (1 : 0 : 0 : 0) *and* the triangle does not enclose E0.
A coplanar S2xR triangle that winds around the centre lives on a flat
cylinder leaf and its angle sum lies strictly above pi; see ``classify``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import BASE_POINT, Geometry, _guard_member, require_member
from .exceptions import ConsistencyError, DegenerateError
from .geodesics import _geodesic_params, tangent_of
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
    """Vertices of a geodesic triangle, with a1 at the base point."""

    kind: Geometry
    a1: np.ndarray
    a2: np.ndarray
    a3: np.ndarray

    @property
    def vertices(self):
        return self.a1, self.a2, self.a3


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
    carries ``a1`` to the base point.

    Raises DegenerateError when two vertices coincide after normalisation.
    """
    return _geodesic_triangle(kind, *(require_member(kind, p) for p in (a1, a2, a3)))


def _geodesic_triangle(kind: Geometry, a1, a2, a3) -> GeodesicTriangle:
    """``geodesic_triangle`` of vertices already known to be model points."""
    move = _to_origin(kind, a1)
    b2 = apply_isometry(move, a2)
    b3 = apply_isometry(move, a3)
    for p, q in ((BASE_POINT, b2), (BASE_POINT, b3), (b2, b3)):
        scale = max(1.0, float(np.abs(p).max()), float(np.abs(q).max()))
        if np.abs(p - q).max() <= DEFAULT.vertex_gap * scale:
            raise DegenerateError("two triangle vertices coincide")
    return GeodesicTriangle(kind, BASE_POINT.copy(), b2, b3)


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


def _angle(t1: np.ndarray, t2: np.ndarray) -> float:
    return math.acos(float(np.clip(t1 @ t2, -1.0, 1.0)))


def vertex_angle(tri: GeodesicTriangle, i: int) -> float:
    """Interior angle at vertex ``i`` (1, 2 or 3), in (0, pi)."""
    if i not in (1, 2, 3):
        raise ValueError(f"vertex index must be 1, 2 or 3, got {i}")
    return _angle(*_vertex_tangents(tri, int(i)).values())


def angle_sum(tri: GeodesicTriangle) -> TriangleAngles:
    """All three interior angles and their sum."""
    frame = tangent_endpoints(tri)
    w1 = _angle(frame[(2, 0)], frame[(3, 0)])
    w2 = _angle(frame[(1, 2)], frame[(3, 2)])
    w3 = _angle(frame[(1, 3)], frame[(2, 3)])
    return TriangleAngles(w1, w2, w3, w1 + w2 + w3)


def coplanar_with_center(tri: GeodesicTriangle) -> bool:
    """True when the three vertices are Euclid-coplanar with the centre E0.

    E0 is the Cartesian origin, so the test is the vanishing of the triple
    product of the vertex position vectors, relative to their norms.
    """
    a1, a2, a3 = tri.vertices
    det = float(np.linalg.det(np.array([a1, a2, a3])))
    scale = float(np.linalg.norm(a1) * np.linalg.norm(a2) * np.linalg.norm(a3))
    return abs(det) <= DEFAULT.coplanar * scale


def encloses_center(tri: GeodesicTriangle) -> bool:
    """True when the vertices are coplanar with E0 and the Euclidean
    triangle they span contains E0.

    Only possible in S2xR: H2xR vertices all have x > 0 so their hull
    misses the origin.
    """
    if not coplanar_with_center(tri):
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
    if coplanar_with_center(tri) and not encloses_center(tri):
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
