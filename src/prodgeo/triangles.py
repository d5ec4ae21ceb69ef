"""Geodesic triangles: interior angles, angle sums and their trichotomy.

A triangle keeps the vertices its caller gave, as float triples, and
computes its angles once, on first use.  The angles come from the product
structure of the geometry: a point splits into a fibre height f and a point s on the
surface factor,

    S2xR :  f = log |p|,     s = p / |p|,
    H2xR :  f = log sqrt(Q), s = p / sqrt(Q),  Q = (x - r)(x + r), r = hypot(y, z),

and the side from A to B leaves A at the fibre angle atan2(d_AB, f_B - f_A),
d_AB the surface distance, along its unit normal s_A x s_B (Lorentz on H2)
turned a right angle; the far end reads the same normal, so the two ends of a
side cannot disagree.  Each interior angle is a closed form in the fibre angles
of its two sides and the surface angle between them, 2 atan2(h, k) with h and
k half the lengths of the difference and the sum of the unit tangents, which
keeps full precision near 0 and pi where acos loses sqrt(eps) (Kahan,
"Miscalculating Area and Angles of a Needle-like Triangle").  Its constants are
Python floats (``_closed_form``), with no isometry and no inverse problem:
angles are isometry-invariant, so no vertex is moved (the paper's method,
which moves them, is ``isometries``).  ``_angles_at`` evaluates it with vertex
3 moved u along its fibre (triangles at u = 0, sweeps at log t), in ``math``
for a float u and numpy for an array of u; ``_slope_at`` is dS/du, in floats.

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
from functools import cached_property
from typing import NamedTuple

from .core import Geometry, _Record, _require_record, _split, np, require_member
from .exceptions import ConsistencyError, DegenerateError
from .geodesics import _TINY, _arc, _tangent_sq
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


class GeodesicTriangle(_Record):
    """Vertices of a geodesic triangle as the caller gave them, read once
    into immutable float triples, so its angles and coplanarity, computed
    once, cannot go stale.

    Raises DomainError naming the first vertex outside the model and
    DegenerateError when two vertices coincide (see ``_require_distinct``).
    """

    _fields = ("kind", "a1", "a2", "a3")

    def __init__(self, kind: Geometry, a1, a2, a3):
        a1, a2, a3 = (require_member(kind, a) for a in (a1, a2, a3))
        _require_distinct((a1, a2, a3))
        vars(self).update(kind=kind, a1=a1, a2=a2, a3=a3)

    @property
    def vertices(self):
        return self.a1, self.a2, self.a3

    @cached_property
    def _angles(self) -> TriangleAngles:
        """The closed form with vertex 3 where it is: ``_angles_at`` at u = 0."""
        splits = (_split(self.kind, a) for a in self.vertices)
        return _angles_at(_closed_form(self.kind, *splits), 0.0)

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
    """Build a triangle of three model points, kept as given: the
    ``GeodesicTriangle``, which checks them."""
    return GeodesicTriangle(kind, a1, a2, a3)


def _require_distinct(vertices) -> None:
    """Raise DegenerateError where two ``vertices``, float triples, differ
    by at most ``vertex_gap`` max(|p|, |q|) in each coordinate (the pair's
    own max norms: scale-invariant); a gap that overflows is inf, and apart."""
    for j, (u, v, w) in enumerate(vertices):
        for x, y, z in vertices[:j]:
            if (max(abs(x - u), abs(y - v), abs(z - w))
                    <= DEFAULT.vertex_gap * max(abs(x), abs(y), abs(z), abs(u), abs(v), abs(w))):
                raise DegenerateError("two triangle vertices coincide")


def angle_sum(tri: GeodesicTriangle) -> TriangleAngles:
    """All three interior angles and their sum, from the triangle's own
    vertices.

    Raises DegenerateError for an S2xR side on the cut locus.
    """
    _require_record(tri, GeodesicTriangle)
    return tri._angles


def _closed_form(kind: Geometry, split1: tuple, split2: tuple, split3: tuple) -> tuple:
    """The constants of a triangle's angles, in floats, from the splits
    (fibre height, surface point) of its vertices: the fibre offsets
    f3 - f1 and f3 - f2 of the rises of sides 1-3 and 2-3, their surface
    arcs d13 and d23, the fibre angles of side 1-2 at a1 and at a2, and at
    each vertex sin^2 and cos^2 of half the angle between its sides'
    normals (``_arc``; -n12 at a2).  Moving vertex 3 along its fibre changes
    the two rises only (``_angles_at`` and ``_slope_at`` read this tuple).

    Raises DegenerateError where two S2xR surface points are antipodal to
    within ``DEFAULT.cut_locus``: that side is not unique.
    """
    (f1, s1), (f2, s2), (f3, s3) = split1, split2, split3
    d13, n13 = _arc(kind, s1, s3)
    d23, n23 = _arc(kind, s2, s3)
    d12, n12 = _arc(kind, s1, s2)
    if kind is Geometry.S2R and max(d12, d13, d23) >= math.pi - DEFAULT.cut_locus:
        raise DegenerateError("two vertices have antipodal S2 points: the side is not unique")
    halves = [_half_angle(kind, *ends)
              for ends in ((s1, n12, n13), (s2, [-c for c in n12], n23), (s3, n13, n23))]
    return (f3 - f1, f3 - f2, d13, d23,
            math.atan2(d12, f2 - f1), math.atan2(d12, f1 - f2), *halves)


def _half_angle(kind: Geometry, s: list, one: list, two: list) -> tuple[float, float]:
    """sin^2 and cos^2 of half the angle between unit surface directions at
    ``s``: a quarter of the squared lengths of their difference and sum."""
    return (0.25 * _tangent_sq(kind, s, [a - b for a, b in zip(one, two)]),
            0.25 * _tangent_sq(kind, s, [a + b for a, b in zip(one, two)]))


def _chords(xp, a, b, cross, half: tuple) -> tuple:
    """h = |u - v| / 2 and k = |u + v| / 2 of the unit tangents of ``_angle``,
    over ``xp`` (``math`` or numpy), from sums of terms >= 0, with ``cross`` =
    sin a sin b and ``half`` = (sin^2(g/2), cos^2(g/2)): h^2 = sin^2((a - b)/2)
    + cross sin^2(g/2) and k^2 = cos^2((a + b)/2) + cross cos^2(g/2)."""
    half_sin, half_cos = half
    return (xp.sqrt(xp.sin(0.5 * (a - b)) ** 2 + cross * half_sin),
            xp.sqrt(xp.cos(0.5 * (a + b)) ** 2 + cross * half_cos))


def _angle(xp, a, b, cross, half: tuple):
    """The angle between unit tangents with fibre angles a and b whose
    surface parts meet at an angle g: 2 atan2(h, k) (``_chords``)."""
    return 2.0 * xp.atan2(*_chords(xp, a, b, cross, half))


def _partial(a: float, b: float, half: tuple) -> float:
    """The partial derivative of ``_angle`` w in b, in floats: from
    cos w = cos a cos b + sin a sin b cos g, it is
    (sin(b - a) + 2 sin a cos b sin^2(g / 2)) / sin w, sin w = 2 h k."""
    sin_a = math.sin(a)
    h, k = _chords(math, a, b, sin_a * math.sin(b), half)
    by_sin = 0.5 / (h * k + _TINY)  # 1 / sin w, as h^2 + k^2 = 1; no 0 / 0
    return (math.sin(b - a) + 2.0 * sin_a * math.cos(b) * half[0]) * by_sin


def _angles_at(part: tuple, u) -> TriangleAngles:
    """The angles of the closed form ``part`` with vertex 3 moved u along its
    fibre, in ``math`` for a float u and in numpy, as arrays, for an array of u.
    The sides toward a3 leave a1 and a2 at the fibre angles b = atan2(d, r) of
    their rises r = u + f3 - f1 and u + f3 - f2, and reach a3 at the supplements
    pi - b13 and pi - b23, which meet at the angle between b13 and b23."""
    xp = math if type(u) is float else np
    off13, off23, d13, d23, at1, at2, half1, half2, half3 = part
    b13, b23 = xp.atan2(d13, u + off13), xp.atan2(d23, u + off23)
    s13, s23 = xp.sin(b13), xp.sin(b23)
    w1 = _angle(xp, at1, b13, math.sin(at1) * s13, half1)
    w2 = _angle(xp, at2, b23, math.sin(at2) * s23, half2)
    w3 = _angle(xp, b13, b23, s13 * s23, half3)
    return TriangleAngles(w1, w2, w3, w1 + w2 + w3)


def _slope_at(part: tuple, u: float) -> float:
    """dS/du of ``_angles_at`` at a float u, by the chain rule through the
    fibre angles b = atan2(d, r), db/du = -d / (r^2 + d^2)."""
    off13, off23, d13, d23, at1, at2, half1, half2, half3 = part
    r13, r23 = u + off13, u + off23
    b13, b23 = math.atan2(d13, r13), math.atan2(d23, r23)
    w1_b13, w2_b23 = _partial(at1, b13, half1), _partial(at2, b23, half2)
    w3_b13 = _partial(b23, b13, half3)  # w3 is symmetric in b13 and b23
    w3_b23 = _partial(b13, b23, half3)
    return (-(w1_b13 + w3_b13) * d13 / (r13 * r13 + d13 * d13)
            - (w2_b23 + w3_b23) * d23 / (r23 * r23 + d23 * d23))


def coplanar_with_center(tri: GeodesicTriangle) -> bool:
    """True when the three vertices are Euclid-coplanar with the centre E0.

    E0 is the Cartesian origin, so the test is the vanishing of the triple
    product of the vertex position vectors, relative to their norms.
    """
    _require_record(tri, GeodesicTriangle)
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
    """One point's floats over its largest |coordinate|: no product overflows."""
    x, y, z = a
    big = max(abs(x), abs(y), abs(z))
    return x / big, y / big, z / big


def encloses_center(tri: GeodesicTriangle) -> bool:
    """True when the vertices are coplanar with E0 and the Euclidean
    triangle they span contains E0.

    Only possible in S2xR: H2xR vertices all have x > 0 so their hull
    misses the origin.  A sign test in floats (``_encloses``), no solve.
    """
    return coplanar_with_center(tri) and _encloses(*map(_unit_row, tri.vertices))


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
