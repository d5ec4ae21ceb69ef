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

The per-triangle kernels run on float components, with no comprehension, generator,
lambda, ``zip`` or ``map``: under Python 3.11 each runs as a frame of its own (PEP 709
inlines list comprehensions from 3.12 only), once about 40% of a triangle's angles.

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
        a1, a2, a3 = require_member(kind, a1), require_member(kind, a2), require_member(kind, a3)
        _require_distinct((a1, a2, a3))
        vars(self).update(kind=kind, a1=a1, a2=a2, a3=a3)

    @property
    def vertices(self):
        return self.a1, self.a2, self.a3

    @cached_property
    def _angles(self) -> TriangleAngles:
        """The closed form with vertex 3 where it is: ``_angles_at`` at u = 0."""
        kind = self.kind
        return _angles_at(_closed_form(kind, _split(kind, self.a1), _split(kind, self.a2),
                                       _split(kind, self.a3)), 0.0)

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
    for j in range(1, len(vertices)):
        u, v, w = vertices[j]
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
    return (f3 - f1, f3 - f2, d13, d23, math.atan2(d12, f2 - f1), math.atan2(d12, f1 - f2),
            _half_angle(kind, s1, n12, n13),
            _half_angle(kind, s2, [-n12[0], -n12[1], -n12[2]], n23),
            _half_angle(kind, s3, n13, n23))


def _half_angle(kind: Geometry, s: list, one: list, two: list) -> tuple[float, float]:
    """sin^2 and cos^2 of half the angle between unit surface directions at
    ``s``: a quarter of the squared lengths of their difference and sum."""
    (x1, y1, z1), (x2, y2, z2) = one, two
    return (0.25 * _tangent_sq(kind, s, [x1 - x2, y1 - y2, z1 - z2]),
            0.25 * _tangent_sq(kind, s, [x1 + x2, y1 + y2, z1 + z2]))


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


def _partial(a: float, b: float, sin_a: float, cos_b: float, chords: tuple, half: tuple) -> float:
    """The partial derivative of ``_angle`` w in b, in floats, from sin a, cos b and
    w's ``_chords`` h and k: from cos w = cos a cos b + sin a sin b cos g, it is
    (sin(b - a) + 2 sin a cos b sin^2(g / 2)) / sin w, sin w = 2 h k."""
    by_sin = 0.5 / (chords[0] * chords[1] + _TINY)  # 1 / sin w, as h^2 + k^2 = 1; no 0 / 0
    return (math.sin(b - a) + 2.0 * sin_a * cos_b * half[0]) * by_sin


def _angles_at(part: tuple, u) -> TriangleAngles:
    """The angles of the closed form ``part`` with vertex 3 moved u along its
    fibre, in ``math`` for a float u and in numpy, as arrays, for an array of u.
    The sides toward a3 leave a1 and a2 at the fibre angles b = atan2(d, r) of
    their rises r = u + f3 - f1 and u + f3 - f2, and reach a3 at the supplements
    pi - b13 and pi - b23, which meet at the angle between b13 and b23: ``_angle``
    of the rows a = (at1, at2, b13), b = (b13, b23, b23), one call a row in ``math``
    and one over them all, as (3, n) arrays with a and b overlapping, in numpy."""
    off13, off23, d13, d23, at1, at2, half1, half2, half3 = part
    if type(u) is float:
        b13, b23 = math.atan2(d13, u + off13), math.atan2(d23, u + off23)
        s13, s23 = math.sin(b13), math.sin(b23)
        w1 = _angle(math, at1, b13, math.sin(at1) * s13, half1)
        w2 = _angle(math, at2, b23, math.sin(at2) * s23, half2)
        w3 = _angle(math, b13, b23, s13 * s23, half3)
        return TriangleAngles(w1, w2, w3, w1 + w2 + w3)
    rows, cross = np.empty((5, len(u))), np.empty((3, len(u)))  # rows at1, at2, b13, b23, b23
    rows[0], rows[1] = at1, at2
    np.arctan2([[d13], [d23]], np.add.outer((off13, off23), u, out=rows[2:4]), out=rows[2:4])
    rows[4] = rows[3]
    np.sin(rows[2:4], out=cross[:2])
    np.multiply(cross[0], cross[1], out=cross[2])
    cross[:2] *= [[math.sin(at1)], [math.sin(at2)]]
    w1, w2, w3 = _angle(np, rows[:3], rows[2:], cross, np.array((half1, half2, half3)).T[..., None])
    return TriangleAngles(w1, w2, w3, w1 + w2 + w3)


def _slope_at(part: tuple, u: float) -> float:
    """dS/du of ``_angles_at`` at a float u, by the chain rule through the
    fibre angles b = atan2(d, r), db/du = -d / (r^2 + d^2), with sin b and cos b formed once."""
    off13, off23, d13, d23, at1, at2, half1, half2, half3 = part
    r13, r23 = u + off13, u + off23
    b13, b23 = math.atan2(d13, r13), math.atan2(d23, r23)
    s13, s23, c13, c23 = math.sin(b13), math.sin(b23), math.cos(b13), math.cos(b23)
    sin1, sin2 = math.sin(at1), math.sin(at2)
    w1_b13 = _partial(at1, b13, sin1, c13, _chords(math, at1, b13, sin1 * s13, half1), half1)
    w2_b23 = _partial(at2, b23, sin2, c23, _chords(math, at2, b23, sin2 * s23, half2), half2)
    chords3 = _chords(math, b13, b23, s13 * s23, half3)  # w3's, symmetric in b13, b23 to the bit
    w3_b13 = _partial(b23, b13, s23, c13, chords3, half3)
    w3_b23 = _partial(b13, b23, s13, c23, chords3, half3)
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
    (x1, y1, z1), (x2, y2, z2), (x3, y3, z3) = _unit_row(a1), _unit_row(a2), _unit_row(a3)
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
    return coplanar_with_center(tri) and _encloses(*tri.vertices)


def _encloses(a1, a2, a3) -> bool:
    """Whether E0 lies in the triangle of coplanar points: with c_i the cross
    product of the unit rows (``_unit_row``) other than row i and n the first
    largest c_i (their sum cancels where the rows lie on one line), the
    barycentric weights of E0 are the c_i . n over their sum."""
    (x1, y1, z1), (x2, y2, z2), (x3, y3, z3) = _unit_row(a1), _unit_row(a2), _unit_row(a3)
    c1 = (y2 * z3 - z2 * y3, z2 * x3 - x2 * z3, x2 * y3 - y2 * x3)
    c2 = (y3 * z1 - z3 * y1, z3 * x1 - x3 * z1, x3 * y1 - y3 * x1)
    c3 = (y1 * z2 - z1 * y2, z1 * x2 - x1 * z2, x1 * y2 - y1 * x2)
    nx, ny, nz = c1
    for c in (c2, c3):
        if c[0] * c[0] + c[1] * c[1] + c[2] * c[2] > nx * nx + ny * ny + nz * nz:
            nx, ny, nz = c
    w1, w2, w3 = (c1[0] * nx + c1[1] * ny + c1[2] * nz, c2[0] * nx + c2[1] * ny + c2[2] * nz,
                  c3[0] * nx + c3[1] * ny + c3[2] * nz)
    total = w1 + w2 + w3
    return total > 0.0 and min(w1, w2, w3) >= -DEFAULT.enclosure_weight * total


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
