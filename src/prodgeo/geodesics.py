"""Unit-speed geodesics from the base point (1 : 1 : 0 : 0).

Every geodesic through the base point is described by direction angles
(u, v) and an arc-length parameter tau:

    S2xR :  x = e^(tau sin v) cos(tau cos v)
            y = e^(tau sin v) sin(tau cos v) cos u
            z = e^(tau sin v) sin(tau cos v) sin u

    H2xR :  the same with cosh / sinh replacing cos / sin of tau cos v,

with u in (-pi, pi], v in [-pi/2, pi/2] and tau >= 0.  The curve is the
product of a constant-speed circle (respectively hyperbolic line) in the
surface factor with a constant-speed fibre translation.

The inverse problem, point -> (u, v, tau), is the product split ``core._split``
(fibre height L = log sqrt(Q), Q the fibre quadratic form, surface point
s = p / sqrt(Q)) and the surface arc w from (1, 0, 0) to s (``_arc``, also
read by ``distance`` and triangles; on S2xR the principal arc, w in [0, pi]):
v = atan2(L, w), tau = hypot(L, w) and u = atan2(z, y); on the fibre axis
(w = 0) this is v = +-pi/2, tau = |L|, with u = 0.
For S2xR the principal arc makes the returned geodesic the shortest one;
geodesics that wind further around the sphere factor reach the same point
with larger tau.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .core import (_BASE, Geometry, _count, _guard_chart, _memory_for, _point, _product_points,
                   _real, _split, np)
from .exceptions import DomainError, PrecondError
from .tolerances import DEFAULT

__all__ = [
    "GeodesicParams",
    "geodesic_point",
    "geodesic_params",
    "tangent_of",
    "distance",
    "sample_curve",
]


class GeodesicParams(NamedTuple):
    """Direction angles and arc length of a geodesic from the base point."""

    u: float
    v: float
    tau: float

    @classmethod
    def normalized(cls, u: float, v: float, tau: float) -> "GeodesicParams":
        """Read (``core._real``), wrap u into (-pi, pi], clamp v's overshoot, check tau >= 0."""
        u, v, tau = _real(u, "u"), _real(v, "v"), _real(tau, "tau")
        if not (math.isfinite(u) and math.isfinite(v) and math.isfinite(tau)):
            raise DomainError(f"geodesic parameters must be finite, got ({u}, {v}, {tau})")
        if tau < 0.0:
            raise DomainError(f"arc length must be non-negative, got {tau}")
        if abs(v) > math.pi / 2:
            if abs(v) - math.pi / 2 > DEFAULT.v_clamp:
                raise DomainError(f"direction angle v={v} outside [-pi/2, pi/2]")
            v = math.copysign(math.pi / 2, v)
        u = math.remainder(u, 2.0 * math.pi)
        if u <= -math.pi:
            u = math.pi
        return cls(u, v, tau)


def _triple(g) -> tuple:
    """(u, v, tau) of ``g``, as given; DomainError naming it unless a sequence of three."""
    try:
        u, v, tau = g
    except (TypeError, ValueError):
        raise DomainError(f"need geodesic parameters (u, v, tau), got {g!r}") from None
    return u, v, tau


def geodesic_point(kind: Geometry, g) -> np.ndarray:
    """Evaluate the closed-form geodesic at arc length ``g.tau``.

    The S2xR curve has norm e^(tau sin v) > 0 and the H2xR curve stays in the
    open cone, but a point that overflows, underflows to the centre or, deep in
    the H2xR cone (tau cos v above about 19), rounds onto it raises DomainError:
    every point returned satisfies ``contains``.
    """
    return _endpoints(kind, [g])[0]


def _endpoints(kind: Geometry, params) -> np.ndarray:
    """``geodesic_point`` of a sequence of parameter triples, as one (n, 3) array."""
    rows = [GeodesicParams.normalized(*_triple(g)) for g in params]
    u, v, tau = np.array(rows).reshape(-1, 3).T
    return _points(kind, u, v, tau)


def _points(kind: Geometry, u, v, taus: np.ndarray) -> np.ndarray:
    """The closed form, core's product chart at fibre height tau sin v and
    surface arc tau cos v, at the arc lengths ``taus`` along normalised
    directions (u, v): a (len(taus), 3) array; u and v are floats (one
    geodesic) or arrays like ``taus`` (one geodesic per row).  DomainError
    (``core._guard_chart``) names the (u, v, tau) of the first non-member."""
    points = _product_points(kind, taus * np.sin(v), taus * np.cos(v), u)
    return _guard_chart(kind, points, (u, v, taus), "geodesic parameters")


def geodesic_params(kind: Geometry, p) -> GeodesicParams:
    """Solve the inverse problem: parameters of the geodesic from the base
    point to ``p``.

    The forward map reproduces ``p`` to within a few ulps except deep in the
    H2xR cone (tau cos v >> 1) where the fibre split log sqrt(x^2 - y^2 - z^2)
    is intrinsically ill-conditioned in double precision.

    Raises DomainError for non-members and for the base point itself, where
    the direction is undefined.
    """
    return _geodesic_params(kind, _point(p))


def _geodesic_params(kind: Geometry, p: tuple) -> GeodesicParams:
    """``geodesic_params`` of a float triple, membership included (a normaliser's image may
    round outside): the split and ``_arc`` from the base surface point, as in ``distance``."""
    length, s = _split(kind, p)
    w = _arc(kind, _BASE, s)[0]
    if w == 0.0 and length == 0.0:
        raise DomainError("the base point has no defined geodesic direction")
    # u degenerates on the fibre axis (w = 0: v = +-pi/2, tau = |L|) and on
    # the S2xR antipodal axis (y = z = 0, x < 0); any value parametrises a
    # geodesic through such a point, take 0
    u = math.atan2(p[2], p[1]) if (p[1] != 0.0 or p[2] != 0.0) and w > 0.0 else 0.0
    return GeodesicParams(u, math.atan2(length, w), math.hypot(length, w))


def tangent_of(g) -> np.ndarray:
    """Unit tangent at the base point, (sin v, cos v cos u, cos v sin u).

    These are the Cartesian components of the geodesic's initial velocity; the ambient
    metric at the base point is the identity, so Euclidean angles between such tangents
    are the geometric ones.  u and v are read as given; DomainError unless both are finite.
    """
    u, v, _ = _triple(g)
    u, v = _real(u, "u"), _real(v, "v")
    if not (math.isfinite(u) and math.isfinite(v)):
        raise DomainError(f"direction angles must be finite, got ({u}, {v})")
    return np.array(_tangent((u, v)))


def _tangent(g) -> tuple[float, float, float]:
    """``tangent_of`` of trusted angles (u, v, ...), finite floats, as a float triple."""
    u, v = g[0], g[1]
    return math.sin(v), math.cos(v) * math.cos(u), math.cos(v) * math.sin(u)


def distance(kind: Geometry, p1, p2) -> float:
    """Arc length of the shortest geodesic between two model points:
    hypot(f2 - f1, d), with f the fibre heights and d the surface distance
    (``_arc``); d = pi between antipodal S2xR surface points.
    Each split checks its point, p1's before p2 is read."""
    p1 = _point(p1)
    f1, s1 = _split(kind, p1)
    p2 = _point(p2)
    if p1 == p2:
        return 0.0
    f2, s2 = _split(kind, p2)
    return math.hypot(f2 - f1, _arc(kind, s1, s2)[0])


#: smallest positive normal double: the divisor floor of a zero surface arc or angle
_TINY = sys.float_info.min


def _arc(kind: Geometry, p: list, q: list) -> tuple[float, list]:
    """The surface arc between two surface points as float lists: its length
    and the unit normal both ends read, p x q over its length sin (sinh), on
    H2xR the Lorentz cross J (p x q), J = diag(1, -1, -1): orthogonal to p and
    q in the Minkowski form; 0 and a zero normal for equal points.  The length
    is asinh(sin) on H2xR and atan2(sin, p . q) on S2xR, pi for points
    antipodal to rounding."""
    (px, py, pz), (qx, qy, qz) = p, q
    nx, ny, nz = (py * qz - pz * qy, kind.curvature * (pz * qx - px * qz),
                  kind.curvature * (px * qy - py * qx))
    sin = _tangent_len(kind, p, [nx, ny, nz])
    dist = (math.atan2(sin, px * qx + (py * qy + pz * qz)) if kind is Geometry.S2R
            else math.asinh(sin))
    by = sin + _TINY
    return dist, [nx / by, ny / by, nz / by]


def _tangent_sq(kind: Geometry, s: list, v: list) -> float:
    """Squared length of the surface tangent ``v`` at ``s``, both float lists.

    On the hyperboloid the Minkowski length of v, orthogonal to s, is
    (vy^2 + vz^2 + (sy vz - sz vy)^2) / sx^2: a sum of squares, so it cannot
    cancel to a negative value.
    """
    if kind is Geometry.S2R:
        return v[0] * v[0] + v[1] * v[1] + v[2] * v[2]
    twist = s[1] * v[2] - s[2] * v[1]
    return (v[1] * v[1] + v[2] * v[2] + twist * twist) / (s[0] * s[0])


def _tangent_len(kind: Geometry, s: list, v: list) -> float:
    """The root of ``_tangent_sq`` by hypot, which squares nothing: a
    tangent below about 1e-162 keeps its length, not 0."""
    if kind is Geometry.S2R:
        return math.hypot(v[0], v[1], v[2])
    return math.hypot(v[1], v[2], s[1] * v[2] - s[2] * v[1]) / abs(s[0])


def sample_curve(kind: Geometry, g, n: int) -> np.ndarray:
    """``n`` points of the geodesic at equal arc-length steps in [0, tau],
    as an (n, 3) array computed in one batch.

    Raises PrecondError unless ``n`` is an integer in [2, sys.maxsize // 48] within memory, and
    DomainError, as ``geodesic_point`` does, naming the first bad sample.
    """
    n = _count(n, 2, "samples", PrecondError)
    u, v, tau = GeodesicParams.normalized(*_triple(g))
    e = math.frexp(tau)[1]  # steps of tau 2^-e < 1 do not overflow before their division
    with _memory_for(n, "samples", PrecondError):
        return _points(kind, u, v, np.ldexp(math.ldexp(tau, -e) * np.arange(n) / (n - 1), e))

