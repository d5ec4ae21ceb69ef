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

The inverse problem, point -> (u, v, tau), splits the fibre part
L = log sqrt(Q) (Q the fibre quadratic form, sqrt(Q) from ``core._fibre_norm``)
from the surface arc

    S2xR :  w = atan2(sqrt(y^2 + z^2), x)      (principal arc, w in [0, pi])
    H2xR :  w = asinh(sqrt(y^2 + z^2) / sqrt(Q))

after which v = atan2(L, w), tau = hypot(L, w) and u = atan2(z, y); on the
fibre axis (w = 0) this is v = +-pi/2, tau = |L|, with u = 0.
For S2xR the principal arc makes the returned geodesic the shortest one;
geodesics that wind further around the sphere factor reach the same point
with larger tau.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

from .core import Geometry, _fibre_norm, _point, _require_geometry, _split, model_point, np
from .exceptions import DomainError, PrecondError
from .tolerances import DEFAULT
from .triangles import _arc

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
        """Wrap u into (-pi, pi], clamp v's roundoff overshoot, check tau >= 0."""
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


def geodesic_point(kind: Geometry, g) -> np.ndarray:
    """Evaluate the closed-form geodesic at arc length ``g.tau``.

    The S2xR curve has Euclidean norm e^(tau sin v) > 0, so it never meets
    the excluded centre, and the H2xR curve stays in the open cone.  Raises
    DomainError where a coordinate overflows double precision or the point
    underflows to the centre.
    """
    return _endpoints(kind, [g])[0]


def _endpoints(kind: Geometry, params) -> np.ndarray:
    """``geodesic_point`` of a sequence of parameter triples, as one (n, 3) array."""
    u, v, tau = np.array([GeodesicParams.normalized(*g) for g in params]).reshape(-1, 3).T
    return _points(kind, u, v, tau)


def _points(kind: Geometry, u, v, taus: np.ndarray) -> np.ndarray:
    """The closed form at the arc lengths ``taus`` along normalised
    directions (u, v), as a (len(taus), 3) array; u and v are floats (one
    geodesic) or arrays like ``taus`` (one geodesic per row).

    Raises DomainError at the first row where a coordinate overflows double
    precision or the point underflows to the centre.
    """
    _require_geometry(kind)
    w = taus * np.cos(v)
    points = np.empty((len(taus), 3))
    with np.errstate(all="ignore"):
        scale = np.exp(taus * np.sin(v))
        if kind is Geometry.S2R:
            along, across = np.cos(w), np.sin(w)
        else:
            along, across = np.cosh(w), np.sinh(w)
        points[:, 0] = scale * along
        points[:, 1] = scale * (across * np.cos(u))
        points[:, 2] = scale * (across * np.sin(u))
        size = np.abs(points).max(axis=1)
    # NaN (inf * 0) fails both comparisons
    bad = ~((size > 0.0) & (size < math.inf))
    if bad.any():
        u, v, tau = (c[np.argmax(bad)].item() for c in np.broadcast_arrays(u, v, taus))
        raise DomainError(f"the geodesic point at ({u}, {v}, {tau}) is out of double range")
    return points


def geodesic_params(kind: Geometry, p) -> GeodesicParams:
    """Solve the inverse problem: parameters of the geodesic from the base
    point to ``p``.

    The forward map reproduces ``p`` to within a few ulps except deep in the
    H2xR cone (tau cos v >> 1) where the fibre split log sqrt(x^2 - y^2 - z^2)
    is intrinsically ill-conditioned in double precision.

    Raises DomainError for non-members and for the base point itself, where
    the direction is undefined.
    """
    return _geodesic_params(kind, model_point(p))


def _geodesic_params(kind: Geometry, p: np.ndarray) -> GeodesicParams:
    """``geodesic_params`` of a normalised point, membership included: the
    point may be an image under a normaliser that rounding left outside."""
    norm = _fibre_norm(kind, p)
    x, y, z = p
    spread = math.hypot(y, z)
    length = math.log(norm)
    w = math.atan2(spread, x) if kind is Geometry.S2R else math.asinh(spread / norm)
    if w == 0.0 and length == 0.0:
        raise DomainError("the base point has no defined geodesic direction")
    # u degenerates on the fibre axis (w = 0: v = +-pi/2, tau = |L|) and on
    # the S2xR antipodal axis (y = z = 0, x < 0); any value parametrises a
    # geodesic through such a point, take 0
    u = math.atan2(z, y) if spread > 0.0 and w > 0.0 else 0.0
    return GeodesicParams(u, math.atan2(length, w), math.hypot(length, w))


def tangent_of(g) -> np.ndarray:
    """Unit tangent at the base point, (sin v, cos v cos u, cos v sin u).

    These are the Cartesian components of the geodesic's initial velocity;
    the ambient metric at the base point is the identity, so Euclidean
    angles between such tangents are the geometric ones.
    """
    u, v, _ = g
    return np.array([
        math.sin(v),
        math.cos(v) * math.cos(u),
        math.cos(v) * math.sin(u),
    ])


def distance(kind: Geometry, p1, p2) -> float:
    """Arc length of the shortest geodesic between two model points:
    hypot(f2 - f1, d), with f the fibre heights and d the surface distance
    (``triangles._arc``); d = pi between antipodal S2xR surface points.
    Each split checks its point, p1's before p2 is read."""
    p1 = _point(p1)
    f1, s1 = _split(kind, p1)
    p2 = _point(p2)
    if p1 == p2:
        return 0.0
    f2, s2 = _split(kind, p2)
    return math.hypot(f2 - f1, _arc(kind, s1, s2)[0])


def sample_curve(kind: Geometry, g, n: int) -> np.ndarray:
    """``n`` points of the geodesic at equal arc-length steps in [0, tau],
    as an (n, 3) array computed in one batch.

    Raises PrecondError unless ``n`` is an integer >= 2, and DomainError,
    as ``geodesic_point`` does, at the first sample out of double range.
    """
    n = _count(n, 2, "samples")
    u, v, tau = GeodesicParams.normalized(*g)
    return _points(kind, u, v, tau * np.arange(n) / (n - 1))


def _count(value, least: int, what: str) -> int:
    """``value`` as an integer >= ``least`` by ``operator.index``, as
    ``SweepSpec`` reads samples; PrecondError otherwise, 2.5 and "3" included."""
    try:
        count = operator.index(value)
    except TypeError:
        raise PrecondError(f"need an integer number of {what}, got {value!r}") from None
    if count < least:
        raise PrecondError(f"need at least {least} {what}, got {count}")
    return count
