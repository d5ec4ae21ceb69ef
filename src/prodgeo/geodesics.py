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
L = log sqrt(Q) (Q the fibre quadratic form) from the surface arc

    S2xR :  w = atan2(sqrt(y^2 + z^2), x)      (principal arc, w in [0, pi])
    H2xR :  w = asinh(sqrt(y^2 + z^2) / sqrt(Q))

after which v = atan2(L, w), tau = hypot(L, w) and u = atan2(z, y).
For S2xR the principal arc makes the returned geodesic the shortest one;
geodesics that wind further around the sphere factor reach the same point
with larger tau.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .core import BASE_POINT, Geometry, _guard_member, fibre_norm_sq, model_point, require_member
from .exceptions import DomainError, PrecondError
from .isometries import _to_origin, apply_isometry
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
    u, v, tau = GeodesicParams.normalized(*g)
    w = tau * math.cos(v)
    try:
        scale = math.exp(tau * math.sin(v))
        if kind is Geometry.S2R:
            along, across = math.cos(w), math.sin(w)
        else:
            along, across = math.cosh(w), math.sinh(w)
    except OverflowError:
        raise _out_of_range(u, v, tau) from None
    x, y, z = scale * along, scale * (across * math.cos(u)), scale * (across * math.sin(u))
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z) and (x or y or z)):
        raise _out_of_range(u, v, tau)
    return np.array([x, y, z])


def _out_of_range(u: float, v: float, tau: float) -> DomainError:
    return DomainError(f"the geodesic point at ({u}, {v}, {tau}) is out of double range")


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
    _guard_member(kind, p)
    x, y, z = p
    q = fibre_norm_sq(kind, p)
    length = 0.5 * math.log(q)
    spread = math.hypot(y, z)
    if kind is Geometry.S2R:
        w = math.atan2(spread, x)
    else:
        w = math.asinh(spread / math.sqrt(q))
    if w == 0.0:
        if length == 0.0:
            raise DomainError("the base point has no defined geodesic direction")
        # on the fibre axis: pure fibre translation
        return GeodesicParams(0.0, math.copysign(math.pi / 2, length), abs(length))
    # u degenerates on the S2xR antipodal axis (y = z = 0, x < 0); any value
    # parametrises a geodesic through that point, take 0
    u = math.atan2(z, y) if spread > 0.0 else 0.0
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
    """Arc length of the shortest geodesic between two model points.

    ``p1`` is moved to the base point by its normalising isometry, after
    which the arc length to the image of ``p2`` is read off the inverse
    problem.  Symmetric to well below 1e-9.
    """
    p1 = require_member(kind, p1)
    p2 = require_member(kind, p2)
    image = apply_isometry(_to_origin(kind, p1), p2)
    if np.array_equal(image, BASE_POINT):
        return 0.0
    return _geodesic_params(kind, image).tau


def sample_curve(kind: Geometry, g, n: int) -> list[np.ndarray]:
    """``n`` points of the geodesic at equal arc-length steps in [0, tau]."""
    if n < 2:
        raise PrecondError(f"need at least 2 samples, got {n}")
    u, v, tau = GeodesicParams.normalized(*g)
    return [
        geodesic_point(kind, GeodesicParams(u, v, tau * i / (n - 1)))
        for i in range(n)
    ]
