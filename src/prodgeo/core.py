"""Coordinate model and ambient metrics of the S2xR and H2xR geometries.

Both geometries are realised inside the affine chart of projective space:
a point carries homogeneous coordinates (x0 : x1 : x2 : x3) with x0 > 0,
normalised to x0 = 1, so that (x, y, z) = (x1, x2, x3) are ordinary
Cartesian coordinates.  The library represents a normalised point as a
length-3 float array holding (x, y, z).

Model sets
----------
S2xR  : every Cartesian point except the centre E0 = (0, 0, 0).  The fibre
        coordinate is log sqrt(x^2 + y^2 + z^2); the unit sphere is the
        zero-fibre leaf.
H2xR  : the open cone x^2 - y^2 - z^2 > 0, x > 0.  The fibre coordinate is
        log sqrt(x^2 - y^2 - z^2); the unit hyperboloid sheet is the
        zero-fibre leaf.

The arc-length element in this chart is

    S2xR :  ds^2 = (dx^2 + dy^2 + dz^2) / (x^2 + y^2 + z^2)
    H2xR :  ds^2 = [ (x^2+y^2+z^2) dx^2 - 4xy dx dy - 4xz dx dz
                     + (x^2+y^2-z^2) dy^2 + 4yz dy dz
                     + (x^2-y^2+z^2) dz^2 ] / (x^2 - y^2 - z^2)^2

and ``metric_at`` returns the corresponding symmetric 3x3 matrix.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .exceptions import DomainError

__all__ = [
    "Geometry",
    "BASE_POINT",
    "model_point",
    "homogeneous",
    "contains",
    "fibre_norm_sq",
    "metric_at",
    "to_model",
]


class Geometry(enum.Enum):
    """Which of the two product geometries an operation runs in."""

    S2R = "s2r"
    H2R = "h2r"

    @classmethod
    def from_name(cls, name: str) -> "Geometry":
        try:
            return cls(name.lower())
        except ValueError:
            raise DomainError(f"unknown geometry {name!r}; expected 's2r' or 'h2r'") from None


#: The common start point of all geodesic parametrisations, (1 : 1 : 0 : 0).
BASE_POINT = np.array([1.0, 0.0, 0.0])


def model_point(coords) -> np.ndarray:
    """Normalise a homogeneous 4-tuple or Cartesian 3-tuple to (x, y, z).

    A 4-tuple (x0, x1, x2, x3) requires x0 > 0 and is divided through by
    x0; a 3-tuple is taken as Cartesian coordinates directly.
    """
    a = np.asarray(coords, dtype=float)
    if a.shape == (4,):
        if a[0] <= 0.0:
            raise DomainError(f"homogeneous coordinate x0 must be positive, got {a[0]}")
        return a[1:] / a[0]
    if a.shape == (3,):
        return a.copy()
    raise DomainError(f"expected 3 or 4 coordinates, got shape {a.shape}")


def homogeneous(p) -> np.ndarray:
    """Return the normalised homogeneous row (1, x, y, z) of a point."""
    p = np.asarray(p, dtype=float)
    return np.concatenate(([1.0], p))


def contains(kind: Geometry, coords) -> bool:
    """Membership predicate of the model set of ``kind``.

    Accepts raw homogeneous 4-tuples or Cartesian 3-tuples; any tuple that
    cannot be normalised (x0 <= 0) is simply not a member.  Boundary points
    (the cone surface, the centre E0) are excluded: the model sets are open.
    """
    try:
        p = model_point(coords)
    except DomainError:
        return False
    return _is_member(kind, p)


def _is_member(kind: Geometry, p: np.ndarray) -> bool:
    x, y, z = p
    return (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)
            and fibre_norm_sq(kind, p) > 0.0 and (kind is Geometry.S2R or x > 0.0))


def _not_member(kind: Geometry, p: np.ndarray) -> DomainError:
    coords = tuple(round(float(c), 6) for c in p)
    return DomainError(f"point {coords} is not in the {kind.value} model")


def _guard_member(kind: Geometry, p: np.ndarray) -> None:
    """Raise DomainError unless the normalised point ``p`` is a member."""
    if not _is_member(kind, p):
        raise _not_member(kind, p)


def _guard_members(kind: Geometry, points: np.ndarray) -> None:
    """``_guard_member`` of every row of an (N, 3) array, by the same rule."""
    inside = np.isfinite(points).all(axis=1) & (fibre_norm_sq(kind, points.T) > 0.0)
    if kind is Geometry.H2R:
        inside &= points[:, 0] > 0.0
    if not inside.all():
        raise _not_member(kind, points[np.argmin(inside)])


def require_member(kind: Geometry, p: np.ndarray) -> np.ndarray:
    """Validate membership, returning the point; raise DomainError otherwise."""
    p = model_point(p)
    if not contains(kind, p):
        raise _not_member(kind, p)
    return p


def fibre_norm_sq(kind: Geometry, p) -> float | np.ndarray:
    """The quadratic form whose square root carries the fibre coordinate.

    S2xR: x^2 + y^2 + z^2.  H2xR: x^2 - y^2 - z^2.  Positive on members.
    ``p`` is a point, or three arrays of coordinates (the columns of an
    (N, 3) array of points), giving an array of values.
    """
    x, y, z = p
    if kind is Geometry.S2R:
        return x * x + y * y + z * z
    return x * x - y * y - z * z


def metric_at(kind: Geometry, p) -> np.ndarray:
    """Symmetric 3x3 metric tensor g_ij at ``p`` in the Cartesian chart.

    ds^2 = sum_ij g_ij dx^i dx^j.  Positive definite on every member point;
    raises DomainError elsewhere.
    """
    p = require_member(kind, p)
    x, y, z = p
    if kind is Geometry.S2R:
        return np.eye(3) / (x * x + y * y + z * z)
    q = x * x - y * y - z * z
    g = np.array([
        [x * x + y * y + z * z, -2.0 * x * y, -2.0 * x * z],
        [-2.0 * x * y, x * x + y * y - z * z, 2.0 * y * z],
        [-2.0 * x * z, 2.0 * y * z, x * x - y * y + z * z],
    ])
    return g / (q * q)


def to_model(kind: Geometry, t: float, c1: float, c2: float) -> np.ndarray:
    """Map intrinsic coordinates to a Cartesian model point.

    For S2xR the intrinsic coordinates are geographic, (t, phi, theta) with
    phi in (-pi, pi] and theta in [-pi/2, pi/2]:

        (x, y, z) = e^t (cos phi cos theta, sin phi cos theta, sin theta)

    For H2xR they are cylindrical, (t, r, alpha) with r >= 0 and alpha in
    (-pi, pi]:

        (x, y, z) = e^t (cosh r, sinh r cos alpha, sinh r sin alpha)

    The image always satisfies ``contains``.
    """
    s = math.exp(t)
    if kind is Geometry.S2R:
        phi, theta = c1, c2
        return s * np.array([
            math.cos(phi) * math.cos(theta),
            math.sin(phi) * math.cos(theta),
            math.sin(theta),
        ])
    r, alpha = c1, c2
    return s * np.array([
        math.cosh(r),
        math.sinh(r) * math.cos(alpha),
        math.sinh(r) * math.sin(alpha),
    ])
