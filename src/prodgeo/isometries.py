"""Isometries that move an arbitrary point to the base point.

All matrices are 4x4, act on homogeneous row vectors (1, x, y, z) by right
multiplication, and are normalised so the (0, 0) entry is 1 (the transforms
are only defined up to a positive scalar).

The normaliser of a point A is composed of four factors, applied in order:

    T        fibre translation: divide the spatial part by sqrt(Q), where Q
             is the fibre quadratic form, so the image has fibre
             coordinate 0,
    R_x      Euclidean rotation about the x axis taking (y, z) to
             (sqrt(y^2 + z^2), 0); it preserves both ambient metrics,
    R_z      the surface-factor motion fixing the [x, y] plane that moves
             the resulting point to the base point: a rotation of the
             (x, y) block for S2xR, a Lorentz boost preserving x^2 - y^2
             for H2xR,
    R_x^-1   undoing the first rotation, so that the geodesic from the
             base point to A and its image stay in one Euclidean plane.

Closed-form images of the three triangle vertices under such a normaliser
are provided as independent cross-checks of the matrix pipeline
(``reference_image_*``); they are hand-derived from the factorisation and
agree with the composed matrices to machine precision.
"""

from __future__ import annotations

import math

import numpy as np

from .core import BASE_POINT, Geometry, _guard_member, fibre_norm_sq, require_member
from .exceptions import DegenerateError, PrecondError
from .tolerances import DEFAULT

__all__ = [
    "fibre_translation",
    "rotation_x",
    "rotation_z",
    "to_origin",
    "apply_isometry",
    "reference_image_base",
    "reference_image_third",
    "reference_images_plane_mover",
]


def _embed(block: np.ndarray) -> np.ndarray:
    m = np.eye(4)
    m[1:, 1:] = block
    return m


def fibre_translation(kind: Geometry, a) -> np.ndarray:
    """Fibre translation taking ``a`` to its zero-fibre representative."""
    return _fibre_translation(kind, require_member(kind, a))


def _fibre_translation(kind: Geometry, a: np.ndarray) -> np.ndarray:
    return _embed(np.eye(3) / math.sqrt(fibre_norm_sq(kind, a)))


def rotation_x(kind: Geometry, p) -> np.ndarray:
    """Rotation about the x axis taking ``p`` into the [x, y] half-plane y >= 0.

    Identity when ``p`` already lies on the x axis.  The same Euclidean
    rotation is an isometry of both geometries (it fixes the fibre axis of
    S2xR and the cone axis of H2xR).
    """
    return _rotation_x(require_member(kind, p))


def _rotation_x(p: np.ndarray) -> np.ndarray:
    _, y, z = p
    spread = math.hypot(y, z)
    if spread == 0.0:
        return np.eye(4)
    cy, cz = y / spread, z / spread
    return _embed(np.array([
        [1.0, 0.0, 0.0],
        [0.0, cy, -cz],
        [0.0, cz, cy],
    ]))


def rotation_z(kind: Geometry, p) -> np.ndarray:
    """Surface motion in the [x, y] plane moving ``p`` onto the fibre axis.

    Requires z = 0 (within tolerance).  For S2xR this is an orthogonal
    rotation of the (x, y) block; for H2xR a Lorentz boost preserving
    x^2 - y^2.  When ``p`` additionally has fibre coordinate zero its image
    is exactly the base point.
    """
    return _rotation_z(kind, require_member(kind, p))


def _rotation_z(kind: Geometry, p: np.ndarray) -> np.ndarray:
    x, y, z = p
    if abs(z) > DEFAULT.plane:
        raise PrecondError(f"rotation_z needs a point in the [x, y] plane, got z={z}")
    s = math.sqrt(fibre_norm_sq(kind, np.array([x, y, 0.0])))
    c1, c2 = x / s, y / s
    # S2xR rotates the (x, y) block, H2xR boosts it: only one sign differs
    return _embed(np.array([
        [c1, -c2, 0.0],
        [_sigma(kind) * c2, c1, 0.0],
        [0.0, 0.0, 1.0],
    ]))


def to_origin(kind: Geometry, a) -> np.ndarray:
    """The normalising isometry T . R_x . R_z . R_x^-1 mapping ``a`` to the
    base point (identity when ``a`` already is the base point)."""
    return _to_origin(kind, require_member(kind, a))


def _to_origin(kind: Geometry, a: np.ndarray) -> np.ndarray:
    """``to_origin`` of a member ``a``; deep in the H2xR cone the images of
    ``a`` can round out of the model, raising DomainError."""
    trans = _fibre_translation(kind, a)
    flat = apply_isometry(trans, a)
    _guard_member(kind, flat)
    rot_x = _rotation_x(flat)
    planar = apply_isometry(rot_x, flat)
    _guard_member(kind, planar)
    rot_z = _rotation_z(kind, planar)
    return trans @ rot_x @ rot_z @ rot_x.T


def apply_isometry(m: np.ndarray, p) -> np.ndarray:
    """Apply a homogeneous transform to a point and renormalise to x0 = 1."""
    p = np.asarray(p, dtype=float)
    row = np.concatenate(([1.0], p)) @ m
    if row[0] <= 0.0:
        raise DegenerateError(f"image has non-positive homogeneous weight {row[0]}")
    return row[1:] / row[0]


# --- closed-form vertex images -------------------------------------------
#
# For a triangle with vertices A1 = base point, A2, A3, the images of the
# vertices under the normaliser of A2 (and, when A3 lies in the [x, y]
# plane, under the normaliser of A3) admit explicit rational-radical
# expressions.  They are independent transcriptions used to cross-check
# ``to_origin``; sigma below is +1 for S2xR and -1 for H2xR.


def _sigma(kind: Geometry) -> float:
    return 1.0 if kind is Geometry.S2R else -1.0


def reference_image_base(kind: Geometry, mover) -> np.ndarray:
    """Image of the base point under ``to_origin(kind, mover)``:
    (x/Q, -y/Q, -z/Q) with Q the fibre quadratic form of ``mover``."""
    x, y, z = require_member(kind, mover)
    q = fibre_norm_sq(kind, (x, y, z))
    return np.array([x, -y, -z]) / q


def reference_image_third(kind: Geometry, mover, other) -> np.ndarray:
    """Image of ``other`` under ``to_origin(kind, mover)``.

    Valid for ``other`` in the [x, y] plane (z = 0) and ``mover`` off the
    x axis; this is the configuration the closed form was derived for.
    """
    x2, y2, z2 = require_member(kind, mover)
    x3, y3, z3 = require_member(kind, other)
    if abs(z3) > DEFAULT.plane:
        raise PrecondError("closed form requires the moved vertex to have z = 0")
    w = y2 * y2 + z2 * z2
    if w == 0.0:
        raise PrecondError("closed form requires the mover off the x axis")
    sg = _sigma(kind)
    q = fibre_norm_sq(kind, (x2, y2, z2))
    s = math.sqrt(q)
    return np.array([
        (x2 * x3 + sg * y2 * y3) / q,
        (y3 * z2 * z2 * s + x2 * y2 * y2 * y3 - x3 * y2 ** 3 - x3 * y2 * z2 * z2) / (w * q),
        -(z2 * (y3 * y2 * (s - x2) + x3 * y2 * y2 + x3 * z2 * z2)) / (w * q),
    ])


def reference_images_plane_mover(kind: Geometry, mover, other):
    """Images of the base point and of ``other`` under the normaliser of a
    ``mover`` lying in the [x, y] plane.

    Returns (base_image, other_image).  ``other`` may be a general member.
    """
    x3, y3, z3 = require_member(kind, mover)
    if abs(z3) > DEFAULT.plane:
        raise PrecondError("closed form requires the mover to have z = 0")
    x2, y2, z2 = require_member(kind, other)
    sg = _sigma(kind)
    q = x3 * x3 + sg * y3 * y3
    base_image = np.array([x3 / q, -y3 / q, 0.0])
    other_image = np.array([
        (x2 * x3 + sg * y2 * y3) / q,
        (x3 * y2 - x2 * y3) / q,
        z2 / math.sqrt(q),
    ])
    return base_image, other_image
