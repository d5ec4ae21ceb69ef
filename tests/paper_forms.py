"""The paper's hand-derived closed forms of the normaliser, kept as test oracles.

For a triangle with vertices A1 = base point, A2, A3, the images of the
vertices under the normaliser of A2 (and, when A3 lies in the [x, y]
plane, under the normaliser of A3) admit explicit rational-radical
expressions.  They are independent transcriptions used to cross-check
``prodgeo.isometries.to_origin``; sigma below is the curvature, +1 for S2xR
and -1 for H2xR.  The S2xR normaliser itself is transcribed entry by entry
(``transcribed_normalizer_s2r``), with its (3, 2) sign slip kept verbatim.

Each form squares coordinates in floats (``fibre_form``), so it is defined
only where its squared forms are normal doubles: ``_require_in_range``
turns every other member into a DomainError.
"""

import math

import numpy as np

from prodgeo import DomainError, Geometry, PrecondError
from prodgeo.core import require_member
from prodgeo.tolerances import DEFAULT


def fibre_form(kind: Geometry, x, y, z):
    """Q = x^2 + sigma (y^2 + z^2), squared in floats: 0 or inf, with no warning
    under the caller's ``np.errstate``, for members below about 1e-154 or above 1e154."""
    return x * x + kind.curvature * (y * y + z * z)


def _require_in_range(kind: Geometry, point: np.ndarray, forms, *images) -> None:
    """DomainError unless each squared form of ``point`` is a normal double
    (one that left double range is inf, or a subnormal or zero, and no
    quotient by it is meaningful) and each closed-form image is finite."""
    if not (all(np.finfo(float).tiny <= form < math.inf for form in forms)
            and all(np.isfinite(image).all() for image in images)):
        raise DomainError(f"the {kind.value} closed-form images for {tuple(point.tolist())} "
                          "are not representable in double precision")


def reference_image_base(kind: Geometry, mover) -> np.ndarray:
    """Image of the base point under ``to_origin(kind, mover)``:
    (x/Q, -y/Q, -z/Q) with Q the fibre quadratic form of ``mover``."""
    x, y, z = mover = np.array(require_member(kind, mover))
    with np.errstate(all="ignore"):
        q = fibre_form(kind, x, y, z)
        image = np.array([x, -y, -z]) / q
    _require_in_range(kind, mover, (q,), image)
    return image


def reference_image_third(kind: Geometry, mover, other) -> np.ndarray:
    """Image of ``other`` under ``to_origin(kind, mover)``.

    Valid for ``other`` in the [x, y] plane (z = 0) and ``mover`` off the
    x axis; this is the configuration the closed form was derived for.
    """
    x2, y2, z2 = mover = np.array(require_member(kind, mover))
    x3, y3, z3 = np.array(require_member(kind, other))
    if abs(z3) > DEFAULT.plane:
        raise PrecondError("closed form requires the moved vertex to have z = 0")
    if y2 == 0.0 and z2 == 0.0:
        raise PrecondError("closed form requires the mover off the x axis")
    sg = kind.curvature
    with np.errstate(all="ignore"):
        w = y2 * y2 + z2 * z2
        q = fibre_form(kind, x2, y2, z2)
        s = np.sqrt(q)
        image = np.array([
            (x2 * x3 + sg * y2 * y3) / q,
            (y3 * z2 * z2 * s + x2 * y2 * y2 * y3 - x3 * y2 ** 3 - x3 * y2 * z2 * z2) / (w * q),
            -(z2 * (y3 * y2 * (s - x2) + x3 * y2 * y2 + x3 * z2 * z2)) / (w * q),
        ])
        forms = (q, w, w * q)
    _require_in_range(kind, mover, forms, image)
    return image


def reference_images_plane_mover(kind: Geometry, mover, other):
    """Images of the base point and of ``other`` under the normaliser of a
    ``mover`` lying in the [x, y] plane.

    Returns (base_image, other_image).  ``other`` may be a general member.
    """
    x3, y3, z3 = mover = np.array(require_member(kind, mover))
    if abs(z3) > DEFAULT.plane:
        raise PrecondError("closed form requires the mover to have z = 0")
    x2, y2, z2 = np.array(require_member(kind, other))
    sg = kind.curvature
    with np.errstate(all="ignore"):
        q = x3 * x3 + sg * y3 * y3
        base_image = np.array([x3 / q, -y3 / q, 0.0])
        other_image = np.array([
            (x2 * x3 + sg * y2 * y3) / q,
            (x3 * y2 - x2 * y3) / q,
            z2 / np.sqrt(q),
        ])
    _require_in_range(kind, mover, (q,), base_image, other_image)
    return base_image, other_image


def transcribed_normalizer_s2r(a2) -> np.ndarray:
    """The hand-derived closed form of the S2xR normaliser of the member ``a2``,
    transcribed entry by entry, kept verbatim with its (3, 2) sign slip; off the x axis."""
    x, y, z = a2 = require_member(Geometry.S2R, a2)  # floats: a form beyond range is inf
    q = x * x + y * y + z * z
    s = math.sqrt(q)
    w = y * y + z * z
    _require_in_range(Geometry.S2R, np.array(a2), (q, w, q * w))  # then every entry is finite
    return np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, x / q, -y / q, -z / q],
        [0.0, y / q, (y * y * x + z * z * s) / (q * w), -y * z * (-x + s) / (q * w)],
        [0.0, z / q, y * z * (-x + s) / (q * w), (z * z * x + y * y * s) / (q * w)],
    ])
