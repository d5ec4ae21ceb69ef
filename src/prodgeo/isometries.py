"""The paper's method: isometries that move a point to the base point, and
the tangent frame of a triangle read off them.

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

Each factor is built from A alone, with sqrt(Q) from ``core._fibre_norm``
(no coordinate squared).  The one check is the defining property: the
image of A must be within ``DEFAULT.isometry`` of the base point, else
DomainError; deep in the H2xR cone, where Q is not resolved in double
precision, no double matrix is the normaliser.

This is the only code that moves a point or builds a 4x4 matrix, kept as
the reproduced method and cross-check: triangles, angles and distances are
computed without it.
``tangent_endpoints`` and ``vertex_angle`` move a triangle so a1 is the
base point, then each vertex there by its own normaliser, and read the
tangents off the inverse problem, where the ambient metric is the identity;
moved points are float triples.  Hand-derived closed-form images
(``reference_image_*``, below) cross-check the composed matrices.
"""

from __future__ import annotations

import math

from .core import _BASE, Geometry, _fibre_norm, _point, fibre_norm_sq, np, require_member
from .exceptions import ConsistencyError, DegenerateError, DomainError, PrecondError
from .geodesics import _geodesic_params, tangent_of
from .tolerances import DEFAULT
from .triangles import GeodesicTriangle, TriangleAngles

__all__ = [
    "fibre_translation",
    "rotation_x",
    "rotation_z",
    "to_origin",
    "apply_isometry",
    "tangent_endpoints",
    "vertex_angle",
    "reference_image_base",
    "reference_image_third",
    "reference_images_plane_mover",
    "transcribed_normalizer_s2r",
]


def _embed(block: np.ndarray) -> np.ndarray:
    m = np.eye(4)
    m[1:, 1:] = block
    return m


def fibre_translation(kind: Geometry, a) -> np.ndarray:
    """Fibre translation taking ``a`` to its zero-fibre representative;
    DomainError where ``_fibre_norm`` finds a non-member or 1/sqrt(Q)
    overflows (S2xR members below about 5.6e-309)."""
    a = _point(a)
    scale = 1.0 / _fibre_norm(kind, a)
    if not scale < math.inf:
        raise DomainError(f"the {kind.value} fibre translation of {a} "
                          "is not representable in double precision")
    return _embed(np.eye(3) * scale)


def rotation_x(kind: Geometry, p) -> np.ndarray:
    """Rotation about the x axis taking ``p`` into the [x, y] half-plane y >= 0,
    the identity on the x axis: a Euclidean rotation that is an isometry of
    both geometries (it fixes the fibre axis of S2xR and the cone axis of H2xR)."""
    return _rotation_x(require_member(kind, p))


def _rotation_x(p: tuple) -> np.ndarray:
    _, y, z = p
    k = -math.frexp(max(abs(y), abs(z)))[1]  # 2^k y and 2^k z are exact: subnormals keep their ratio
    y, z = math.ldexp(y, k), math.ldexp(z, k)
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
    x, y, z = require_member(kind, p)
    if abs(z) > DEFAULT.plane:
        raise PrecondError(f"rotation_z needs a point in the [x, y] plane, got z={z}")
    norm = _fibre_norm(kind, (x, y, 0.0))
    return _rotation_z(kind, x / norm, y / norm)


def _rotation_z(kind: Geometry, c1: float, c2: float) -> np.ndarray:
    # moves the surface point (c1, c2, 0) to the base point: S2xR rotates
    # the (x, y) block, H2xR boosts it; only one sign differs
    return _embed(np.array([
        [c1, -c2, 0.0],
        [kind.curvature * c2, c1, 0.0],
        [0.0, 0.0, 1.0],
    ]))


def to_origin(kind: Geometry, a) -> np.ndarray:
    """The normalising isometry T . R_x . R_z . R_x^-1 mapping ``a`` to the
    base point (identity when ``a`` already is the base point)."""
    return _to_origin(kind, _point(a))


def _to_origin(kind: Geometry, a: tuple) -> np.ndarray:
    """``to_origin`` of the float triple ``a``: R_z from (x, hypot(y, z)) / sqrt(Q), the image
    of ``a`` under T and R_x; DomainError where the result misses."""
    norm = _fibre_norm(kind, a)
    rot_x = _rotation_x(a)
    with np.errstate(all="ignore"):
        move = (_embed(np.eye(3) / norm) @ rot_x
                @ _rotation_z(kind, a[0] / norm, math.hypot(a[1], a[2]) / norm) @ rot_x.T)
        row = np.array((1.0, *a)) @ move  # unchecked: a missed image is the error
        miss = float(np.abs(row[1:] / row[0] - _BASE).max())
    if not miss <= DEFAULT.isometry:
        raise DomainError(f"the {kind.value} normaliser of {a} is not "
                          f"representable in double precision ({miss:.1e} off the base point)")
    return move


def apply_isometry(m: np.ndarray, p) -> np.ndarray:
    """Apply a homogeneous transform, a 4x4 array of real numbers (a bool, int or float
    dtype), to a point (``core._point``), renormalised to x0 = 1; DomainError for any
    other matrix or an image beyond double range, DegenerateError for a weight not above 0."""
    point = _point(p)
    try:  # numpy's ValueError names a ragged list; None, text, complex or objects fail the dtype
        if (m := np.asarray(m)).shape != (4, 4) or m.dtype.kind not in "biuf":
            raise ValueError(f"{m.dtype} values of shape {m.shape}")
    except ValueError as exc:
        raise DomainError(f"need a 4×4 matrix of real numbers, got {exc}") from None
    with np.errstate(all="ignore"):
        row = np.array((1.0, *point)) @ m
        image = row[1:] / row[0]
    if row[0] <= 0.0:
        raise DegenerateError(f"image has non-positive homogeneous weight {row[0]}")
    if not np.isfinite(image).all():
        raise DomainError(f"the image of {point} is not representable in double precision")
    return image


def _paper_vertices(tri: GeodesicTriangle) -> tuple:
    """The vertices moved by the normaliser of a1, so a1 is the base point
    (the paper's position; the identity, bit for bit, when it is there), as float triples."""
    move = _to_origin(tri.kind, tri.a1)
    return _BASE, _point(apply_isometry(move, tri.a2)), _point(apply_isometry(move, tri.a3))


def tangent_endpoints(tri: GeodesicTriangle) -> dict[tuple[int, int], np.ndarray]:
    """The six unit tangents t_i^j at the base point, of the vertices in
    the paper's position (``_paper_vertices``).

    Key (i, j) is the tangent toward vertex i's image under the normaliser
    of vertex j; j = 0 means no further move (sides leaving a1).  The frame
    must be consistent: the tangent toward a vertex and the tangent toward
    the image of a1 under that vertex's normaliser are antipodal.
    """
    vertices = _paper_vertices(tri)
    tangents = {key: t for i in (1, 2, 3)
                for key, t in _vertex_tangents(tri.kind, vertices, i).items()}
    for out, back in (((2, 0), (1, 2)), ((3, 0), (1, 3))):
        residual = float(np.abs(tangents[out] + tangents[back]).max())
        if residual > DEFAULT.isometry:
            raise ConsistencyError(
                f"tangents {out} and {back} are not antipodal (residual {residual:.2e})"
            )
    return tangents


def _vertex_tangents(kind: Geometry, vertices, i: int) -> dict[tuple[int, int], np.ndarray]:
    """Tangents at vertex ``i`` of ``vertices`` in the paper's position toward
    the other two, keyed as in ``tangent_endpoints``; vertices 2 and 3 are
    computed images, which ``_to_origin`` checks before one is moved."""
    others = [(n, p) for n, p in enumerate(vertices, start=1) if n != i]
    if i == 1:
        return {(n, 0): tangent_of(_geodesic_params(kind, p)) for n, p in others}
    move = _to_origin(kind, vertices[i - 1])
    return {(n, i): tangent_of(_geodesic_params(kind, _point(apply_isometry(move, p))))
            for n, p in others}


def _between(t1, t2):
    """Angle between unit vectors, in Kahan's atan2 form."""
    return 2.0 * math.atan2(float(np.linalg.norm(t1 - t2)), float(np.linalg.norm(t1 + t2)))


#: the frame keys of the two tangents at vertex 1, 2 and 3 (see ``tangent_endpoints``)
_FRAME_PAIRS = (((2, 0), (3, 0)), ((1, 2), (3, 2)), ((1, 3), (2, 3)))


def _frame_angles(frame) -> TriangleAngles:
    """The paper's angles: the three interior angles read off the tangent frame."""
    w1, w2, w3 = (_between(frame[a], frame[b]) for a, b in _FRAME_PAIRS)
    return TriangleAngles(w1, w2, w3, w1 + w2 + w3)


def vertex_angle(tri: GeodesicTriangle, i: int) -> float:
    """Interior angle at vertex ``i`` (the number 1, 2 or 3, not a bool or an array, else
    PrecondError), in (0, pi), by the paper's method: its normaliser moves it to the base point."""
    if not isinstance(i, (int, float, np.integer, np.floating)) or i is True or i not in (1, 2, 3):
        raise PrecondError(f"vertex index must be 1, 2 or 3, got {i!r}")
    return _between(*_vertex_tangents(tri.kind, _paper_vertices(tri), int(i)).values())


# --- closed-form vertex images -------------------------------------------
#
# For a triangle with vertices A1 = base point, A2, A3, the images of the
# vertices under the normaliser of A2 (and, when A3 lies in the [x, y]
# plane, under the normaliser of A3) admit explicit rational-radical
# expressions.  They are independent transcriptions used to cross-check
# ``to_origin``; sigma below is the curvature, +1 for S2xR and -1 for H2xR.


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
        q = fibre_norm_sq(kind, (x, y, z))
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
        q = fibre_norm_sq(kind, (x2, y2, z2))
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
    """The hand-derived closed form of the S2xR normaliser of ``a2``,
    transcribed entry by entry, kept verbatim with its (3, 2) sign slip."""
    x, y, z = np.asarray(a2, dtype=float)
    q = x * x + y * y + z * z
    s = math.sqrt(q)
    w = y * y + z * z
    return np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, x / q, -y / q, -z / q],
        [0.0, y / q, (y * y * x + z * z * s) / (q * w), -y * z * (-x + s) / (q * w)],
        [0.0, z / q, y * z * (-x + s) / (q * w), (z * z * x + y * y * s) / (q * w)],
    ])
