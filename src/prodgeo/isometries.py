"""The paper's method: isometries that move a point to the base point, and
the tangent frame of a triangle read off them.

A transform acts on homogeneous row vectors (1, x, y, z) by right
multiplication and is defined up to a positive scalar; the public ones are
4x4 arrays normalised so the (0, 0) entry is 1.

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

Row 0 and column 0 of the product are (1, 0, 0, 0), so a moved point keeps
weight 1 and the normaliser is its spatial block B = R_x R_z R_x^T / sqrt(Q),
kept as three float rows (``_to_origin``) and applied by ``_move``.  B is
unrolled from A alone: with (c_y, c_z) the unit direction of (y, z) and
(c_1, c_2) = (x, sqrt(y^2 + z^2)) / sqrt(Q), its rows are

    (c_1, -c_2 c_y, -c_2 c_z),
    (sigma c_2 c_y, c_1 c_y^2 + c_z^2, (c_1 - 1) c_y c_z),
    (sigma c_2 c_z, (c_1 - 1) c_y c_z, c_1 c_z^2 + c_y^2),

each over sqrt(Q), sigma the curvature, and sqrt(Q) from ``core._fibre_norm``
(no coordinate squared).  The one check is the defining property: the image
of A must be within ``DEFAULT.isometry`` of the base point, else DomainError;
deep in the H2xR cone, where Q is not resolved in double precision, no double
matrix is the normaliser.  ``to_origin`` embeds B in a 4x4 array, and
``apply_isometry`` forms a moved point in ``_move``'s order, so the image of
A under ``to_origin`` is exactly the one that passed the check.

This is the reproduced method and cross-check: triangles, angles and
distances are computed without it.  ``tangent_endpoints`` and
``vertex_angle`` move a triangle so a1 is the base point, then each vertex
there by its own normaliser, and read the tangents off the inverse problem,
where the ambient metric is the identity; points and tangents are float
triples, in ``math``.  The paper's hand-derived closed forms of the images,
which cross-check the block, are test oracles (``tests/paper_forms.py``).
"""

from __future__ import annotations

import math

from .core import _BASE, Geometry, _fibre_norm, _point, _reals, _require_record, np, require_member
from .exceptions import ConsistencyError, DegenerateError, DomainError, PrecondError
from .geodesics import _geodesic_params, _tangent
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
]


def _embed(block) -> np.ndarray:
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
    _, y, z = require_member(kind, p)
    cy, cz = _direction(y, z)
    return _embed(((1.0, 0.0, 0.0), (0.0, cy, -cz), (0.0, cz, cy)))


def _direction(y: float, z: float) -> tuple[float, float]:
    """(c_y, c_z), the unit direction of (y, z), or (1, 0) on the x axis."""
    k = -math.frexp(max(abs(y), abs(z)))[1]  # 2^k y and 2^k z are exact: subnormals keep their ratio
    y, z = math.ldexp(y, k), math.ldexp(z, k)
    spread = math.hypot(y, z)
    return (y / spread, z / spread) if spread else (1.0, 0.0)


def rotation_z(kind: Geometry, p) -> np.ndarray:
    """Surface motion in the [x, y] plane moving ``p`` onto the fibre axis.

    Requires z = 0 (within tolerance).  For S2xR this is an orthogonal
    rotation of the (x, y) block; for H2xR a Lorentz boost preserving
    x^2 - y^2 (the two differ in one sign, the curvature).  When ``p``
    additionally has fibre coordinate zero its image is exactly the base point.
    """
    x, y, z = require_member(kind, p)
    if abs(z) > DEFAULT.plane:
        raise PrecondError(f"rotation_z needs a point in the [x, y] plane, got z={z}")
    norm = _fibre_norm(kind, (x, y, 0.0))
    c1, c2 = x / norm, y / norm
    return _embed(((c1, -c2, 0.0), (kind.curvature * c2, c1, 0.0), (0.0, 0.0, 1.0)))


def to_origin(kind: Geometry, a) -> np.ndarray:
    """The normalising isometry T . R_x . R_z . R_x^-1 mapping ``a`` to the
    base point (identity when ``a`` already is the base point)."""
    return _embed(_to_origin(kind, _point(a)))


def _to_origin(kind: Geometry, a: tuple) -> tuple:
    """The spatial block B of ``to_origin`` of the float triple ``a``, as three float
    rows; DomainError where ``_move``'s image of ``a`` is not finite or misses the base point."""
    norm = _fibre_norm(kind, a)
    x, y, z = a
    cy, cz = _direction(y, z)
    c1, c2 = x / norm, math.hypot(y, z) / norm
    boost, cross = kind.curvature * c2 / norm, (c1 - 1.0) * cy * cz / norm
    rows = ((c1 / norm, -c2 * cy / norm, -c2 * cz / norm),
            (boost * cy, (c1 * cy * cy + cz * cz) / norm, cross),
            (boost * cz, cross, (c1 * cz * cz + cy * cy) / norm))
    miss = max(abs(c - b) for c, b in zip(_move(rows, a), _BASE))
    if not miss <= DEFAULT.isometry:
        raise DomainError(f"the {kind.value} normaliser of {a} is not "
                          f"representable in double precision ({miss:.1e} off the base point)")
    return rows


def _move(rows: tuple, p: tuple) -> tuple:
    """The float triple ``p`` times the block ``rows``, each coordinate summed left
    to right, as ``apply_isometry`` sums a row of weight 1: p B; DomainError, as
    there, for an image beyond double range (or of an overflowing block)."""
    (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = rows
    x, y, z = p
    image = (x * b00 + y * b10 + z * b20, x * b01 + y * b11 + z * b21,
             x * b02 + y * b12 + z * b22)
    if not all(map(math.isfinite, image)):
        raise DomainError(f"the image of {p} is not representable in double precision")
    return image


def apply_isometry(m: np.ndarray, p) -> np.ndarray:
    """Apply a homogeneous transform, a 4x4 array of real numbers (``core._reals``), to a
    point (``core._point``), renormalised to x0 = 1; DomainError for any other matrix or an
    image beyond double range, DegenerateError for a weight not above 0.  Each coordinate
    m0j + x m1j + y m2j + z m3j is summed left to right in floats, as ``_move`` sums it."""
    x, y, z = point = _point(p)
    if (m := _reals(m, "matrix entries")).shape != (4, 4):
        raise DomainError(f"need a 4×4 matrix of real numbers, got shape {m.shape}")
    weight, *row = (m0 + x * m1 + y * m2 + z * m3 for m0, m1, m2, m3 in zip(*m.tolist()))
    if weight <= 0.0:
        raise DegenerateError(f"image has non-positive homogeneous weight {weight}")
    image = [w / weight for w in row]
    if not all(map(math.isfinite, image)):
        raise DomainError(f"the image of {point} is not representable in double precision")
    return np.array(image)


def _paper_vertices(tri: GeodesicTriangle) -> tuple:
    """The vertices moved by the normaliser of a1, so a1 is the base point
    (the paper's position; the identity, up to signed zeros, when it is there), as float triples."""
    _require_record(tri, GeodesicTriangle)
    rows = _to_origin(tri.kind, tri.a1)
    return _BASE, _move(rows, tri.a2), _move(rows, tri.a3)


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
        residual = max(abs(a + b) for a, b in zip(tangents[out], tangents[back]))
        if residual > DEFAULT.isometry:
            raise ConsistencyError(
                f"tangents {out} and {back} are not antipodal (residual {residual:.2e})"
            )
    return {key: np.array(t) for key, t in tangents.items()}


def _vertex_tangents(kind: Geometry, vertices, i: int) -> dict[tuple[int, int], tuple]:
    """Tangents at vertex ``i`` of ``vertices`` in the paper's position toward
    the other two, float triples keyed as in ``tangent_endpoints``; vertices 2
    and 3 are computed images, which ``_to_origin`` checks before one is moved."""
    others = [(n, p) for n, p in enumerate(vertices, start=1) if n != i]
    if i == 1:
        return {(n, 0): _tangent(_geodesic_params(kind, p)) for n, p in others}
    rows = _to_origin(kind, vertices[i - 1])
    return {(n, i): _tangent(_geodesic_params(kind, _move(rows, p))) for n, p in others}


def _between(t1, t2):
    """Angle between unit vectors, in Kahan's atan2 form."""
    return 2.0 * math.atan2(math.hypot(*(a - b for a, b in zip(t1, t2))),
                            math.hypot(*(a + b for a, b in zip(t1, t2))))


#: the frame keys of the two tangents at vertex 1, 2 and 3 (see ``tangent_endpoints``)
_FRAME_PAIRS = (((2, 0), (3, 0)), ((1, 2), (3, 2)), ((1, 3), (2, 3)))


def _frame_angles(frame) -> TriangleAngles:
    """The paper's angles: the three interior angles read off the tangent frame."""
    w1, w2, w3 = (_between(frame[a], frame[b]) for a, b in _FRAME_PAIRS)
    return TriangleAngles(w1, w2, w3, w1 + w2 + w3)


def vertex_angle(tri: GeodesicTriangle, i: int) -> float:
    """Interior angle at vertex ``i`` (the number 1, 2 or 3, not a bool or an array, else
    PrecondError), in (0, pi), by the paper's method: its normaliser moves it to the base point."""
    i = _vertex_index(i)
    vertices = _paper_vertices(tri)
    return _between(*_vertex_tangents(tri.kind, vertices, i).values())


def _vertex_index(i) -> int:
    """``vertex_angle``'s index as an int; numpy is read only for an index of another type."""
    if ((isinstance(i, (int, float)) or isinstance(i, (np.integer, np.floating)))
            and i is not True and i in (1, 2, 3)):
        return int(i)
    raise PrecondError(f"vertex index must be 1, 2 or 3, got {i!r}")
