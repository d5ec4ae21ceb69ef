"""Coordinate model and ambient metrics of the S2xR and H2xR geometries.

Both geometries are realised inside the affine chart of projective space:
a point carries homogeneous coordinates (x0 : x1 : x2 : x3) with x0 > 0,
normalised to x0 = 1, so that (x, y, z) = (x1, x2, x3) are ordinary
Cartesian coordinates.  Caller data is read once, by one rule (``_reals`` for arrays,
``_real`` for numbers, ``_point`` for points, into the float triple (x, y, z) passed on
below): real numbers as ``np.asarray`` reads them, objects (ints beyond int64, fractions)
each by ``float``; text, complex, None, ragged lists or beyond double range: DomainError.

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

``np``, the package's numpy handle, imports numpy on first use, so a process
on float triples alone (``prodgeo triangle``, ``tables``) never loads it.

A point splits into a fibre height log sqrt(Q) and a surface point
p / sqrt(Q).  ``_guard_member`` (a float triple or an (N, 3) array) and
``_fibre_norm`` (sqrt(Q) of one point, in floats, from hypot-scaled norms,
or from exact squares near the H2xR cone) carry that split for the whole
package; neither squares a coordinate in floats.  One chart (``_product_points``)
maps a fibre height and surface arc back to points, which ``_guard_chart`` checks.
"""

from __future__ import annotations

import contextlib
import enum
import importlib.util
import math
import operator
import sys

from .exceptions import DomainError

__all__ = [
    "Geometry",
    "BASE_POINT",
    "model_point",
    "contains",
    "metric_at",
    "to_model",
]


def _lazy_module(name: str):
    """``sys.modules[name]``, or a module registered there that runs its
    import on first attribute access (``importlib.util.LazyLoader``)."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


np = _lazy_module("numpy")


class Geometry(enum.Enum):
    """Which of the two product geometries an operation runs in; its
    ``curvature``, +1.0 on S2 and -1.0 on H2, is the sign of y^2 + z^2 in Q,
    the signature of the surface form and the sign of an angle sum - pi."""

    S2R = "s2r", 1.0
    H2R = "h2r", -1.0

    def __new__(cls, value: str, curvature: float):
        member = object.__new__(cls)
        member._value_, member.curvature = value, curvature
        return member

    @classmethod
    def from_name(cls, name: str) -> "Geometry":
        """The geometry named 's2r' or 'h2r', in any case; DomainError for
        any other value, a non-string included."""
        try:
            return cls(name.lower())
        except (AttributeError, ValueError):
            raise DomainError(f"unknown geometry {name!r}; expected 's2r' or 'h2r'") from None


def _require_geometry(kind) -> None:
    """DomainError unless ``kind`` is a ``Geometry``, where a branch is chosen:
    a name such as 's2r' would take one silently."""
    if not isinstance(kind, Geometry):
        raise DomainError(f"unknown geometry {kind!r}; expected Geometry.S2R or Geometry.H2R")


def _require_record(value, record: type) -> None:
    """DomainError unless ``value`` is a ``record``, whose attributes the caller reads."""
    if not isinstance(value, record):
        raise DomainError(f"need a {record.__name__}, got {value!r}")


class _Record:
    """A read-only record, equal only to itself: ``__init__`` binds its attributes
    by ``vars(self)``, as a ``cached_property`` does; to assign or delete one is
    an AttributeError.  The repr names the attributes in ``_fields``."""

    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"


#: The common start point of all geodesic parametrisations, (1 : 1 : 0 : 0),
#: as a float triple; the public array ``BASE_POINT`` is built on first access.
_BASE = (1.0, 0.0, 0.0)


def __getattr__(name: str):
    if name == "BASE_POINT":
        global BASE_POINT  # bound once: later reads skip this hook
        BASE_POINT = np.array(_BASE)
        return BASE_POINT
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def model_point(coords) -> np.ndarray:
    """Normalise a homogeneous 4-tuple or Cartesian 3-tuple to (x, y, z).

    A 4-tuple (x0, x1, x2, x3) requires x0 > 0 and is divided through by
    x0; a 3-tuple is taken as Cartesian coordinates directly.
    """
    return np.array(_point(coords))


def _point(coords) -> tuple[float, float, float]:
    """``model_point`` as a tuple of three Python floats: 3 or 4 floats or ints in a tuple
    or list with no numpy (an int by ``_real``, as numpy reads it), a 1-D array by ``tolist``,
    any other value by ``_reals``.  DomainError for coordinates that are not real numbers
    or beyond double range, another count and x0 not > 0, NaN included."""
    if type(coords) is tuple or type(coords) is list:
        values = coords
    else:
        values = coords.tolist() if type(coords) is np.ndarray and coords.ndim == 1 else ()
    if len(values) == 3:
        x, y, z = values
        if type(x) is type(y) is type(z) is float:
            return x, y, z
    elif len(values) == 4:
        x0, x1, x2, x3 = values
        if type(x0) is type(x1) is type(x2) is type(x3) is float:
            if not x0 > 0.0:
                raise DomainError(f"homogeneous coordinate x0 must be positive, got {x0}")
            return x1 / x0, x2 / x0, x3 / x0
    if len(values) in (3, 4) and all(type(c) is int or type(c) is float for c in values):
        return _point([_real(c, "coordinates") for c in values])
    a = _reals(coords, "coordinates")
    if a.shape not in ((3,), (4,)):
        raise DomainError(f"expected 3 or 4 coordinates, got shape {a.shape}")
    return _point(a.tolist())


def _reals(value, what: str) -> np.ndarray:
    """Caller data ``what`` as a float64 array, as ``np.asarray`` reads it (float64 is not
    copied), objects (ints beyond int64, fractions) each by ``float``; DomainError for
    text, bytes, complex, None, a ragged list and a number beyond double range."""
    try:
        return _floats(value)
    except (TypeError, ValueError):  # not numbers, or a ragged list
        raise DomainError(f"{what} must be real numbers, got {value!r}") from None
    except (OverflowError, FloatingPointError):
        raise DomainError(f"{what} must be within double range") from None


def _floats(value) -> np.ndarray:
    """``_reals`` with the raw errors that it and ``_real`` name."""
    a = np.asarray(value)
    if a.dtype.kind == "O" and not any(  # float would read text, and drop a complex part
            isinstance(c, (str, bytes, complex, np.complexfloating)) for c in a.flat):
        a = np.array([float(c) for c in a.flat]).reshape(a.shape)
    if a.dtype.kind not in "biuf":
        raise TypeError
    if a.dtype == np.float64:
        return a
    with np.errstate(over="raise"):  # a long double beyond double range
        return a.astype(float)


def _real(value, what: str) -> float:
    """A number argument ``what`` as ``float`` reads it: an int (a bool too) or a float
    with no numpy call, any other value as a 0-d ``_reals``.  DomainError otherwise, a
    range error for any number beyond double range (an int, a fraction, a long double)."""
    try:
        if isinstance(value, (int, float)):
            return float(value)
        if (number := _floats(value)).shape == ():
            return float(number)
    except (OverflowError, FloatingPointError):
        raise DomainError(f"{what} must be within double range") from None
    except (TypeError, ValueError):
        pass
    raise DomainError(f"need a number for {what}, got {value!r}")


def _count(value, least: int, what: str, error: type) -> int:
    """Integer ``what`` by ``operator.index`` (not 2.5), at least ``least`` and small enough
    that numpy can address the widest array of that count, ``integrate_geodesic``'s
    (6, count) float64 states (48 bytes a count); else ``error``."""
    with contextlib.suppress(TypeError):
        if least <= (count := operator.index(value)) <= sys.maxsize // 48:
            return count
    raise error(f"need an integer number of {what} >= {least}, got {value!r}")


@contextlib.contextmanager
def _memory_for(count: int, what: str, error: type):
    """Run the work that ``count`` ``what`` size; ``error`` where it exceeds memory."""
    try:
        yield
    except MemoryError:
        raise error(f"not enough memory for {count} {what}") from None


def contains(kind: Geometry, coords) -> bool:
    """Membership predicate of the model set of ``kind``.

    Accepts raw homogeneous 4-tuples or Cartesian 3-tuples; any tuple that
    cannot be normalised (x0 <= 0) is simply not a member.  Boundary points
    (the cone surface, the centre E0) are excluded: the model sets are open.
    """
    try:
        p = _point(coords)
    except DomainError:
        return False
    return _scaled_norm(kind, p)[1]


def _not_member(kind: Geometry, p) -> DomainError:
    coords = tuple(round(float(c), 6) for c in p)
    return DomainError(f"point {coords} is not in the {kind.value} model")


def _guard_member(kind: Geometry, p):
    """Raise DomainError naming the first of the normalised points ``p``, a
    float triple or (N, 3), that is not a member; return their ``_scaled_norm``."""
    norm, inside = _scaled_norm(kind, p)
    if type(p) is tuple and not inside:
        raise _not_member(kind, p)
    if type(p) is not tuple and not inside.all():
        raise _not_member(kind, p[np.argmin(inside)])
    return norm


def _guard_in_range(kind: Geometry, p: tuple) -> None:
    """Guard a float triple p that is a positive multiple of a member, so a
    member wherever it is representable (the model sets are cones): the
    ``_not_member`` DomainError where 0 < |p| < inf (S2xR) or 0 < x < inf (H2xR) fails."""
    if not (_scaled_norm(kind, p)[1] if kind is Geometry.S2R else 0.0 < p[0] < math.inf):
        raise _not_member(kind, p)


def _hypot(a: float, b: float) -> float:
    """C's hypot of two floats, inf where it leaves double range.  The abs
    of a Python complex calls it, as numpy's hypot does, so the bits are
    numpy's; an overflow raises OverflowError here, not numpy's warning."""
    try:
        return abs(complex(a, b))
    except OverflowError:
        return math.inf


def _scaled_norm(kind: Geometry, p):
    """The membership rule on points p, a float triple or (..., 3): the S2xR
    norm |p| = hypot(hypot(x, y), z), or the H2xR spread r = hypot(y, z), and
    the mask 0 < |p| < inf, or r < x < inf.  No coordinate is squared, so
    nothing underflows, a norm beyond double range is inf, and a NaN fails
    every comparison.  A triple is decided in floats by ``_hypot`` (numpy's
    per-call cost and the ``np.errstate`` of its overflow warning would be most
    of a guard), an array by numpy's same hypot under one ``np.errstate``."""
    _require_geometry(kind)
    if type(p) is tuple:
        x, y, z = p
        if kind is Geometry.S2R:
            norm = _hypot(_hypot(x, y), z)
            return norm, 0.0 < norm < math.inf
        r = _hypot(y, z)
        return r, r < x < math.inf
    with np.errstate(over="ignore"):
        if kind is Geometry.S2R:
            norm = np.hypot(np.hypot(p[..., 0], p[..., 1]), p[..., 2])
            return norm, (norm > 0.0) & (norm < math.inf)
        x, r = p[..., 0], np.hypot(p[..., 1], p[..., 2])
        return r, (x > r) & (x < math.inf)


def _fibre_norm(kind: Geometry, p) -> float:
    """sqrt(Q) of one point ``p``, a float triple, after ``_guard_member``,
    as a float, whose log is the fibre height: the S2xR nested hypot; on
    H2xR sqrt(x - r) sqrt(x + r), with x + r beyond 2^1022 in exact quarters
    (the bits of sqrt(x + r) wherever it is finite), and within 2^-20 of the
    cone, where r's rounding is most of x - r, Q rounded once by ``fsum``
    from exact parts: each coordinate, scaled by 2^-e (x = m 2^e), is split
    into 26-bit halves (Veltkamp), whose products are exact."""
    norm = _guard_member(kind, p)
    if kind is Geometry.S2R:
        return norm
    x = p[0]
    if x - norm < 2.0 ** -20 * x:
        e, parts = math.frexp(x)[1], []
        for c, w in zip(p, (1.0, -1.0, -1.0)):
            c = math.ldexp(c, -e)
            hi = c * 134217729.0 - (c * 134217729.0 - c)
            parts += [w * hi * hi, w * 2.0 * hi * (c - hi), w * (c - hi) * (c - hi)]
        return math.ldexp(math.sqrt(math.fsum(parts)), e)
    wide = math.sqrt(x + norm) if x <= 2.0 ** 1022 else 2.0 * math.sqrt(0.25 * x + 0.25 * norm)
    return math.sqrt(x - norm) * wide


def _split(kind: Geometry, p: tuple) -> tuple[float, list]:
    """Fibre height and surface point of one model point, a float triple,
    from ``_fibre_norm``: (f, [sx, sy, sz])."""
    norm = _fibre_norm(kind, p)
    return math.log(norm), [p[0] / norm, p[1] / norm, p[2] / norm]


def require_member(kind: Geometry, p) -> tuple[float, float, float]:
    """Validate membership, returning the ``_point``; DomainError otherwise."""
    p = _point(p)
    if not contains(kind, p):
        raise _not_member(kind, p)
    return p


def metric_at(kind: Geometry, p) -> np.ndarray:
    """Symmetric 3x3 metric tensor g_ij at ``p`` in the Cartesian chart.

    ds^2 = sum_ij g_ij dx^i dx^j.  Positive definite on every member point;
    raises DomainError elsewhere, and where the entries, which scale as
    1/|p|^2, leave double range (members below about 1e-154 or above 1e154).
    """
    p = np.array(require_member(kind, p))
    with np.errstate(all="ignore"):
        g = _metric(kind, *p)
    if not (np.isfinite(g).all() and (np.diagonal(g) > 0.0).all()):
        raise DomainError(f"the {kind.value} metric at {tuple(p.tolist())} "
                          "is not representable in double precision")
    return g


def _metric_entries(kind: Geometry, x, y, z) -> tuple:
    """The nine entries of ``metric_at``, row by row, of trusted coordinates:
    floats, Python complex numbers or arrays of one shape.

    Only + - * / appear, so the formula is analytic and a complex step
    x + ih differentiates it: no abs, hypot or maximum, which have no
    complex derivative.
    """
    if kind is Geometry.S2R:
        diag = 1.0 / (x * x + y * y + z * z)
        off = 0.0 * diag
        return diag, off, off, off, diag, off, off, off, diag
    xx, yy, zz = x * x, y * y, z * z
    q = xx - yy - zz
    qq = q * q
    xy, xz, yz = -2.0 * x * y / qq, -2.0 * x * z / qq, 2.0 * y * z / qq
    return ((xx + yy + zz) / qq, xy, xz,
            xy, (xx + yy - zz) / qq, yz,
            xz, yz, (xx - yy + zz) / qq)


def _metric(kind: Geometry, x, y, z) -> np.ndarray:
    """``metric_at`` of trusted coordinate arrays, real or complex: the
    ``_metric_entries`` assembled with shape (..., 3, 3) for coordinates of
    shape (...)."""
    g = np.array(_metric_entries(kind, x, y, z))  # (9, ...): one copy, no per-entry stacking
    return g.reshape((3, 3) + g.shape[1:]).transpose(tuple(range(2, g.ndim + 1)) + (0, 1))


def _product_points(kind: Geometry, f, w, u) -> np.ndarray:
    """The product chart e^f (along w, across w cos u, across w sin u), cos / sin on
    S2xR and cosh / sinh on H2xR: fibre height f, surface arc w in direction u.
    Floats or arrays of one shape (...) give points (..., 3), unchecked (``_guard_chart``)."""
    with np.errstate(all="ignore"):
        along, across = (np.cos(w), np.sin(w)) if kind is Geometry.S2R else (np.cosh(w), np.sinh(w))
        s = np.exp(f)
        return np.stack([s * along, s * (across * np.cos(u)), s * (across * np.sin(u))], axis=-1)


def _guard_chart(kind: Geometry, points, inputs: tuple, what: str) -> np.ndarray:
    """``points`` (..., 3), a chart's images of ``inputs`` (floats or arrays broadcasting to (...)),
    if all are members; else DomainError naming ``what`` of the first, by its ``inputs``."""
    inside = np.asarray(_scaled_norm(kind, points)[1])
    if not inside.all():
        first = np.unravel_index(np.argmin(inside), inside.shape)
        at = tuple(np.broadcast_to(c, inside.shape)[first].item() for c in inputs)
        raise DomainError(f"the {kind.value} model point at {what} {at} "
                          "is not representable in double precision")
    return points


def to_model(kind: Geometry, t, c1, c2) -> np.ndarray:
    """Map intrinsic coordinates to Cartesian model points.

    For S2xR the intrinsic coordinates are geographic, (t, phi, theta) with
    phi in (-pi, pi] and theta in [-pi/2, pi/2] (the intrinsic ODE's chart):

        (x, y, z) = e^t (cos phi cos theta, sin phi cos theta, sin theta)

    For H2xR they are cylindrical, (t, r, alpha) with r >= 0 and alpha in
    (-pi, pi], which is the product chart ``_product_points``:

        (x, y, z) = e^t (cosh r, sinh r cos alpha, sinh r sin alpha)

    Coordinates are read by ``_reals``: real numbers give one (3,) point, real
    arrays of one broadcast shape (...) points (..., 3).  Every image satisfies
    ``contains`` (``_guard_chart``): DomainError names the first intrinsic triple
    whose point overflows, underflows to the centre or rounds onto the cone.
    """
    try:
        t, c1, c2 = np.broadcast_arrays(*(_reals(c, "intrinsic coordinates") for c in (t, c1, c2)))
    except ValueError:
        raise DomainError("intrinsic coordinates must be of one broadcast shape, "
                          f"got {t!r}, {c1!r}, {c2!r}") from None
    return _chart_points(kind, t, c1, c2)


def _chart_points(kind: Geometry, t, c1, c2) -> np.ndarray:
    """``to_model`` of trusted float arrays of one shape, guarded by ``_guard_chart``."""
    if kind is Geometry.S2R:  # c1, c2 = phi, theta
        with np.errstate(all="ignore"):
            s, cos_theta = np.exp(t), np.cos(c2)
            points = np.stack([s * (np.cos(c1) * cos_theta), s * (np.sin(c1) * cos_theta),
                               s * np.sin(c2)], axis=-1)
    else:  # c1, c2 = r, alpha
        points = _product_points(kind, t, c1, c2)
    return _guard_chart(kind, points, (t, c1, c2), "intrinsic coordinates")
