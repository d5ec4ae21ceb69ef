"""One-parameter angle-sum families S(t) with the third vertex on a ray.

The third vertex slides along the half line t -> (1 : t x3 : t y3 : t z3)
from the model centre.  S(t) tends to pi at both ends (t -> 0 and
t -> infinity) and has a single interior extremum: a maximum above pi in
S2xR, a minimum below pi in H2xR.  Families whose ray is coplanar with the
base point, the second vertex and the centre are flat: S(t) = pi identically.

Along the ray only the third vertex's fibre height u + f3(ray), u = log t,
moves: its surface point ray / sqrt(Q(ray)) is fixed, as Q is homogeneous
of degree two.  So the surface arcs and angles are constants of the
family: its ray part, the triangles' closed form (``triangles._closed_form``)
of (base point, a2, ray), built with the ``SweepSpec``.  S at one t and on the
grid is ``triangles._angles_at`` at u and over the grid's u, and the extremum
the root of dS/du, ``triangles._slope_at``.  As both model sets are cones, t * ray
is a member wherever it is representable: it is checked from the ray, in
floats, for its range and for a1 and a2 (``_check_third_vertices``).
"""

from __future__ import annotations

import contextlib
import enum
import math
import sys

from .core import (_BASE, Geometry, _count, _guard_in_range, _memory_for, _point, _real, _Record,
                   _require_record, _split, np)
from .exceptions import ConsistencyError, DegenerateError, DomainError
from .tolerances import DEFAULT
from .triangles import _angles_at, _closed_form, _coplanar, _require_distinct, _slope_at

__all__ = [
    "ExtremumKind",
    "SweepSpec",
    "SweepResult",
    "angle_sum_at",
    "evaluate",
    "limits_check",
]

#: the spacing of doubles at 1; ``_zero`` resolves u = log t to twice it,
#: relative to |u| above 1
_EPS = sys.float_info.epsilon

#: ``evaluate`` sums its grid in blocks of this many samples, which bounds the kernel's buffers
_BLOCK = 4096


class ExtremumKind(enum.Enum):
    MAXIMUM = "maximum"
    MINIMUM = "minimum"
    FLAT = "degenerate-flat"


class SweepSpec(_Record):
    """The triangles (base point, a2, t * ray), t in [t_min, t_max], checked
    once, here, as a ``GeodesicTriangle`` is.  DomainError for a kind not a
    ``Geometry``, an a2 or a ray direction outside the model, t_min and
    t_max not numbers with finite 0 < t_min < t_max, or samples not an
    integer >= 8; then DegenerateError where a2 is a1 and, as at every t,
    where two S2xR surface points of a1, a2 and the ray are antipodal.
    ``a2`` and ``ray`` are arrays; ``_triples`` are a1, a2 and the ray as float
    triples, ``_ray`` the family's ray part (``triangles._closed_form``)."""

    _fields = ("kind", "a2", "ray", "t_min", "t_max", "samples")

    def __init__(self, kind: Geometry, a2, ray, t_min: float = 1e-3, t_max: float = 5.0,
                 samples: int = 512):
        # each split is its point's membership check
        a1, a2 = _BASE, _point(a2)
        a2_split = _split(kind, a2)
        ray = _point(ray)
        t_min, t_max = _real(t_min, "t_min"), _real(t_max, "t_max")
        if not (0.0 < t_min < t_max < math.inf):
            raise DomainError(f"need finite 0 < t_min < t_max, got ({t_min}, {t_max})")
        count = _count(samples, 8, "samples", DomainError)
        # membership of t * ray is scale-invariant, so the direction decides
        try:
            ray_split = _split(kind, ray)
        except DomainError:
            raise DomainError(f"ray direction {ray} leaves the {kind.value} model") from None
        _require_distinct((a1, a2))
        vars(self).update(kind=kind, a2=np.array(a2), ray=np.array(ray), t_min=t_min,
                          t_max=t_max, samples=count, _triples=(a1, a2, ray),
                          _ray=_closed_form(kind, _split(kind, a1), a2_split, ray_split))


class SweepResult(_Record):
    """What ``evaluate`` found for ``spec`` (left out of the repr): the ``series``,
    columns t and S(t), and the extremum, ``interior`` when a turning point inside
    (t_min, t_max), not the better end of the range; never for a flat family."""

    _fields = ("series", "t_extremum", "s_extremum", "extremum_kind", "interior")

    def __init__(self, series: np.ndarray, t_extremum: float, s_extremum: float,
                 extremum_kind: ExtremumKind, interior: bool, spec: SweepSpec):
        vars(self).update(series=series, t_extremum=t_extremum, s_extremum=s_extremum,
                          extremum_kind=extremum_kind, interior=interior, spec=spec)


def _check_third_vertices(spec: SweepSpec, t: float) -> None:
    """Check t * ray for one float t, in floats: DomainError where it has left
    double range (``core._guard_in_range``), then DegenerateError on a1 or a2."""
    a1, a2, (x, y, z) = spec._triples
    a3 = (t * x, t * y, t * z)
    _guard_in_range(spec.kind, a3)
    _require_distinct((a1, a2, a3))


def _near_a1_a2(spec: SweepSpec, grid: np.ndarray):
    """Yield the t of the increasing ``grid``, bisected by its ``searchsorted``, where t * ray
    can be on p = a1 or a2: within 4 ``vertex_gap`` (relative; a coincidence is within about
    1) of p_k / ray_k, k the index of the ray's largest |coordinate|, and subnormal rounding."""
    a1, a2, ray = spec._triples
    k = max(range(3), key=lambda i: abs(ray[i]))
    for p in (a1, a2):
        rho = min(p[k] / ray[k], math.nextafter(math.inf, 0.0))  # an inf quotient: t near the top
        width = 4.0 * DEFAULT.vertex_gap * abs(rho) + 2.0 ** -1070 + 2.0 ** -1070 / abs(ray[k])
        low, high = grid.searchsorted(rho - width), grid.searchsorted(rho + width, "right")
        yield from grid[low:high].tolist()


def angle_sum_at(spec: SweepSpec, t: float) -> float:
    """S(t): the interior angle sum of the triangle with third vertex t*ray,
    for a finite t > 0 (DomainError otherwise): the closed form at u = log t.
    Only t*ray is checked (``_check_third_vertices``)."""
    _require_record(spec, SweepSpec)
    t = _real(t, "t")
    if not 0.0 < t < math.inf:
        raise DomainError(f"need a finite parameter t > 0, got {t}")
    _check_third_vertices(spec, t)
    return _angles_at(spec._ray, math.log(t)).total


def _bracket(ts: np.ndarray, sums: np.ndarray, sign: float) -> tuple[float, float]:
    """The two cells of the sampled ``ts`` around the first largest of ``sign * sums``."""
    best = int(sums.argmax() if sign > 0.0 else sums.argmin())
    return ts[max(best - 1, 0)], ts[min(best + 1, len(ts) - 1)]


def _turning_point(spec: SweepSpec, lo: float, hi: float, sign: float):
    """(t, S(t)) where sign * dS/du falls through zero in [lo, hi], or None
    when it has no sign change there."""
    part = spec._ray

    def slope(u):
        return sign * _slope_at(part, u)

    a, b = math.log(lo), math.log(hi)
    fa, fb = slope(a), slope(b)
    if not fa > 0.0 > fb:
        return None
    u = _zero(slope, a, fa, b, fb)
    return math.exp(u), _angles_at(part, u).total


def _zero(f, a: float, fa: float, b: float, fb: float) -> float:
    """A zero of ``f`` between a and b, where fa and fb have opposite signs,
    to twice the spacing of doubles there (4.4e-16 below 1): Brent's
    method (*Algorithms for Minimization without Derivatives*, 1973, ch. 4).
    Secant and inverse quadratic steps stay inside a bracket [b, c] that
    keeps the sign change; a step that does not shrink it fast enough is a
    bisection."""
    c, fc = a, fa
    d = e = b - a
    while True:
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c, fa, fb, fc = b, c, b, fb, fc, fb
        tol = 2.0 * _EPS * max(abs(b), 1.0)
        half = 0.5 * (c - b)
        if abs(half) <= tol or fb == 0.0:
            return b
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p, q = 2.0 * half * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            p, q = abs(p), (-q if p > 0.0 else q)
            if 2.0 * p < min(3.0 * half * q - abs(tol * q), abs(e * q)):
                d, e = p / q, d
            else:
                d = e = half
        else:
            d = e = half
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, half)
        fb = f(b)


def evaluate(spec: SweepSpec) -> SweepResult:
    """Sample S(t) on a log-spaced grid (DomainError beyond memory) and refine the extremum.

    The grid is logarithmic, as the extremum of interest sits at small t: ``np.geomspace``'s
    grid to the bit, without its argument handling.  Its vertices t*ray are checked
    (``_check_third_vertices``) at both ends and near a1 and a2 (``_near_a1_a2``), where alone
    a check can fail, and at every t once one fails.  The grid sums are the closed form over
    u = log t (``triangles._angles_at``), ``_BLOCK`` samples a pass, with no triangle built.
    A family is flat, with t0 the geometric mean of the range ends, when its ray is coplanar
    with the base point, a2 and the centre and every grid sum lies within ``flat_band`` of
    pi; a family off that plane has a strict extremum however close to pi it stays.
    Otherwise the extremum is refined on the same closed form: it is interior when dS/du
    (``triangles._slope_at``) changes sign across the grid cells around the best sample, and
    then the root of dS/du there (``_zero``) and S at it; else the better range end and S there.
    """
    _require_record(spec, SweepSpec)
    with _memory_for(spec.samples, "samples", DomainError):
        lo, hi = np.log10([spec.t_min, spec.t_max]).tolist()  # np.geomspace, to the bit
        grid = np.arange(spec.samples, dtype=float) * ((hi - lo) / (spec.samples - 1)) + lo
        np.power(10.0, grid, out=grid)
        grid[0], grid[-1] = spec.t_min, spec.t_max
        try:  # |t * ray| grows with t: if both ends are in double range, all t are
            for t in (spec.t_min, spec.t_max, *_near_a1_a2(spec, grid)):
                _check_third_vertices(spec, t)
        except (DomainError, DegenerateError):
            for t in grid.tolist():  # the first vertex out of range is named before any on a1 or a2
                with contextlib.suppress(DegenerateError):
                    _check_third_vertices(spec, t)
            raise
        sums = np.concatenate([_angles_at(spec._ray, np.log(grid[i:i + _BLOCK])).total
                               for i in range(0, spec.samples, _BLOCK)])
        series = np.column_stack([grid, sums])

        if _coplanar(*spec._triples) and np.abs(sums - math.pi).max() <= DEFAULT.flat_band:
            t0 = math.sqrt(spec.t_min) * math.sqrt(spec.t_max)  # t_min * t_max can leave range
            return SweepResult(series, t0, math.pi, ExtremumKind.FLAT, False, spec)

        sign = spec.kind.curvature
        kind = ExtremumKind.MAXIMUM if sign > 0.0 else ExtremumKind.MINIMUM
        turn = _turning_point(spec, *_bracket(grid, sums, sign), sign)
        if turn is None:
            end = -1 if (sums[-1] > sums[0]) == (sign > 0.0) else 0
            return SweepResult(series, float(grid[end]), float(sums[end]), kind, False, spec)
        return SweepResult(series, *turn, kind, True, spec)


def limits_check(spec: SweepSpec, t_far: float = 1e3) -> tuple[float, float]:
    """S at the near end of the range and at a large parameter ``t_far``.

    Both values must sit on the theorem side of pi (>= pi for S2xR,
    <= pi for H2xR), else ConsistencyError; DomainError propagates if the
    far vertex leaves double range.
    """
    _require_record(spec, SweepSpec)
    near = angle_sum_at(spec, spec.t_min)
    far = angle_sum_at(spec, t_far)
    for label, value in (("near", near), ("far", far)):
        if spec.kind.curvature * (value - math.pi) < -DEFAULT.flat_band:
            raise ConsistencyError(
                f"{label} angle sum {value} on the wrong side of pi for {spec.kind.value}"
            )
    return near, far
