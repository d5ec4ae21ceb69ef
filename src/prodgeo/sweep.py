"""One-parameter angle-sum families S(t) with the third vertex on a ray.

The third vertex slides along the half line t -> (1 : t x3 : t y3 : t z3)
from the model centre.  S(t) tends to pi at both ends (t -> 0 and
t -> infinity) and has a single interior extremum: a maximum above pi in
S2xR, a minimum below pi in H2xR.  Families whose ray is coplanar with the
base point, the second vertex and the centre are flat: S(t) = pi identically.

Along the ray only the third vertex's fibre height u + f3(ray), u = log t,
moves: its surface point ray / sqrt(Q(ray)) is fixed, as Q is homogeneous
of degree two.  So the surface arcs of sides 1-3 and 2-3 and the surface
angles at the three vertices are constants of the family: its ray part,
the triangles' own closed form (``triangles._closed_form``) of the
triangle (base point, a2, ray), built as the ``SweepSpec`` is.  u shifts
its two rises: S at one t (``angle_sum_at``) and dS/du are
``triangles._angles_at`` at u, the grid is ``triangles._sums_at`` over an
array of u, and the extremum is the root of dS/du.
"""

from __future__ import annotations

import enum
import math
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

from .core import BASE_POINT, Geometry, _guard_member, _split, model_point
from .exceptions import ConsistencyError, DomainError
from .tolerances import DEFAULT
from .triangles import _angles_at, _closed_form, _coplanar, _require_distinct, _sums_at

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
_EPS = float(np.finfo(float).eps)


class ExtremumKind(enum.Enum):
    MAXIMUM = "maximum"
    MINIMUM = "minimum"
    FLAT = "degenerate-flat"


@dataclass(frozen=True, eq=False)
class SweepSpec:
    """The triangles (base point, a2, t * ray), t in [t_min, t_max], checked
    once, here, as a ``GeodesicTriangle`` is.  DomainError for a kind not a
    ``Geometry``, an a2 or a ray direction outside the model, t_min and
    t_max not numbers with finite 0 < t_min < t_max, or samples not an
    integer >= 8; then DegenerateError where a2 is a1 and, as at every t,
    where two S2xR surface points of a1, a2 and the ray are antipodal.
    ``_ray`` is the family's ray part, ``triangles._closed_form`` of (base
    point, a2, ray)."""

    kind: Geometry
    a2: np.ndarray
    ray: np.ndarray
    t_min: float = 1e-3
    t_max: float = 5.0
    samples: int = 512

    def __post_init__(self):
        # each split is its point's membership check
        a2 = model_point(self.a2)
        a2_split = _split(self.kind, a2)
        ray = model_point(self.ray)
        object.__setattr__(self, "a2", a2)
        object.__setattr__(self, "ray", ray)
        for name in ("t_min", "t_max"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real):  # float() would also read text
                raise DomainError(f"need a number for {name}, got {value!r}")
            object.__setattr__(self, name, float(value))
        if not (0.0 < self.t_min < self.t_max < math.inf):
            raise DomainError(f"need finite 0 < t_min < t_max, got ({self.t_min}, {self.t_max})")
        try:
            samples = operator.index(self.samples)
        except TypeError:
            samples = None
        if samples is None or samples < 8:
            raise DomainError(f"need an integer number of samples >= 8, got {self.samples!r}")
        object.__setattr__(self, "samples", samples)
        # membership of t * ray is scale-invariant, so the direction decides
        try:
            ray_split = _split(self.kind, ray)
        except DomainError:
            raise DomainError(f"ray direction {tuple(ray)} leaves the "
                              f"{self.kind.value} model") from None
        _require_distinct((BASE_POINT, a2))
        object.__setattr__(self, "_ray", _closed_form(self.kind, _split(self.kind, BASE_POINT),
                                                      a2_split, ray_split))


@dataclass(frozen=True, eq=False)
class SweepResult:
    series: np.ndarray  # shape (samples, 2): columns t, S(t)
    t_extremum: float
    s_extremum: float
    extremum_kind: ExtremumKind
    #: the extremum is a turning point inside (t_min, t_max), not the best
    #: value at an end of the range; False for flat families
    interior: bool
    spec: SweepSpec = field(repr=False)


def _check_third_vertices(spec: SweepSpec, t) -> None:
    """Check t * ray for a float t or an array of them: DomainError naming
    the first outside the model (t * ray leaves it if it underflows to zero
    or overflows to inf), then DegenerateError where one is on a1 or a2."""
    with np.errstate(over="ignore"):  # an overflowing vertex fails the guard
        a3 = np.multiply.outer(t, spec.ray)
    _guard_member(spec.kind, a3)
    _require_distinct((BASE_POINT, spec.a2, a3), new=2)


def angle_sum_at(spec: SweepSpec, t: float) -> float:
    """S(t): the interior angle sum of the triangle with third vertex t*ray,
    for a finite t > 0 (DomainError otherwise): the closed form at u = log t.
    Only t*ray is checked (``_check_third_vertices``)."""
    if not 0.0 < t < math.inf:
        raise DomainError(f"need a finite parameter t > 0, got {t}")
    _check_third_vertices(spec, t)
    return _angles_at(spec._ray, math.log(t))[0].total


def _bracket(ts: np.ndarray, sums: np.ndarray, sign: float) -> tuple[float, float]:
    """The two cells of the sampled ``ts`` around the largest of ``sign * sums``."""
    best = int(np.argmax(sign * sums))
    return ts[max(best - 1, 0)], ts[min(best + 1, len(ts) - 1)]


def _turning_point(spec: SweepSpec, lo: float, hi: float, sign: float):
    """(t, S(t)) where sign * dS/du falls through zero in [lo, hi], or None
    when it has no sign change there."""
    part = spec._ray

    def slope(u):
        return sign * _angles_at(part, u)[1]

    a, b = math.log(lo), math.log(hi)
    fa, fb = slope(a), slope(b)
    if not fa > 0.0 > fb:
        return None
    u = _zero(slope, a, fa, b, fb)
    return math.exp(u), _angles_at(part, u)[0].total


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
    """Sample S(t) on a log-spaced grid and refine the interior extremum.

    The grid is logarithmic because the extremum of interest sits at small
    t.  Every grid vertex t*ray is checked for membership (DomainError) and
    for distinctness from a1 and a2 (DegenerateError) by one guard
    (``_check_third_vertices``).  The grid sums are the family's closed form
    over u = log t (``triangles._sums_at``), with no triangle built.  A
    family is flat when its ray is coplanar with the base point, a2 and the
    centre and every grid sum lies within ``flat_band`` of pi; a family off
    that plane has a strict extremum however close to pi it stays.  Otherwise the
    extremum is refined on the same closed form (``triangles._angles_at``):
    it is interior when dS/du changes sign across the grid cells around the
    best sample, and then the root of dS/du there (``_zero``) and S at it;
    otherwise the result is the better end of the range and S there.
    """
    grid = np.geomspace(spec.t_min, spec.t_max, spec.samples)
    _check_third_vertices(spec, grid)
    sums = _sums_at(spec._ray, np.log(grid))
    series = np.column_stack([grid, sums])

    if (_coplanar(BASE_POINT, spec.a2, spec.ray)
            and np.abs(sums - math.pi).max() <= DEFAULT.flat_band):
        t0 = math.sqrt(spec.t_min * spec.t_max)
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
    far vertex leaves the model.  Monotone approach of the tails toward pi
    holds for unimodal families and is exercised by the test suites.
    """
    near = angle_sum_at(spec, spec.t_min)
    far = angle_sum_at(spec, t_far)
    for label, value in (("near", near), ("far", far)):
        if spec.kind.curvature * (value - math.pi) < -DEFAULT.flat_band:
            raise ConsistencyError(
                f"{label} angle sum {value} on the wrong side of pi for {spec.kind.value}"
            )
    return near, far
