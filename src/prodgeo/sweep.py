"""One-parameter angle-sum families S(t) with the third vertex on a ray.

The third vertex slides along the half line t -> (1 : t x3 : t y3 : t z3)
from the model centre.  S(t) tends to pi at both ends (t -> 0 and
t -> infinity) and has a single interior extremum: a maximum above pi in
S2xR, a minimum below pi in H2xR.  Families whose ray is coplanar with the
base point, the second vertex and the centre are flat: S(t) = pi identically.

Along the ray only the third vertex's fibre height u + f3(ray), u = log t,
moves: its surface point ray / sqrt(Q(ray)) is fixed, as Q is homogeneous
of degree two.  So the surface arcs of sides 1-3 and 2-3 and the surface
angles at the three vertices are constants of the family, each interior
angle is a closed form in u, and so is dS/du.  The sampled grid is that
closed form over an array of u, S at one t (``angle_sum_at``) is it at one
u, and the extremum is the root of dS/du; the triangle kernel is the
reference the tests compare them with.
"""

from __future__ import annotations

import enum
import math
import numbers
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import BASE_POINT, Geometry, _guard_member, _split, model_point, require_member
from .exceptions import ConsistencyError, DegenerateError, DomainError
from .geodesics import _tangent_sq
from .tolerances import DEFAULT
from .triangles import _TINY, _coplanar, _require_distinct

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
    """The triangles (base point, a2, t * ray), t in [t_min, t_max].  DomainError
    for a kind not a ``Geometry``, an a2 or a ray direction outside the model,
    t_min and t_max not numbers with finite 0 < t_min < t_max, or samples not an
    integer >= 8; DegenerateError from the ray part (``_ray``) on first use."""

    kind: Geometry
    a2: np.ndarray
    ray: np.ndarray
    t_min: float = 1e-3
    t_max: float = 5.0
    samples: int = 512

    def __post_init__(self):
        object.__setattr__(self, "a2", require_member(self.kind, self.a2))
        ray = model_point(self.ray)
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
        # membership of t * ray is scale-invariant, so the direction decides:
        # its split is the check, and the ray part (``_ray``) is built on it
        try:
            object.__setattr__(self, "_ray_split", _split(self.kind, ray))
        except DomainError:
            raise DomainError(f"ray direction {tuple(ray)} leaves the "
                              f"{self.kind.value} model") from None

    @cached_property
    def _ray(self) -> tuple:
        """The ray part, in floats: the fibre offsets f3(ray) - f1 and
        f3(ray) - f2 of the rises r13(u), r23(u), the surface arcs d13 and
        d23, the fibre angles of side 1-2 at a1 and a2, and at each vertex
        sin^2 and cos^2 of half the surface angle between its two sides.

        Raises DegenerateError where a2 is a1 and, as the kernel does for every
        t, where two S2xR surface points of a1, a2 and the ray are antipodal."""
        _require_distinct((BASE_POINT, self.a2))
        (f1, s1), (f2, s2) = _split(self.kind, BASE_POINT), _split(self.kind, self.a2)
        f3, s3 = self._ray_split
        s1, s2, s3 = s1.tolist(), s2.tolist(), s3.tolist()
        d13, at1_3, at3_1 = _arc(self.kind, s1, s3)
        d23, at2_3, at3_2 = _arc(self.kind, s2, s3)
        d12, at1_2, at2_1 = _arc(self.kind, s1, s2)
        halves = [_half_angle(self.kind, *ends)
                  for ends in ((s1, at1_2, at1_3), (s2, at2_1, at2_3), (s3, at3_1, at3_2))]
        return (float(f3 - f1), float(f3 - f2), d13, d23,
                math.atan2(d12, f2 - f1), math.atan2(d12, f1 - f2), *halves)


def _arc(kind: Geometry, p: list, q: list) -> tuple[float, list, list]:
    """``geodesics._surface_arc`` of two surface points as float lists, and
    its mirror image: the arc length and the unit surface directions at p
    toward q and at q toward p (zero where the points coincide).  An S2xR
    arc on the cut locus raises DegenerateError, by the kernel's test."""
    cos = p[0] * q[0] + kind.curvature * (p[1] * q[1] + p[2] * q[2])
    at_p = [b - cos * a for a, b in zip(p, q)]
    at_q = [a - cos * b for a, b in zip(p, q)]
    sin_p, sin_q = math.sqrt(_tangent_sq(kind, p, at_p)), math.sqrt(_tangent_sq(kind, q, at_q))
    if kind is Geometry.S2R and cos < 0.0 and sin_p <= DEFAULT.cut_locus:
        raise DegenerateError("two vertices have antipodal S2 points: the side is not unique")
    dist = math.atan2(sin_p, cos) if kind is Geometry.S2R else math.asinh(sin_p)
    return dist, [c / (sin_p + _TINY) for c in at_p], [c / (sin_q + _TINY) for c in at_q]


def _half_angle(kind: Geometry, s: list, one: list, two: list) -> tuple[float, float]:
    """sin^2 and cos^2 of half the angle between unit surface directions at
    ``s``: a quarter of the squared lengths of their difference and sum."""
    return (0.25 * _tangent_sq(kind, s, [a - b for a, b in zip(one, two)]),
            0.25 * _tangent_sq(kind, s, [a + b for a, b in zip(one, two)]))


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


def angle_sum_at(spec: SweepSpec, t: float) -> float:
    """S(t): the interior angle sum of the triangle with third vertex t*ray,
    for a finite t > 0 (DomainError otherwise): the closed form at u = log t.
    Only t*ray is checked, for membership (it leaves the model if it
    underflows to zero or overflows to inf) and distinctness from a1, a2."""
    if not 0.0 < t < math.inf:
        raise DomainError(f"need a finite parameter t > 0, got {t}")
    with np.errstate(over="ignore"):
        a3 = t * spec.ray
    _guard_member(spec.kind, a3)
    _require_distinct((BASE_POINT, spec.a2, a3), new=2)
    return _sum_and_slope(spec._ray, math.log(t))[0]


def _angle(a: float, b: float, half_sin: float, half_cos: float) -> tuple[float, float, float]:
    """The angle between unit tangents with fibre angles a and b whose
    surface parts meet at an angle g, with sin^2(g/2) and cos^2(g/2) given,
    and its partial derivatives in a and b.

    It is the kernel's w = 2 atan2(h, k), with h = |u - v| / 2 and
    k = |u + v| / 2 from sums of terms >= 0:
    h^2 = sin^2((a - b) / 2) + sin a sin b sin^2(g / 2) and
    k^2 = cos^2((a + b) / 2) + sin a sin b cos^2(g / 2).  From
    cos w = cos a cos b + sin a sin b cos g, its derivative in b is
    (sin(b - a) + 2 sin a cos b sin^2(g / 2)) / sin w, sin w = 2 h k."""
    sin_a, sin_b = math.sin(a), math.sin(b)
    cross = sin_a * sin_b
    h = math.sqrt(math.sin(0.5 * (a - b)) ** 2 + cross * half_sin)
    k = math.sqrt(math.cos(0.5 * (a + b)) ** 2 + cross * half_cos)
    by_sin = 0.5 / (h * k + _TINY)  # 1 / sin w, as h^2 + k^2 = 1; no 0 / 0
    return (2.0 * math.atan2(h, k),
            (math.sin(a - b) + 2.0 * sin_b * math.cos(a) * half_sin) * by_sin,
            (math.sin(b - a) + 2.0 * sin_a * math.cos(b) * half_sin) * by_sin)


def _angles(a, b, cross, half_sin: float, half_cos: float) -> np.ndarray:
    """``_angle``'s w = 2 atan2(h, k) where a or b is an array of fibre
    angles, with cross = sin a sin b."""
    h = np.sqrt(np.sin(0.5 * (a - b)) ** 2 + cross * half_sin)
    k = np.sqrt(np.cos(0.5 * (a + b)) ** 2 + cross * half_cos)
    return 2.0 * np.arctan2(h, k)


def _sums_along(ray_part: tuple, u: np.ndarray) -> np.ndarray:
    """S at the array ``u`` of log t: the S half of ``_sum_and_slope``, in
    numpy, with the angles summed in the same order."""
    off13, off23, d13, d23, at1, at2, (sin1, cos1), (sin2, cos2), (sin3, cos3) = ray_part
    b13, b23 = np.arctan2(d13, u + off13), np.arctan2(d23, u + off23)
    sin13, sin23 = np.sin(b13), np.sin(b23)
    return (_angles(at1, b13, math.sin(at1) * sin13, sin1, cos1)
            + _angles(at2, b23, math.sin(at2) * sin23, sin2, cos2)
            + _angles(b13, b23, sin13 * sin23, sin3, cos3))


def _sum_and_slope(ray_part: tuple, u: float) -> tuple[float, float]:
    """S and dS/du at u = log t, from the family's ray part (``SweepSpec._ray``).

    The sides toward a3 leave a1 and a2 at the fibre angles b = atan2(d, r)
    of their rises r13 = u + f3(ray) - f1 and r23 = u + f3(ray) - f2, with
    db/du = -d / (r^2 + d^2).  They reach a3 at the supplements pi - b13
    and pi - b23, which meet at the angle between b13 and b23."""
    off13, off23, d13, d23, at1, at2, (sin1, cos1), (sin2, cos2), (sin3, cos3) = ray_part
    r13, r23 = u + off13, u + off23
    b13, b23 = math.atan2(d13, r13), math.atan2(d23, r23)
    w1, _, w1_b13 = _angle(at1, b13, sin1, cos1)
    w2, _, w2_b23 = _angle(at2, b23, sin2, cos2)
    w3, w3_b13, w3_b23 = _angle(b13, b23, sin3, cos3)
    slope = (-(w1_b13 + w3_b13) * d13 / (r13 * r13 + d13 * d13)
             - (w2_b23 + w3_b23) * d23 / (r23 * r23 + d23 * d23))
    return w1 + w2 + w3, slope


def _bracket(ts: np.ndarray, sums: np.ndarray, sign: float) -> tuple[float, float]:
    """The two cells of the sampled ``ts`` around the largest of ``sign * sums``."""
    best = int(np.argmax(sign * sums))
    return ts[max(best - 1, 0)], ts[min(best + 1, len(ts) - 1)]


def _turning_point(spec: SweepSpec, lo: float, hi: float, sign: float):
    """(t, S(t)) where sign * dS/du falls through zero in [lo, hi], or None
    when it has no sign change there."""
    part = spec._ray

    def slope(u):
        return sign * _sum_and_slope(part, u)[1]

    a, b = math.log(lo), math.log(hi)
    fa, fb = slope(a), slope(b)
    if not fa > 0.0 > fb:
        return None
    u = _zero(slope, a, fa, b, fb)
    return math.exp(u), _sum_and_slope(part, u)[0]


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
    for distinctness from a1 and a2 (DegenerateError); the family's ray
    part then raises DegenerateError for an S2xR side on the cut locus.
    The grid sums are the closed form of that ray part over u = log t
    (``_sums_along``), with no triangle kernel batch.  A family is flat
    when its ray is coplanar with the base point, a2 and the centre and
    every grid sum lies within ``flat_band`` of pi; a family off that plane
    has a strict extremum however close to pi it stays.  Otherwise the
    extremum is refined on the same closed form (``_sum_and_slope``): it is
    interior when dS/du changes sign across the grid cells around the best
    sample, and then the root of dS/du there (``_zero``) and S at it;
    otherwise the result is the better end of the range and S there.
    """
    grid = np.geomspace(spec.t_min, spec.t_max, spec.samples)
    with np.errstate(over="ignore"):  # an overflowing vertex fails the guard
        points = grid[:, None] * spec.ray
    _guard_member(spec.kind, points)
    _require_distinct((BASE_POINT, spec.a2, points), new=2)
    sums = _sums_along(spec._ray, np.log(grid))
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
