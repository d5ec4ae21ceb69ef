"""One-parameter angle-sum families S(t) with the third vertex on a ray.

The third vertex slides along the half line t -> (1 : t x3 : t y3 : t z3)
from the model centre.  S(t) tends to pi at both ends (t -> 0 and
t -> infinity) and has a single interior extremum: a maximum above pi in
S2xR, a minimum below pi in H2xR.  Families whose ray is coplanar with the
base point, the second vertex and the centre are flat: S(t) = pi identically.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import BASE_POINT, Geometry, _split, contains, require_member
from .exceptions import ConsistencyError, DomainError
from .tolerances import DEFAULT
from .triangles import _coplanar, _fixed_side, _require_distinct, _third_vertex

__all__ = [
    "ExtremumKind",
    "SweepSpec",
    "SweepResult",
    "angle_sum_at",
    "evaluate",
    "limits_check",
]

#: points per round of the bracket zoom: 32 cells, of which two are kept
_ZOOM_POINTS = 33
#: the zoom stops at this bracket width
_ZOOM_WIDTH = 1e-7


class ExtremumKind(enum.Enum):
    MAXIMUM = "maximum"
    MINIMUM = "minimum"
    FLAT = "degenerate-flat"


@dataclass(frozen=True, eq=False)
class SweepSpec:
    kind: Geometry
    a2: np.ndarray
    ray: np.ndarray
    t_min: float = 1e-3
    t_max: float = 5.0
    samples: int = 512

    def __post_init__(self):
        object.__setattr__(self, "a2", require_member(self.kind, self.a2))
        ray = np.asarray(self.ray, dtype=float)
        object.__setattr__(self, "ray", ray)
        if not (0.0 < self.t_min < self.t_max < math.inf):
            raise DomainError(f"need finite 0 < t_min < t_max, got ({self.t_min}, {self.t_max})")
        if self.samples < 8:
            raise DomainError(f"need at least 8 samples, got {self.samples}")
        # membership of t * ray is scale-invariant, so the direction decides
        if not contains(self.kind, ray):
            raise DomainError(f"ray direction {tuple(ray)} leaves the {self.kind.value} model")

    @cached_property
    def _fixed(self) -> tuple:
        """The kernel's fixed part: side 1-2 of every triangle of the family."""
        _require_distinct((BASE_POINT, self.a2))
        return _fixed_side(self.kind, BASE_POINT, self.a2)


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
    """S(t): the interior angle sum of the triangle with third vertex t*ray;
    only t*ray is checked, by the guard of its split, as it leaves the model
    if it underflows to zero or overflows to inf."""
    with np.errstate(over="ignore"):
        a3 = t * spec.ray
    return float(_sums(spec, a3))


def _sums(spec: SweepSpec, a3: np.ndarray):
    """S at the third vertices ``a3``, (3,) or (N, 3), guarded by their split."""
    f3, s3 = _split(spec.kind, a3)
    _require_distinct((BASE_POINT, spec.a2, a3), new=2)
    return _third_vertex(spec.kind, spec._fixed, f3, s3).total


def _bracket(ts: np.ndarray, sums: np.ndarray, sign: float) -> tuple[float, float]:
    """The two cells of the sampled ``ts`` around the largest of ``sign * sums``."""
    best = int(np.argmax(sign * sums))
    return ts[max(best - 1, 0)], ts[min(best + 1, len(ts) - 1)]


def _zoom(spec: SweepSpec, lo: float, hi: float, sign: float) -> tuple[float, float]:
    """Shrink the bracket [lo, hi] around the extremum of S: each round
    samples it at ``_ZOOM_POINTS`` points and keeps the two cells around the
    best one, until the bracket is narrower than ``_ZOOM_WIDTH``."""
    while hi - lo > _ZOOM_WIDTH:
        ts = np.linspace(lo, hi, _ZOOM_POINTS)
        lo, hi = _bracket(ts, _sums(spec, ts[:, None] * spec.ray), sign)
    t = 0.5 * (lo + hi)
    return t, float(_sums(spec, t * spec.ray))


def evaluate(spec: SweepSpec) -> SweepResult:
    """Sample S(t) on a log-spaced grid and refine the interior extremum.

    The grid is logarithmic because the extremum of interest sits at small
    t.  The whole grid is one batch of triangles against the family's fixed
    side; every third vertex t*ray is checked for membership once, when the
    kernel splits it.  A family is flat when its ray is coplanar with the
    base point, a2 and the centre and every grid sum lies within
    ``flat_band`` of pi; a family off that plane has a strict extremum
    however close to pi it stays.  Otherwise refinement is a batched
    bracket zoom on the grid cells around the best sample (see ``_zoom``),
    to a bracket width of 1e-7.  The extremum is interior when S there
    beats S at both ends of the range by more than ``sweep_resolution``;
    otherwise the result is the better end of the range and S there.
    Where S is monotone toward an end to within rounding, noise can pull
    the zoom's bracket off that end, so its midpoint is not reported.  On
    ranges cut to one side of the extremum, of random, near-axis,
    near-coplanar and needle families (a2 within 1e-7 to 1e-2 of the base
    point), S at the zoom's result beat the best end by at most 8.9e-16, a
    tenth of the resolution.
    """
    grid = np.geomspace(spec.t_min, spec.t_max, spec.samples)
    with np.errstate(over="ignore"):  # an overflowing vertex fails the guard
        points = grid[:, None] * spec.ray
    sums = _sums(spec, points)
    series = np.column_stack([grid, sums])

    if (_coplanar(BASE_POINT, spec.a2, spec.ray)
            and np.abs(sums - math.pi).max() <= DEFAULT.flat_band):
        t0 = math.sqrt(spec.t_min * spec.t_max)
        return SweepResult(series, t0, math.pi, ExtremumKind.FLAT, False, spec)

    sign = spec.kind.curvature
    t0, s0 = _zoom(spec, *_bracket(grid, sums, sign), sign)
    interior = bool(sign * s0 - max(sign * sums[0], sign * sums[-1]) > DEFAULT.sweep_resolution)
    if not interior:
        end = -1 if (sums[-1] > sums[0]) == (sign > 0.0) else 0
        t0, s0 = float(grid[end]), float(sums[end])
    kind = ExtremumKind.MAXIMUM if sign > 0.0 else ExtremumKind.MINIMUM
    return SweepResult(series, t0, s0, kind, interior, spec)


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
