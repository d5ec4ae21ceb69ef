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

import numpy as np

from .core import BASE_POINT, Geometry, contains, require_member
from .exceptions import ConsistencyError, DomainError
from .tolerances import DEFAULT
from .triangles import _geodesic_triangle, angle_sum

__all__ = [
    "ExtremumKind",
    "SweepSpec",
    "SweepResult",
    "angle_sum_at",
    "evaluate",
    "limits_check",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


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


@dataclass(frozen=True, eq=False)
class SweepResult:
    series: np.ndarray  # shape (samples, 2): columns t, S(t)
    t_extremum: float
    s_extremum: float
    extremum_kind: ExtremumKind
    spec: SweepSpec = field(repr=False)


def angle_sum_at(spec: SweepSpec, t: float) -> float:
    """S(t): the interior angle sum of the triangle with third vertex t*ray;
    only t*ray is checked, as it leaves the model if it underflows to zero."""
    tri = _geodesic_triangle(spec.kind, BASE_POINT, spec.a2,
                             require_member(spec.kind, t * spec.ray))
    return angle_sum(tri).total


def _golden_section(f, lo: float, hi: float, maximise: bool, tol: float = 1e-7):
    sign = -1.0 if maximise else 1.0
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = sign * f(c), sign * f(d)
    while hi - lo > tol:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = sign * f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = sign * f(d)
    t = 0.5 * (lo + hi)
    return t, f(t)


def evaluate(spec: SweepSpec) -> SweepResult:
    """Sample S(t) on a log-spaced grid and refine the interior extremum.

    The grid is logarithmic because the extremum of interest sits at small
    t.  Refinement is derivative-free golden-section search on the grid
    cell bracketing the best sample, to a bracket width of 1e-7.
    """
    grid = np.geomspace(spec.t_min, spec.t_max, spec.samples)
    sums = np.array([angle_sum_at(spec, t) for t in grid])
    series = np.column_stack([grid, sums])

    if np.abs(sums - math.pi).max() <= DEFAULT.flat_band:
        t0 = math.sqrt(spec.t_min * spec.t_max)
        return SweepResult(series, t0, math.pi, ExtremumKind.FLAT, spec)

    maximise = spec.kind is Geometry.S2R
    best = int(np.argmax(sums) if maximise else np.argmin(sums))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, len(grid) - 1)]
    t0, s0 = _golden_section(lambda t: angle_sum_at(spec, t), lo, hi, maximise)
    kind = ExtremumKind.MAXIMUM if maximise else ExtremumKind.MINIMUM
    return SweepResult(series, t0, s0, kind, spec)


def limits_check(spec: SweepSpec, t_far: float = 1e3) -> tuple[float, float]:
    """S at the near end of the range and at a large parameter ``t_far``.

    Both values must sit on the theorem side of pi (>= pi for S2xR,
    <= pi for H2xR), else ConsistencyError; DomainError propagates if the
    far vertex leaves the model.  Monotone approach of the tails toward pi
    holds for unimodal families and is exercised by the test suites.
    """
    near = angle_sum_at(spec, spec.t_min)
    far = angle_sum_at(spec, t_far)
    sign = 1.0 if spec.kind is Geometry.S2R else -1.0
    for label, value in (("near", near), ("far", far)):
        if sign * (value - math.pi) < -DEFAULT.flat_band:
            raise ConsistencyError(
                f"{label} angle sum {value} on the wrong side of pi for {spec.kind.value}"
            )
    return near, far
