"""Independent verification engine: geodesic ODEs and arc-length quadrature.

Nothing here uses the closed-form geodesics; endpoints of numerically
integrated geodesics and quadrature-measured arc lengths provide
independent evidence that the closed forms are correct unit-speed
geodesics of the ambient metrics.

Derivation of the intrinsic ODE systems
---------------------------------------
Both product metrics are block diagonal in intrinsic coordinates, so the
geodesic equations follow from the Christoffel symbols of the surface
factor alone.

S2xR, geographic coordinates (t, phi, theta), metric
dt^2 + cos^2(theta) dphi^2 + dtheta^2.  The only nonzero symbols are

    Gamma^phi_{phi theta} = -tan(theta),
    Gamma^theta_{phi phi} =  sin(theta) cos(theta),

giving

    t''     = 0
    phi''   =  2 tan(theta) phi' theta'
    theta'' = -sin(theta) cos(theta) phi'^2 .

H2xR, cylindrical coordinates (t, r, alpha), metric
dt^2 + dr^2 + sinh^2(r) dalpha^2.  The nonzero symbols are

    Gamma^alpha_{r alpha} = coth(r),
    Gamma^r_{alpha alpha} = -sinh(r) cosh(r),

giving

    t''     = 0
    r''     = sinh(r) cosh(r) alpha'^2
    alpha'' = -2 coth(r) alpha' r' .

Initial data.  A unit-speed geodesic from the base point in direction
(u, v) has Cartesian velocity (sin v, cos v cos u, cos v sin u).  For S2xR
the chart is regular at the base point and the same triple serves as
(t', phi', theta')(0).  For H2xR the cylindrical chart is polar-degenerate
at r = 0: the Cartesian direction (u) is the *angular position*, so the
regular equivalent data are alpha(0) = u, r'(0) = cos v, alpha'(0) = 0
(the base-point geodesics are radial in the surface factor).  The coth
singularity at r = 0 is guarded by a series expansion and by the fact that
alpha' = 0 annihilates the singular product.

A second, chart-free route (``integrate_geodesic_cartesian``) integrates
x'' = -Gamma(x)(x', x') in the Cartesian chart with Christoffel symbols
obtained by central differences of the metric tensor, using no coordinate
tricks at all.
"""

from __future__ import annotations

import math

import numpy as np

from .core import Geometry, metric_at, to_model
from .exceptions import ConsistencyError, DomainError, PrecondError, SingularityError
from .geodesics import GeodesicParams
from .tolerances import DEFAULT

__all__ = [
    "integrate_geodesic",
    "integrate_geodesic_cartesian",
    "unit_speed_drift",
    "arc_length_quadrature",
]

_POLE_GUARD = 1e-12
_COTH_SERIES_BELOW = 1e-6


def _rhs_s2r(_tau, state):
    _t, _phi, theta, dt, dphi, dtheta = state
    c = math.cos(theta)
    if abs(c) < _POLE_GUARD and dphi != 0.0:
        raise SingularityError("geodesic passed through a coordinate pole of the sphere chart")
    coupling = 0.0 if dphi == 0.0 else 2.0 * math.tan(theta) * dphi * dtheta
    return [dt, dphi, dtheta, 0.0, coupling, -math.sin(theta) * c * dphi * dphi]


def _rhs_h2r(_tau, state):
    _t, r, _alpha, dt, dr, dalpha = state
    if dalpha == 0.0:
        dd_alpha = 0.0
    else:
        if abs(r) < _COTH_SERIES_BELOW:
            if r == 0.0:
                raise SingularityError("coth singularity hit at r = 0 with nonzero alpha'")
            coth = 1.0 / r + r / 3.0
        else:
            coth = math.cosh(r) / math.sinh(r)
        dd_alpha = -2.0 * coth * dr * dalpha
    return [dt, dr, dalpha, 0.0, math.sinh(r) * math.cosh(r) * dalpha * dalpha, dd_alpha]


def unit_speed_drift(kind: Geometry, state) -> float:
    """|squared intrinsic speed - 1| of an ODE state."""
    if kind is Geometry.S2R:
        _t, _phi, theta, dt, dphi, dtheta = state
        speed2 = dt * dt + math.cos(theta) ** 2 * dphi * dphi + dtheta * dtheta
    else:
        _t, r, _alpha, dt, dr, dalpha = state
        speed2 = dt * dt + dr * dr + math.sinh(r) ** 2 * dalpha * dalpha
    return abs(speed2 - 1.0)


def _initial_state(kind: Geometry, u: float, v: float):
    if kind is Geometry.S2R:
        return [0.0, 0.0, 0.0, math.sin(v), math.cos(v) * math.cos(u), math.cos(v) * math.sin(u)]
    return [0.0, 0.0, u, math.sin(v), math.cos(v), 0.0]


def integrate_geodesic(kind: Geometry, g, steps: int = 200) -> list[np.ndarray]:
    """Integrate the intrinsic geodesic ODE system and return ``steps``
    model points at equal parameter spacing on [0, tau].

    Drift of the unit-speed first integral beyond tolerance triggers one
    retry at tighter settings; persistent drift raises ConsistencyError.
    """
    from scipy.integrate import solve_ivp  # imported on first use: it takes most of import time

    u, v, tau = GeodesicParams.normalized(*g)
    if tau > 10.0:
        raise PrecondError(f"integration limited to tau <= 10, got {tau}")
    if steps < 100:
        raise PrecondError(f"need at least 100 steps, got {steps}")
    rhs = _rhs_s2r if kind is Geometry.S2R else _rhs_h2r
    state0 = _initial_state(kind, u, v)
    grid = np.linspace(0.0, tau, steps)
    rtol, atol = DEFAULT.ode_rtol, DEFAULT.ode_atol
    for _attempt in range(2):
        sol = solve_ivp(rhs, (0.0, tau), state0, method="DOP853",
                        t_eval=grid, rtol=rtol, atol=atol)
        if not sol.success:
            raise SingularityError(f"integration failed: {sol.message}")
        drift = max(unit_speed_drift(kind, sol.y[:, i]) for i in range(sol.y.shape[1]))
        if drift <= DEFAULT.unit_speed_drift:
            break
        rtol, atol = rtol * 1e-2, atol * 1e-2
    else:
        raise ConsistencyError(f"unit-speed drift {drift:.2e} persists after tightening")
    return [to_model(kind, *sol.y[:3, i]) for i in range(sol.y.shape[1])]


def _christoffel_fd(kind: Geometry, p: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Christoffel symbols at ``p`` by central differences of the metric."""
    dg = np.empty((3, 3, 3))
    for k in range(3):
        step = np.zeros(3)
        step[k] = h
        dg[k] = (metric_at(kind, p + step) - metric_at(kind, p - step)) / (2.0 * h)
    ginv = np.linalg.inv(metric_at(kind, p))
    gamma = np.empty((3, 3, 3))
    for k in range(3):
        for i in range(3):
            for j in range(3):
                gamma[k, i, j] = 0.5 * sum(
                    ginv[k, l] * (dg[i][l, j] + dg[j][l, i] - dg[l][i, j])
                    for l in range(3)
                )
    return gamma


def integrate_geodesic_cartesian(kind: Geometry, g) -> np.ndarray:
    """Endpoint of the geodesic integrated in the Cartesian chart.

    Uses only the ambient metric tensor (Christoffel symbols by finite
    differences), making it independent of every intrinsic-coordinate
    formula in the package.
    """
    from scipy.integrate import solve_ivp  # imported on first use, as above

    u, v, tau = GeodesicParams.normalized(*g)

    def rhs(_tau, state):
        p, dp = state[:3], state[3:]
        gamma = _christoffel_fd(kind, p)
        acc = -np.einsum("kij,i,j->k", gamma, dp, dp)
        return np.concatenate([dp, acc])

    velocity = np.array([math.sin(v), math.cos(v) * math.cos(u), math.cos(v) * math.sin(u)])
    state0 = np.concatenate([np.array([1.0, 0.0, 0.0]), velocity])
    sol = solve_ivp(rhs, (0.0, tau), state0, method="DOP853",
                    rtol=DEFAULT.ode_rtol, atol=DEFAULT.ode_atol)
    if not sol.success:
        raise SingularityError(f"integration failed: {sol.message}")
    return sol.y[:3, -1]


def arc_length_quadrature(kind: Geometry, curve) -> float:
    """Composite midpoint-rule arc length of a polyline of model points.

    Second-order accurate in the number of samples.  Raises DomainError if
    any point (or segment midpoint) leaves the model.
    """
    pts = [np.asarray(p, dtype=float) for p in curve]
    if len(pts) < 2:
        raise DomainError("need at least two points")
    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        mid = 0.5 * (a + b)
        delta = b - a
        total += math.sqrt(float(delta @ metric_at(kind, mid) @ delta))
    return total
