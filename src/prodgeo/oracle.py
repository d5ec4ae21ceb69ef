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
x'' = -Gamma(x)(x', x') in the Cartesian chart, using no coordinate tricks
at all.  The metric's derivatives come from the metric tensor by the complex
step: for an analytic f, f'(x) = Im f(x + ih) / h + O(h^2), and since
nothing is subtracted there is no cancellation, so h = 1e-20 gives the
derivative to rounding (Squire & Trapp, SIAM Review 40, 1998; Martins,
Sturdza & Alonso, ACM TOMS 29, 2003).  Central differences would carry
rounding noise of about eps |p| / h (7e-10 at h = 1e-6), above the
integrator's rtol of 1e-10, and its step control would then run to
thousands of evaluations on long H2xR arcs.  The derivatives are contracted
with the velocity at once, so no Gamma tensor is formed: one complex metric
evaluation and one 3x3 solve per step.  The complex step needs a metric
formula analytic in each coordinate, hence only + - * / in ``core._metric``.

Both routes integrate with ``_dop853``, the in-package explicit
Runge-Kutta method of order 8 of Dormand and Prince with its 5th- and
3rd-order error estimators and 7th-order dense output (Dormand & Prince,
J. Comput. Appl. Math. 6, 1980; Hairer, Norsett & Wanner, Solving ODEs I,
sections II.4, II.5 and II.10), at ``DEFAULT.ode_rtol`` and ``ode_atol``.
Its step control is SciPy's, which the tests keep as the independent
reference; the package itself needs numpy only.

The quadrature checks every segment midpoint and evaluates the metric at
all of them in one call.
"""

from __future__ import annotations

import math

import numpy as np

from . import _dop853
from .core import Geometry, _guard_member, _metric, to_model
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


def unit_speed_drift(kind: Geometry, state) -> float | np.ndarray:
    """|squared intrinsic speed - 1| of an ODE state (6,), or of the columns
    of states (6, n) as an (n,) array."""
    _t, c1, c2, dt, dc1, dc2 = state
    if kind is Geometry.S2R:
        speed2 = dt * dt + np.cos(c2) ** 2 * dc1 * dc1 + dc2 * dc2
    else:
        speed2 = dt * dt + dc1 * dc1 + np.sinh(c1) ** 2 * dc2 * dc2
    return np.abs(speed2 - 1.0)


def _initial_state(kind: Geometry, u: float, v: float):
    if kind is Geometry.S2R:
        return [0.0, 0.0, 0.0, math.sin(v), math.cos(v) * math.cos(u), math.cos(v) * math.sin(u)]
    return [0.0, 0.0, u, math.sin(v), math.cos(v), 0.0]


def integrate_geodesic(kind: Geometry, g, steps: int = 200) -> np.ndarray:
    """Integrate the intrinsic geodesic ODE system and return ``steps``
    model points at equal parameter spacing on [0, tau], a (steps, 3) array.

    Drift of the unit-speed first integral beyond tolerance triggers one
    retry at tighter settings; persistent drift raises ConsistencyError.
    The samples come from the integrator's dense output.  A step size that
    underflows, or a sphere-chart pole, raises SingularityError.
    """
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
        states = _dop853.solve(rhs, state0, grid, rtol, atol)
        drift = unit_speed_drift(kind, states).max()
        if drift <= DEFAULT.unit_speed_drift:
            break
        rtol, atol = rtol * 1e-2, atol * 1e-2
    else:
        raise ConsistencyError(f"unit-speed drift {drift:.2e} persists after tightening")
    return to_model(kind, *states[:3])


#: imaginary step of the complex-step derivative; nothing is subtracted, so
#: it can be far below sqrt(eps) and the derivative is exact to rounding
_COMPLEX_STEP = 1e-20
#: the complex offsets i h e_k of the three partial derivatives, one per row
_OFFSETS = 1j * _COMPLEX_STEP * np.eye(3)


def _acceleration(kind: Geometry, p: np.ndarray, dp: np.ndarray) -> np.ndarray:
    """Geodesic acceleration -Gamma(dp, dp) in the Cartesian chart at the
    trusted point ``p``, no Gamma tensor formed: one complex ``core._metric``
    call at p + ih e_k gives d_k g = Im g / h, Re g = g(p) to rounding, and
    with a[k, l] = (d_k g dp)_l, Gamma_l(dp, dp) = (dp @ a - a @ dp / 2)_l.
    """
    g = _metric(kind, *(p + _OFFSETS).T)
    a = (g.imag / _COMPLEX_STEP) @ dp
    return -np.linalg.solve(g[0].real, dp @ a - 0.5 * (a @ dp))


def integrate_geodesic_cartesian(kind: Geometry, g) -> np.ndarray:
    """Endpoint of the geodesic integrated in the Cartesian chart.

    Uses only the ambient metric tensor, differentiated by complex step
    (see ``_acceleration``), making it independent of every
    intrinsic-coordinate formula in the package.  Raises DomainError if the
    integrated curve leaves the model, and SingularityError if the step
    size underflows.
    """
    u, v, tau = GeodesicParams.normalized(*g)

    def rhs(_tau, state):
        p, dp = state[:3], state[3:]
        _guard_member(kind, p)
        out = np.empty(6)
        out[:3], out[3:] = dp, _acceleration(kind, p, dp)
        return out

    state0 = np.array([1.0, 0.0, 0.0,
                       math.sin(v), math.cos(v) * math.cos(u), math.cos(v) * math.sin(u)])
    return _dop853.solve(rhs, state0, (0.0, tau), DEFAULT.ode_rtol, DEFAULT.ode_atol)[:3, -1]


def arc_length_quadrature(kind: Geometry, curve) -> float:
    """Composite midpoint-rule arc length of a polyline of model points,
    given as any iterable of Cartesian 3-vectors (an (n, 3) array too).

    Second-order accurate in the number of samples.  Raises DomainError if
    any segment midpoint leaves the model or the points do not have three
    coordinates.
    """
    pts = (curve.astype(float, copy=False) if isinstance(curve, np.ndarray)
           else np.array([np.asarray(p, dtype=float) for p in curve]))
    if len(pts) < 2:
        raise DomainError("need at least two points")
    if pts.shape[1:] != (3,):
        raise DomainError(f"expected points of 3 coordinates, got shape {pts.shape[1:]}")
    mids = 0.5 * (pts[:-1] + pts[1:])
    delta = pts[1:] - pts[:-1]
    _guard_member(kind, mids)
    g = _metric(kind, *mids.T)
    return float(np.sqrt(np.einsum("ni,nij,nj->n", delta, g, delta)).sum())
