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
(u, v) has Cartesian velocity (sin v, cos v cos u, cos v sin u), which is
``tangent_of``.  For S2xR the chart is regular at the base point and the
same triple serves as (t', phi', theta')(0).  For H2xR the cylindrical
chart is polar-degenerate at r = 0: the Cartesian direction (u) is the
*angular position*, so the regular equivalent data are alpha(0) = u,
r'(0) = cos v, alpha'(0) = 0 (the base-point geodesics are radial in the
surface factor).  alpha'' is proportional to alpha', so alpha' stays
exactly 0.0 at every stage, and then t'' = r'' = 0: in this chart every
H2xR geodesic from the base point is a straight line in (t, r), and the
intrinsic route checks little of the H2xR metric.  For H2xR the Cartesian
route below is the independent ODE evidence.  The coth term, reached only
by a state with alpha' != 0, is 1 / tanh(r), accurate to rounding down to
the smallest r; at r = 0 it raises SingularityError.

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
with the velocity at once, so no Gamma tensor is formed.  A right-hand side
is one computation in Python floats: three evaluations of
``core._metric_entries`` in Python complex, one per coordinate step, and an
unrolled 3x3 Cholesky solve; numpy's per-call cost on (3,) arrays was most
of its time.  The complex step needs a metric formula analytic in each
coordinate, hence only + - * / in ``core._metric_entries``.  On H2xR the
metric's conditioning grows as e^(2w) with the surface arc w, so the
Cartesian route is limited to w <= 3.5.

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

import contextlib
import math

from . import _dop853
from .core import (_BASE, Geometry, _count, _guard_member, _memory_for, _metric, _metric_entries,
                   _reals, _require_geometry, np, to_model)
from .exceptions import ConsistencyError, DomainError, PrecondError, SingularityError
from .geodesics import GeodesicParams, _triple, tangent_of
from .tolerances import DEFAULT

__all__ = [
    "integrate_geodesic",
    "integrate_geodesic_cartesian",
    "unit_speed_drift",
    "arc_length_quadrature",
]

_POLE_GUARD = 1e-12
#: longest geodesic of either route: the absolute ``ode_atol`` loses longer
#: fibre descents, whose point shrinks below it, with no error
_TAU_LIMIT = 10.0


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
    elif r == 0.0:
        raise SingularityError("coth singularity hit at r = 0 with nonzero alpha'")
    else:
        dd_alpha = -2.0 * (1.0 / math.tanh(r)) * dr * dalpha
    return [dt, dr, dalpha, 0.0, math.sinh(r) * math.cosh(r) * dalpha * dalpha, dd_alpha]


def unit_speed_drift(kind: Geometry, state) -> float | np.ndarray:
    """|squared intrinsic speed - 1| of an ODE state (6,), or of the columns
    of states (6, n) as an (n,) array, read by ``core._reals``; DomainError otherwise."""
    _require_geometry(kind)
    if (state := _reals(state, "ODE states")).ndim not in (1, 2) or len(state) != 6:
        raise DomainError(f"need an ODE state (6,) or states (6, n), got shape {state.shape}")
    _t, c1, c2, dt, dc1, dc2 = state
    with np.errstate(all="ignore"):  # a state that is not finite drifts by NaN or inf
        if kind is Geometry.S2R:
            speed2 = dt * dt + np.cos(c2) ** 2 * dc1 * dc1 + dc2 * dc2
        else:
            speed2 = dt * dt + dc1 * dc1 + np.sinh(c1) ** 2 * dc2 * dc2
        return np.abs(speed2 - 1.0)


def _initial_state(kind: Geometry, g: GeodesicParams):
    if kind is Geometry.S2R:
        return [0.0, 0.0, 0.0, *tangent_of(g)]
    return [0.0, 0.0, g.u, math.sin(g.v), math.cos(g.v), 0.0]


def _checked_params(g) -> GeodesicParams:
    """The normalized parameters of ``g``; PrecondError above ``_TAU_LIMIT``."""
    params = GeodesicParams.normalized(*_triple(g))
    if params.tau > _TAU_LIMIT:
        raise PrecondError(f"integration limited to tau <= {_TAU_LIMIT:g}, got {params.tau}")
    return params


def integrate_geodesic(kind: Geometry, g, steps: int = 200) -> np.ndarray:
    """Integrate the intrinsic geodesic ODE system and return ``steps``
    model points at equal parameter spacing on [0, tau], a (steps, 3) array;
    tau above 10, or steps not an integer >= 100 or beyond memory, raises PrecondError.

    Drift of the unit-speed first integral beyond tolerance triggers one
    retry at tighter settings; persistent drift raises ConsistencyError.
    The samples come from the integrator's dense output.  A step size that
    underflows, or a sphere-chart pole, raises SingularityError.
    """
    params = _checked_params(g)
    steps = _count(steps, 100, "steps", PrecondError)
    _require_geometry(kind)
    rhs = _rhs_s2r if kind is Geometry.S2R else _rhs_h2r
    state0 = _initial_state(kind, params)
    with _memory_for(steps, "steps", PrecondError):
        grid = np.linspace(0.0, params.tau, steps)
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
#: longest H2xR surface arc tau |cos v| of the Cartesian route.  The
#: metric's conditioning grows as e^(2w) along the arc, and the step control
#: then fights rounding noise in the acceleration: w = 3.9 took 2.5 s and
#: 4.0 took 5.3 s, and w = 5 does not finish in a minute.  Every arc tried
#: up to 3.5 (w in [0.5, 3.5], 11 directions v per w with tau <= 10, three
#: seeds) ended within 8e-8 relative of the closed form in under 0.2 s on a
#: 2-core machine.
_H2R_SURFACE_ARC = 3.5


def _not_positive_definite(kind: Geometry, point) -> SingularityError:
    return SingularityError(f"the {kind.value} metric at {point} is not positive "
                            "definite in double precision")


def _acceleration(kind: Geometry, p, dp) -> list:
    """Geodesic acceleration -Gamma(dp, dp) in the Cartesian chart at the
    trusted point ``p``, in floats: two float triples in, a list of three out.

    No Gamma tensor is formed.  Three ``core._metric_entries`` calls at
    p + ih e_k, in Python complex, give h d_k g = Im g, and Re g = g(p) to
    rounding.  With h a[k][l] = (Im g_k dp)_l, Gamma_l(dp, dp) is
    (dp a - a dp / 2)_l, and g x = Gamma(dp, dp) is solved by the Cholesky
    factorisation of Re g, which is positive definite on members and
    backward stable there (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 10).  A pivot that is not positive, a zero metric
    denominator or an acceleration that is not finite raises
    SingularityError.
    """
    (x, y, z), (u, v, w) = p, dp
    step = 1j * _COMPLEX_STEP
    try:
        g = _metric_entries(kind, x + step, y, z)
        rows = (g, _metric_entries(kind, x, y + step, z), _metric_entries(kind, x, y, z + step))
    except ZeroDivisionError:  # Python complex raises where numpy gave inf
        raise SingularityError(f"the {kind.value} metric is singular at {(x, y, z)}") from None
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = [
        (e0.imag * u + e1.imag * v + e2.imag * w, e3.imag * u + e4.imag * v + e5.imag * w,
         e6.imag * u + e7.imag * v + e8.imag * w)
        for e0, e1, e2, e3, e4, e5, e6, e7, e8 in rows]
    b0 = u * a00 + v * a10 + w * a20 - 0.5 * (a00 * u + a01 * v + a02 * w)
    b1 = u * a01 + v * a11 + w * a21 - 0.5 * (a10 * u + a11 * v + a12 * w)
    b2 = u * a02 + v * a12 + w * a22 - 0.5 * (a20 * u + a21 * v + a22 * w)
    # Re g = L L^T with L lower triangular, then L y = b and L^T s = y
    g00, g01, g02, g11, g12, g22 = g[0].real, g[1].real, g[2].real, g[4].real, g[5].real, g[8].real
    if not g00 > 0.0:  # a NaN fails every test too
        raise _not_positive_definite(kind, (x, y, z))
    l00 = math.sqrt(g00)
    l10, l20 = g01 / l00, g02 / l00
    d11 = g11 - l10 * l10
    if not d11 > 0.0:
        raise _not_positive_definite(kind, (x, y, z))
    l11 = math.sqrt(d11)
    l21 = (g12 - l20 * l10) / l11
    d22 = g22 - l20 * l20 - l21 * l21
    if not d22 > 0.0:
        raise _not_positive_definite(kind, (x, y, z))
    l22 = math.sqrt(d22)
    y0 = b0 / l00
    y1 = (b1 - l10 * y0) / l11
    s2 = (b2 - l20 * y0 - l21 * y1) / l22 / l22
    s1 = (y1 - l21 * s2) / l11
    s0 = (y0 - l10 * s1 - l20 * s2) / l00
    acc = [-s0 / _COMPLEX_STEP, -s1 / _COMPLEX_STEP, -s2 / _COMPLEX_STEP]
    if not (math.isfinite(acc[0]) and math.isfinite(acc[1]) and math.isfinite(acc[2])):
        raise SingularityError(f"the geodesic acceleration at {(x, y, z)} is not finite")
    return acc


def integrate_geodesic_cartesian(kind: Geometry, g) -> np.ndarray:
    """Endpoint of the geodesic integrated in the Cartesian chart.

    Uses only the ambient metric tensor, differentiated by complex step
    (see ``_acceleration``), making it independent of every
    intrinsic-coordinate formula in the package.  tau is limited to 10, as
    in ``integrate_geodesic``, and on H2xR the surface arc tau |cos v| to
    3.5: beyond it the metric's conditioning makes the integration slow and
    inexact.  Either limit raises PrecondError before any step.  Raises
    DomainError if the integrated curve leaves the model, and
    SingularityError if the step size underflows or the metric is singular
    in double precision.
    """
    params = _checked_params(g)
    _u, v, tau = params
    if kind is Geometry.H2R and tau * abs(math.cos(v)) > _H2R_SURFACE_ARC:
        raise PrecondError(f"h2r Cartesian integration limited to surface arcs tau |cos v| "
                           f"<= {_H2R_SURFACE_ARC}, got {tau * abs(math.cos(v))}")

    def rhs(_tau, state):
        x, y, z, u, v, w = state.tolist()
        _guard_member(kind, (x, y, z))
        return [u, v, w, *_acceleration(kind, (x, y, z), (u, v, w))]

    state0 = np.concatenate((_BASE, tangent_of(params)))
    return _dop853.solve(rhs, state0, (0.0, tau), DEFAULT.ode_rtol, DEFAULT.ode_atol)[:3, -1]


def arc_length_quadrature(kind: Geometry, curve) -> float:
    """Composite midpoint-rule arc length of a polyline of model points,
    given as any iterable of Cartesian 3-vectors (an (n, 3) array too), read by ``core._reals``.

    Second-order accurate in the number of samples.  The metrics are
    homogeneous of degree -2, so the rule runs on the curve scaled exactly
    by a power of two to coordinates below 1, where nothing overflows.
    Raises DomainError for points not of three real numbers, a segment
    midpoint outside the model, or a metric there beyond double range.
    """
    with contextlib.suppress(TypeError):  # an iterable of points is read as their list
        curve = curve if isinstance(curve, np.ndarray) else list(curve)
    if (pts := _reals(curve, "curve points")).ndim != 2 or pts.shape[1] != 3:
        raise DomainError(f"expected points of 3 coordinates, got shape {pts.shape}")
    if len(pts) < 2:
        raise DomainError("need at least two points")
    scale = math.frexp(float(np.abs(pts).max()))[1]  # 0 for an infinity or a NaN
    with np.errstate(all="ignore"):  # non-finite values go to the guard or the check below
        pts = np.ldexp(pts, -scale)
        mids = 0.5 * (pts[:-1] + pts[1:])
        delta = pts[1:] - pts[:-1]
        _guard_member(kind, np.ldexp(mids, scale))  # named at the curve's own scale
        lengths = np.sqrt(np.einsum("ni,nij,nj->n", delta, _metric(kind, *mids.T), delta))
    if not np.isfinite(lengths).all():
        raise DomainError(f"the {kind.value} metric at a midpoint is beyond double range")
    return float(lengths.sum())
