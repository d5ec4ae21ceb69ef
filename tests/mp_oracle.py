"""A 50-digit oracle of the closed-form geodesics, their inverse problem and
triangle angle sums.

``closed_form_point`` evaluates the geodesic from the base point in mpmath
and rounds each coordinate once, to the nearest double: the exactly rounded
point.  ``inverse`` solves the inverse problem of a double point in 50
digits, so the difference between it and ``geodesic_params`` is the
algorithm's own error on that point, apart from its representation.
``acceleration`` is the geodesic acceleration of the Cartesian chart at a
double point, from the metric's derivatives written out by hand, and
``midpoint_length`` the arc-length quadrature of a double polyline.
``angle_sum`` is the product-split angle sum of three double vertices, and
``sweep_extremum`` the turning point of that sum along a ray.
``normaliser`` is the paper's 4x4 normalising isometry of a double point.
"""

import math

import mpmath

from prodgeo import Geometry

DIGITS = 50


def closed_form_point(kind, u, v, tau):
    """The point at arc length ``tau`` on the geodesic (u, v), exactly rounded."""
    with mpmath.workdps(DIGITS):
        u, v, tau = mpmath.mpf(u), mpmath.mpf(v), mpmath.mpf(tau)
        w = tau * mpmath.cos(v)
        scale = mpmath.exp(tau * mpmath.sin(v))
        if kind is Geometry.S2R:
            along, across = mpmath.cos(w), mpmath.sin(w)
        else:
            along, across = mpmath.cosh(w), mpmath.sinh(w)
        return (float(scale * along), float(scale * across * mpmath.cos(u)),
                float(scale * across * mpmath.sin(u)))


def inverse(kind, p):
    """(u, v, tau, w) of the geodesic to the double point ``p``, in 50 digits
    and rounded to doubles; w = tau cos v is the surface arc."""
    with mpmath.workdps(DIGITS):
        x, y, z = (mpmath.mpf(float(c)) for c in p)
        spread = mpmath.hypot(y, z)
        if kind is Geometry.S2R:
            norm = mpmath.sqrt(x * x + y * y + z * z)
            w = mpmath.atan2(spread, x)
        else:
            norm = mpmath.sqrt(x * x - y * y - z * z)
            w = mpmath.asinh(spread / norm)
        length = mpmath.log(norm)
        u = mpmath.atan2(z, y) if spread > 0 else mpmath.mpf(0)
        return (float(u), float(mpmath.atan2(length, w)),
                float(mpmath.hypot(length, w)), float(w))


def param_error(g, h):
    """Largest absolute difference of two (u, v, tau) triples, u modulo 2 pi."""
    return max(abs(math.remainder(g[0] - h[0], 2.0 * math.pi)),
               abs(g[1] - h[1]), abs(g[2] - h[2]))


def _metric_and_derivatives(kind, p):
    """g_ij and d_k g_ij (as dg[k][i][j]) of the Cartesian metric at the
    mpf point ``p``.  S2xR: g = I / s with s = |p|^2.  H2xR: the Hessian
    g = -eta / Q + 2 m m^T / Q^2 of -log(Q) / 2, with eta = diag(1, -1, -1),
    m = eta p and Q = p . m."""
    r3 = range(3)
    if kind is Geometry.S2R:
        s = sum(c * c for c in p)
        g = [[(1 / s if i == j else mpmath.mpf(0)) for j in r3] for i in r3]
        dg = [[[(-2 * p[k] / s ** 2 if i == j else mpmath.mpf(0)) for j in r3] for i in r3]
              for k in r3]
        return g, dg
    eta = [1, -1, -1]
    m = [eta[i] * p[i] for i in r3]
    q = sum(p[i] * m[i] for i in r3)
    g = [[(-eta[i] if i == j else 0) / q + 2 * m[i] * m[j] / q ** 2 for j in r3] for i in r3]
    dg = [[[(eta[i] if i == j else 0) * 2 * m[k] / q ** 2
            + 2 * ((eta[i] if i == k else 0) * m[j] + m[i] * (eta[j] if j == k else 0)) / q ** 2
            - 8 * m[i] * m[j] * m[k] / q ** 3 for j in r3] for i in r3] for k in r3]
    return g, dg


def midpoint_length(kind, points):
    """The composite midpoint-rule length of the double polyline ``points``, in 50
    digits and rounded to a double: each segment's midpoint and difference exact."""
    with mpmath.workdps(DIGITS):
        total = mpmath.mpf(0)
        for a, b in zip(points[:-1], points[1:]):
            a, b = [mpmath.mpf(float(c)) for c in a], [mpmath.mpf(float(c)) for c in b]
            g, _ = _metric_and_derivatives(kind, [(x + y) / 2 for x, y in zip(a, b)])
            d = [y - x for x, y in zip(a, b)]
            total += mpmath.sqrt(sum(g[i][j] * d[i] * d[j] for i in range(3) for j in range(3)))
        return float(total)


def acceleration(kind, p, dp):
    """-Gamma(dp, dp) at the double point ``p`` for the double velocity
    ``dp``, in 50 digits and rounded to doubles:
    g a = -(d_i g_lj - d_l g_ij / 2) dp_i dp_j."""
    with mpmath.workdps(DIGITS):
        p = [mpmath.mpf(float(c)) for c in p]
        dp = [mpmath.mpf(float(c)) for c in dp]
        g, dg = _metric_and_derivatives(kind, p)
        r3 = range(3)
        lowered = [sum((dg[i][l][j] - dg[l][i][j] / 2) * dp[i] * dp[j] for i in r3 for j in r3)
                   for l in r3]
        acc = mpmath.lu_solve(mpmath.matrix(g), mpmath.matrix([-c for c in lowered]))
        return [float(c) for c in acc]


def _split(kind, p):
    """Fibre height and surface point of the mpf point ``p``."""
    x, y, z = p
    q = x * x + y * y + z * z if kind is Geometry.S2R else x * x - y * y - z * z
    norm = mpmath.sqrt(q)
    return mpmath.log(norm), [c / norm for c in p]


def _surface_dot(kind, a, b):
    """The surface factor's form: Euclidean on S2, Minkowski on H2 (so that
    <s, s> = 1 on the unit hyperboloid, and tangent vectors have <v, v> < 0)."""
    if kind is Geometry.S2R:
        return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
    return a[0] * b[0] - a[1] * b[1] - a[2] * b[2]


def _unit_tangent(kind, fa, sa, fb, sb):
    """(fibre, surface) parts of the unit tangent at A toward B."""
    c = _surface_dot(kind, sa, sb)
    if kind is Geometry.S2R:
        dist, sine = mpmath.acos(c), mpmath.sqrt(1 - c * c)
    else:
        dist, sine = mpmath.acosh(c), mpmath.sqrt(c * c - 1)
    # the unit surface tangent at s_A toward s_B times the surface distance
    xi = [(b - c * a) * dist / sine if sine else mpmath.mpf(0) for a, b in zip(sa, sb)]
    length = mpmath.hypot(fb - fa, dist)
    return (fb - fa) / length, [v / length for v in xi]


def angle_sum(kind, a1, a2, a3):
    """Sum of the interior angles of the triangle with the double vertices
    ``a1``, ``a2``, ``a3``, from the product split in 50 digits and rounded
    to a double: the angle at A between the unit tangents (f_B - f_A, d xi)
    normalised, with the surface's own inner product (minus the Minkowski
    form on H2)."""
    with mpmath.workdps(DIGITS):
        return float(_angle_sum(kind, [[mpmath.mpf(float(c)) for c in p] for p in (a1, a2, a3)]))


def _angle_sum(kind, points):
    """``angle_sum`` of three mpf vertices, as an mpf at the working precision."""
    sign = 1 if kind is Geometry.S2R else -1
    split = [_split(kind, p) for p in points]
    total = mpmath.mpf(0)
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        rise_b, xi_b = _unit_tangent(kind, *split[i], *split[j])
        rise_c, xi_c = _unit_tangent(kind, *split[i], *split[k])
        cos = rise_b * rise_c + sign * _surface_dot(kind, xi_b, xi_c)
        total += mpmath.acos(max(-1, min(1, cos)))
    return total


def sweep_extremum(kind, a2, ray, t_start):
    """The turning point (t0, S(t0)) of the family S(t) of triangles with
    vertices the base point, the double point ``a2`` and t times the double
    direction ``ray``, rounded to doubles: the root of dS/du, u = log t,
    found by ``mpmath.findroot`` from log ``t_start`` on ``mpmath.diff`` of
    ``_angle_sum`` in 50 digits."""
    with mpmath.workdps(DIGITS):
        a1, a2 = [mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(0)], [mpmath.mpf(float(c)) for c in a2]
        ray = [mpmath.mpf(float(c)) for c in ray]

        def total(u):
            return _angle_sum(kind, [a1, a2, [mpmath.exp(u) * c for c in ray]])

        u0 = mpmath.findroot(lambda u: mpmath.diff(total, u), mpmath.log(t_start))
        return float(mpmath.exp(u0)), float(total(u0))


def normaliser(kind, a):
    """The normaliser T . R_x . R_z . R_x^-1 of the double point ``a`` (see
    ``prodgeo.isometries``), composed in 50 digits and rounded entrywise to
    doubles, as a list of four rows."""
    sign = 1 if kind is Geometry.S2R else -1
    with mpmath.workdps(DIGITS):
        x, y, z = (mpmath.mpf(float(c)) for c in a)
        norm = mpmath.sqrt(x * x + sign * (y * y + z * z))
        spread = mpmath.hypot(y, z)
        cy, cz = (y / spread, z / spread) if spread else (1, 0)
        c1, c2 = x / norm, spread / norm
        trans = mpmath.diag([1, 1 / norm, 1 / norm, 1 / norm])
        rot_x = mpmath.matrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, cy, -cz], [0, 0, cz, cy]])
        rot_z = mpmath.matrix([[1, 0, 0, 0], [0, c1, -c2, 0], [0, sign * c2, c1, 0],
                               [0, 0, 0, 1]])
        move = trans * rot_x * rot_z * rot_x.T
        return [[float(move[i, j]) for j in range(4)] for i in range(4)]


def sweep_sum(kind, a2, ray, t):
    """S(t) of the family of ``sweep_extremum``, with t times the double
    direction ``ray`` formed in 50 digits, so never rounded onto the H2xR
    cone, rounded to a double."""
    with mpmath.workdps(DIGITS):
        a1, a2 = [mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(0)], [mpmath.mpf(float(c)) for c in a2]
        a3 = [mpmath.mpf(float(t)) * mpmath.mpf(float(c)) for c in ray]
        return float(_angle_sum(kind, [a1, a2, a3]))
