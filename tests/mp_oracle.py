"""A 50-digit oracle of the closed-form geodesics and their inverse problem.

``closed_form_point`` evaluates the geodesic from the base point in mpmath
and rounds each coordinate once, to the nearest double: the exactly rounded
point.  ``inverse`` solves the inverse problem of a double point in 50
digits, so the difference between it and ``geodesic_params`` is the
algorithm's own error on that point, apart from its representation.
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
