"""Independent verification: nothing here trusts the closed forms.

The geodesic equations are integrated numerically, in the intrinsic charts
and (chart-free) in Cartesian coordinates, where the acceleration
-Gamma(x', x') is contracted directly from a complex-step derivative of the
raw metric tensor, and arc lengths are measured by quadrature of the raw
metric.  Agreement with the closed-form spirals is the evidence that they
really are the unit-speed geodesics of the two ambient metrics.
"""

import numpy as np

from prodgeo import (
    GeodesicParams,
    Geometry,
    arc_length_quadrature,
    geodesic_point,
    integrate_geodesic,
    integrate_geodesic_cartesian,
    sample_curve,
)

g = GeodesicParams(u=0.7, v=0.35, tau=1.8)

for kind in Geometry:
    closed = geodesic_point(kind, g)
    samples = integrate_geodesic(kind, g, steps=200)  # a (200, 3) array of model points
    intrinsic = samples[-1]
    cartesian = integrate_geodesic_cartesian(kind, g)
    print(f"--- {kind.value}, params (u, v, tau) = (0.7, 0.35, 1.8)")
    print(f"  arc length of the {len(samples)} intrinsic samples by quadrature: "
          f"{arc_length_quadrature(kind, samples):.6f} (tau = {g.tau})")
    print(f"  closed form          : {np.round(closed, 10)}")
    print(f"  intrinsic-chart ODE  : {np.round(intrinsic, 10)}")
    print(f"  cartesian-chart ODE  : {np.round(cartesian, 10)}")
    print(f"  max deviations       : {np.abs(intrinsic - closed).max():.2e} "
          f"/ {np.abs(cartesian - closed).max():.2e}")

print("\nquadrature arc length converges to tau at second order:")
for kind in Geometry:
    errors = []
    for n in (250, 500, 1000, 2000):
        curve = sample_curve(kind, g, n)
        errors.append(abs(arc_length_quadrature(kind, curve) - g.tau))
    ratios = [errors[i] / errors[i + 1] for i in range(3)]
    print(f"  {kind.value}: errors {['%.2e' % e for e in errors]} "
          f"(refinement ratios {['%.1f' % r for r in ratios]})")
