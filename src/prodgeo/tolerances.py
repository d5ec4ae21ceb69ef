"""Named tolerance constants, read from ``DEFAULT`` across the library;
no function accepts a ``Tolerances`` argument."""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    #: per-coordinate equality of model points
    coord: float = 1e-10
    #: arc-length / quadrature agreement
    arc_length: float = 1e-7
    #: geodesic parameter roundtrip, per component
    roundtrip: float = 1e-9
    #: metric-pullback invariance of isometries
    isometry: float = 1e-8
    #: coplanarity of a triangle with the model centre (relative determinant)
    coplanar: float = 1e-10
    #: residual z after the axis rotation, precondition of the final factor
    plane: float = 1e-12
    #: angle-sum consistency with the trichotomy theorems
    angle_sum: float = 1e-7
    #: ODE integrator settings
    ode_rtol: float = 1e-10
    ode_atol: float = 1e-12
    #: unit-speed drift allowed along an integrated geodesic
    unit_speed_drift: float = 1e-9


DEFAULT = Tolerances()
