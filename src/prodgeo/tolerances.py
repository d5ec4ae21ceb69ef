"""Named tolerance constants: ``DEFAULT``, a read-only ``Tolerances`` named tuple,
read across the library; no function accepts a ``Tolerances`` argument."""

from typing import NamedTuple


class Tolerances(NamedTuple):
    #: geodesic parameter roundtrip, per component
    roundtrip: float = 1e-9
    #: a normaliser's image of its anchor is the base point to this (max norm),
    #: else DomainError; also metric-pullback invariance of isometries and
    #: antipodality of the paper's tangent pairs
    isometry: float = 1e-8
    #: coplanarity of a triangle with the model centre (relative determinant)
    coplanar: float = 1e-10
    #: residual z accepted as the [x, y] plane by ``rotation_z`` and the closed forms
    plane: float = 1e-12
    #: angle-sum consistency with the trichotomy theorems
    angle_sum: float = 1e-7
    #: triangle vertices this close, relative to their size, coincide
    vertex_gap: float = 1e-12
    #: S2xR sides whose surface arc is within this of pi (their surface points
    #: antipodal to within this sine) have no unique geodesic (the cut locus)
    cut_locus: float = 1e-12
    #: centre-enclosure test: a barycentric weight of E0 this far below zero,
    #: relative to the weights' sum, still counts as inside (``triangles._encloses``)
    enclosure_weight: float = 1e-12
    #: sums within this band of pi across the whole sweep grid mark a coplanar family flat
    flat_band: float = 1e-9
    #: slack of v beyond [-pi/2, pi/2] that is clamped; covers pi/2 entered as 1.5708
    v_clamp: float = 1e-4
    #: largest |delta| from the reference angle tables that ``prodgeo tables`` accepts
    table_gate: float = 1e-4
    #: verification suites: random sums on the theorem side of pi
    suite_side: float = 1e-9
    #: verification suites: coplanar sums equal to pi and antipodal tangent pairs
    suite_pair: float = 1e-8
    #: ODE integrator settings
    ode_rtol: float = 1e-10
    ode_atol: float = 1e-12
    #: unit-speed drift allowed along an integrated geodesic
    unit_speed_drift: float = 1e-9
    #: isometry suite: a normaliser's image of its anchor is the base point to this; it tests
    #: accuracy, so it is below ``isometry`` (what ``to_origin`` accepts); images measured <= 5e-14
    suite_anchor: float = 1e-10
    suite_ode: float = 1e-6  #: ODE suite: integrated endpoints equal the closed form to this


DEFAULT = Tolerances()
