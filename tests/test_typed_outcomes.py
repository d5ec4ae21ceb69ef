"""Every number argument has a typed outcome: a result that meets its
invariants, or a GeometryError.

Seeded (``derandomize=True``) properties over the entry points that read
numbers through ``core._real`` and ``core._count``, over ``to_model``, over
the entry points that read a point by ``core._point`` (``geodesic_params``,
``distance``, ``to_origin``, ``fibre_translation`` and ``apply_isometry``,
on fuzzed matrices too), over the triangle entry points (``geodesic_triangle``,
``angle_sum``, ``classify``, ``tangent_endpoints`` and ``vertex_angle``, where
a ConsistencyError fails), over ``evaluate`` on random families and ranges,
over ``arc_length_quadrature`` on fuzzed curves, over every other public
name (``model_point``, ``metric_at``, ``unit_speed_drift``, the factor matrices,
``coplanar_with_center`` and ``encloses_center``), over the test oracles of
``paper_forms`` (the closed-form images and the transcribed normaliser), over
records of another type at every entry point that takes a triangle or a sweep
spec, and over
``cli.main`` on fuzzed ``sweep`` and ``geodesic`` arguments.  One value is a
number to every entry point that reads caller numbers, or to none, and a count
beyond memory is a typed error in all the work it sizes (in a child process
under an address-space limit).  Every point returned is a member (``contains``).  Any other exception, numpy's RuntimeWarning
included (an error in this suite), fails a property.
"""

import contextlib
import io
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from prodgeo import (
    BASE_POINT,
    ConsistencyError,
    DEFAULT,
    DegenerateError,
    DomainError,
    ExtremumKind,
    GeodesicParams,
    Geometry,
    GeometryError,
    PrecondError,
    SweepResult,
    SweepSpec,
    TriangleClass,
    angle_sum,
    angle_sum_at,
    apply_isometry,
    arc_length_quadrature,
    classify,
    contains,
    coplanar_with_center,
    distance,
    encloses_center,
    evaluate,
    fibre_translation,
    geodesic_params,
    geodesic_point,
    geodesic_triangle,
    integrate_geodesic,
    integrate_geodesic_cartesian,
    limits_check,
    metric_at,
    model_point,
    rotation_x,
    rotation_z,
    sample_curve,
    tangent_endpoints,
    tangent_of,
    to_model,
    to_origin,
    unit_speed_drift,
    vertex_angle,
)
from prodgeo.cli import main
from prodgeo.reference import SWEEP_FAMILIES
from paper_forms import (reference_image_base, reference_image_third,
                         reference_images_plane_mover, transcribed_normalizer_s2r)

SRC = Path(__file__).resolve().parents[1] / "src"

SEEDED = settings(derandomize=True, database=None, deadline=None, max_examples=150)

EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1e300, 1e308, -1e308,
         math.inf, -math.inf, math.nan]

#: what a caller might pass for one number
NUMBERS = st.one_of(
    st.floats(-4.0, 4.0),
    st.floats(),  # subnormals, huge values, infinities and NaN
    st.sampled_from(EDGES),
    st.integers(-10**400, 10**400),
    st.booleans(),
    st.text(max_size=4),
    st.binary(max_size=4),
    st.complex_numbers(max_magnitude=4.0),
    st.none(),
    st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.floats().map(np.array),
    st.complex_numbers(max_magnitude=4.0).map(np.complex128),
    st.lists(st.floats(-4.0, 4.0), max_size=3).map(np.array),
)

#: what a caller might pass for a count.  Integers stay below 1000 or from
#: 10**15 up: a count between the two is a job size, and asks for its memory.
#: From 10**15 (8 PB of float64, beyond any address space) the allocation
#: fails before it touches memory, a typed error; from 2**62 numpy cannot
#: hold the array and ``core._count`` rejects the count.
COUNTS = st.one_of(
    st.integers(8, 999),
    st.integers(10**15, 2**62 - 1),
    st.integers(2**62, 2**63 - 1),
    st.integers(2**63, 10**400),
    st.integers(-3, 999).map(np.int64),
    st.integers(-3, 7),
    st.one_of(st.booleans(), st.floats(), st.text(max_size=3), st.none()),
)

#: a number, half the time a valid parameter t (0 < t < inf)
T_VALUES = st.one_of(st.floats(1e-4, 10.0), NUMBERS)

#: three numbers, half the time valid parameters (u, v, tau), tau up to 60:
#: deep in the H2xR cone (tau cos v above about 19) the point is not representable
TRIPLES = st.one_of(st.tuples(st.floats(-4.0, 4.0), st.floats(-1.6, 1.6),
                              st.one_of(st.floats(0.0, 4.0), st.floats(0.0, 60.0))),
                    st.tuples(NUMBERS, NUMBERS, NUMBERS))

#: a parameter argument g: also another count of numbers, or one number
PARAMS = st.one_of(TRIPLES, st.lists(st.floats(-4.0, 4.0), max_size=4), NUMBERS)
KINDS = st.sampled_from(list(Geometry))


def _members(kind: Geometry, points) -> bool:
    """Whether every point of ``points``, (..., 3), satisfies ``contains``."""
    return all(contains(kind, p) for p in np.reshape(points, (-1, 3)))


def _outcome(call, *args, **kwargs):
    """``call``'s result, or None where it raised a GeometryError."""
    try:
        return call(*args, **kwargs)
    except GeometryError:
        return None


def _spec(kind: Geometry) -> SweepSpec:
    a2, ray, _, _ = SWEEP_FAMILIES[kind]
    return SweepSpec(kind, a2, ray, samples=8)


@SEEDED
@given(TRIPLES)
def test_normalized(g):
    params = _outcome(GeodesicParams.normalized, *g)
    if params is not None:
        assert all(type(c) is float and math.isfinite(c) for c in params)
        assert -math.pi < params.u <= math.pi and abs(params.v) <= math.pi / 2
        assert params.tau >= 0.0


@SEEDED
@given(KINDS, PARAMS)
def test_geodesic_point(kind, g):
    p = _outcome(geodesic_point, kind, g)
    if p is not None:
        assert p.shape == (3,) and _members(kind, p)


@SEEDED
@given(KINDS, PARAMS, COUNTS)
@example(Geometry.S2R, (0.3, 0.2, 1.5), 2**62)  # valid parameters meet counts numpy cannot hold
@example(Geometry.H2R, (0.0, 0.0, 0.0), 2**63 - 1)
@example(Geometry.S2R, (0.3, 0.2, 1.5), 10**17)  # numpy's MemoryError was raw
@example(Geometry.S2R, (0.0, 0.0, 1e308), 8)  # tau * 7 overflowed before its division by 7
def test_sample_curve(kind, g, n):
    curve = _outcome(sample_curve, kind, g, n)
    if curve is not None:
        assert curve.shape == (int(n), 3) and _members(kind, curve)
        assert np.array_equal(curve[0], [1.0, 0.0, 0.0])


#: an intrinsic coordinate: a number, or a small array of any floats
COORDINATES = st.one_of(NUMBERS, st.lists(st.floats(), min_size=1, max_size=3).map(np.array))


@SEEDED
@given(KINDS, COORDINATES, COORDINATES, COORDINATES)
def test_to_model(kind, t, c1, c2):
    points = _outcome(to_model, kind, t, c1, c2)
    if points is not None:
        assert points.dtype == np.float64 and _members(kind, points)
        assert points.shape == np.broadcast_shapes(*map(np.shape, (t, c1, c2))) + (3,)


@SEEDED
@given(PARAMS)
def test_tangent_of(g):
    t = _outcome(tangent_of, g)
    if t is not None:
        assert t.shape == (3,) and abs(math.hypot(*t) - 1.0) < 4e-16


@SEEDED
@given(st.one_of(st.tuples(st.floats(1e-4, 1.0), st.floats(1.5, 10.0)),
                st.tuples(T_VALUES, T_VALUES)), COUNTS)
def test_sweep_spec(t_range, samples):
    spec = _outcome(SweepSpec, Geometry.S2R, (3, -2, 1), (2, 1, 0), *t_range, samples)
    if spec is not None:
        assert type(spec.t_min) is float and type(spec.t_max) is float
        assert 0.0 < spec.t_min < spec.t_max < math.inf
        assert type(spec.samples) is int and spec.samples >= 8


@SEEDED
@given(KINDS, T_VALUES)
def test_angle_sum_at_and_limits_check(kind, t):
    """S(t) lies in (0, 3 pi) and on the theorem side of pi."""
    spec = _spec(kind)
    s = _outcome(angle_sum_at, spec, t)
    if s is not None:
        assert type(s) is float and 0.0 < s < 3.0 * math.pi
        assert kind.curvature * (s - math.pi) >= -DEFAULT.flat_band
    ends = _outcome(limits_check, spec, t)
    if ends is not None:
        assert ends[1] == s


@settings(SEEDED, max_examples=40)
@given(KINDS, st.one_of(TRIPLES, PARAMS), st.one_of(st.integers(100, 300), COUNTS))
@example(Geometry.S2R, (0.3, 0.2, 1.5), 10**17)  # numpy's MemoryError was raw
def test_integrations(kind, g, steps):
    curve = _outcome(integrate_geodesic, kind, g, steps)
    if curve is not None:
        assert curve.shape == (int(steps), 3) and _members(kind, curve)
    end = _outcome(integrate_geodesic_cartesian, kind, g)
    if end is not None:
        assert end.shape == (3,) and _members(kind, end)


#: a point of both models, half the time within 2^-k (relative) of the H2xR cone
MEMBERS = st.tuples(
    st.floats(1e-3, 1e3), st.floats(-math.pi, math.pi),
    st.one_of(st.floats(0.0, 0.99), st.integers(1, 60).map(lambda k: 1.0 - 2.0**-k)),
).map(lambda t: (t[0], t[0] * t[2] * math.cos(t[1]), t[0] * t[2] * math.sin(t[1])))

#: a point argument: a member, three numbers, another count of numbers, or one number
POINTS = st.one_of(MEMBERS, TRIPLES, st.lists(NUMBERS, max_size=5), NUMBERS)

#: what is not a 4x4 matrix of real numbers: complex, another shape, None, text,
#: an int beyond double range (which numpy holds as objects), a ragged list
NOT_MATRICES = {"complex": np.eye(4) * (1.0 + 0.5j), "3x3": np.eye(3), "none": None,
                "text": np.full((4, 4), "1"), "objects": np.full((4, 4), 10**400, dtype=object),
                "ragged": [[1.0, 0.0], [0.0]]}

#: a matrix argument: a normaliser, a 4x4 array of any floats, or not a matrix
MATRICES = st.one_of(
    st.sampled_from([(2.0, 1.0, 0.5), (1.0, 0.0, 0.0)]).map(
        lambda a: to_origin(Geometry.H2R, a)),
    st.lists(st.floats(), min_size=16, max_size=16).map(lambda m: np.reshape(m, (4, 4))),
    st.sampled_from(list(NOT_MATRICES.values())),
    NUMBERS,
)


@SEEDED
@given(KINDS, POINTS, MATRICES)
def test_apply_isometry(kind, p, m):
    """A point is read as every point argument is, a matrix as a 4x4 array of
    real numbers; the image is finite."""
    for move in (to_origin(kind, (2.0, 1.0, 0.5)), m):
        image = _outcome(apply_isometry, move, p)
        if image is not None:
            assert image.shape == (3,) and image.dtype == np.float64 and np.isfinite(image).all()


#: the start of each message: the matrix is read by ``core._reals``, then its shape checked
NOT_MATRIX_MESSAGES = {"complex": "matrix entries must be real numbers",
                       "3x3": "need a 4×4 matrix of real numbers, got shape (3, 3)",
                       "none": "matrix entries must be real numbers",
                       "text": "matrix entries must be real numbers",
                       "objects": "matrix entries must be within double range",
                       "ragged": "matrix entries must be real numbers"}


@pytest.mark.parametrize("name", list(NOT_MATRICES))
def test_apply_isometry_needs_a_real_4x4_matrix(name):
    with pytest.raises(DomainError, match=re.escape(NOT_MATRIX_MESSAGES[name])):
        apply_isometry(NOT_MATRICES[name], (2.0, 1.0, 0.5))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("m, p, error, message", [
    (np.diag([math.nan, 1.0, 1.0, 1.0]), (2.0, 1.0, 0.5), DomainError, "not representable"),
    (np.diag([1.0, 1e300, 1.0, 1.0]), (1e10, 0.0, 0.0), DomainError, "not representable"),
    (np.diag([0.0, 1.0, 1.0, 1.0]), (2.0, 1.0, 0.5), DegenerateError, "non-positive"),
], ids=["nan-weight", "overflowing-image", "zero-weight"])
def test_apply_isometry_of_a_weight_or_image_out_of_range(m, p, error, message):
    """A NaN weight is no weight above 0 that numbers an image: DomainError, as an
    image beyond double range is; a zero weight is DegenerateError; no RuntimeWarning."""
    with pytest.raises(error, match=message):
        apply_isometry(m, p)


def test_apply_isometry_reads_ints_beyond_int64():
    """A matrix of ints beyond int64, which numpy holds as objects, is read by
    ``float`` (it was once rejected): the image of the float matrix."""
    m = np.full((4, 4), 2**70, dtype=object)
    assert np.array_equal(apply_isometry(m, (2.0, 1.0, 0.5)),
                          apply_isometry(m.astype(float), (2.0, 1.0, 0.5)))


@SEEDED
@given(KINDS, POINTS)
def test_geodesic_params(kind, p):
    """The parameters are normalised, and the closed form at them is a member
    (or, where it is not representable, a GeometryError)."""
    g = _outcome(geodesic_params, kind, p)
    if g is not None:
        assert all(type(c) is float and math.isfinite(c) for c in g)
        assert -math.pi < g.u <= math.pi and abs(g.v) <= math.pi / 2 and g.tau > 0.0
        end = _outcome(geodesic_point, kind, g)
        if end is not None:
            assert _members(kind, end)


@SEEDED
@given(KINDS, POINTS, st.one_of(st.just(BASE_POINT), POINTS))
def test_distance(kind, p, q):
    d = _outcome(distance, kind, p, q)
    if d is not None:
        assert type(d) is float and 0.0 <= d < math.inf


@SEEDED
@given(KINDS, POINTS)
def test_to_origin(kind, p):
    """The normaliser's image of its point is within ``DEFAULT.isometry`` of the base point."""
    m = _outcome(to_origin, kind, p)
    if m is not None:
        assert m.shape == (4, 4) and np.isfinite(m).all()
        assert np.abs(apply_isometry(m, p) - BASE_POINT).max() <= DEFAULT.isometry


@SEEDED
@given(KINDS, POINTS)
def test_fibre_translation(kind, p):
    """A positive finite scaling, whose image of its point is on the zero-fibre
    leaf: the unit sphere to rounding on S2xR, x >= 1 to rounding on H2xR."""
    m = _outcome(fibre_translation, kind, p)
    if m is not None:
        scale = m[1, 1]
        assert 0.0 < scale < math.inf and np.array_equal(m, np.diag([1.0, scale, scale, scale]))
        x, y, z = apply_isometry(m, p)
        if kind is Geometry.S2R:
            assert abs(math.hypot(x, y, z) - 1.0) <= 4e-16
        else:
            assert x >= 1.0 - 4e-16


@SEEDED
@given(KINDS, POINTS)
def test_model_point_and_metric_at(kind, p):
    """A point is read as every point argument is; the metric of a member is a
    finite symmetric 3x3 matrix with a positive diagonal."""
    point = _outcome(model_point, p)
    if point is not None:
        assert point.shape == (3,) and point.dtype == np.float64
    g = _outcome(metric_at, kind, p)
    if g is not None:
        assert g.shape == (3, 3) and np.isfinite(g).all() and np.array_equal(g, g.T)
        assert (np.diagonal(g) > 0.0).all()


@SEEDED
@given(KINDS, POINTS, POINTS)
def test_matrix_factors_and_closed_form_images(kind, p, q):
    """The rotations and the transcribed S2xR normaliser are finite 4x4 matrices
    (R_x a rotation), and the closed-form images finite points."""
    m = _outcome(rotation_x, kind, p)
    if m is not None:
        assert m.shape == (4, 4) and np.abs(m[1:, 1:] @ m[1:, 1:].T - np.eye(3)).max() <= 1e-15
    for matrix in (_outcome(rotation_z, kind, p), _outcome(transcribed_normalizer_s2r, p)):
        if matrix is not None:
            assert matrix.shape == (4, 4) and np.isfinite(matrix).all()
    images = [_outcome(reference_image_base, kind, p), _outcome(reference_image_third, kind, p, q)]
    both = _outcome(reference_images_plane_mover, kind, p, q)
    for image in images + list(both or ()):
        if image is not None:
            assert image.shape == (3,) and np.isfinite(image).all()


#: an ODE state argument: six numbers, states (6, n) of any floats, another count, one number
STATES = st.one_of(
    st.lists(st.one_of(st.floats(-4.0, 4.0), NUMBERS), min_size=6, max_size=6),
    arrays(np.float64, st.tuples(st.just(6), st.integers(0, 3))),
    st.lists(st.floats(-4.0, 4.0), max_size=7),
    NUMBERS,
)


@SEEDED
@given(KINDS, STATES)
def test_unit_speed_drift(kind, state):
    """A drift per state, not below 0 (NaN for a state that is not finite)."""
    drift = _outcome(unit_speed_drift, kind, state)
    if drift is not None:
        assert np.shape(drift) == np.shape(state)[1:]
        assert not (np.asarray(drift) < 0.0).any()


def _typed(call, *args):
    """``_outcome``, except that a ConsistencyError, which the triangle entry
    points reserve for an implementation bug, fails the property."""
    try:
        return call(*args)
    except ConsistencyError:
        raise
    except GeometryError:
        return None


def _on_the_theorem_side(kind: Geometry, angles) -> bool:
    """Angles in [0, pi] whose sum is on the curvature's side of pi within
    ``DEFAULT.angle_sum``."""
    return (all(0.0 <= w <= math.pi for w in angles)
            and kind.curvature * (sum(angles) - math.pi) >= -DEFAULT.angle_sum)


#: three vertices: half the time members of both models, a1 often the base point
TRIANGLES = st.one_of(
    st.tuples(st.one_of(st.just(BASE_POINT), MEMBERS), MEMBERS, MEMBERS),
    st.tuples(POINTS, POINTS, POINTS),
)


@SEEDED
@given(KINDS, TRIANGLES)
# a coplanar H2xR triangle whose float arcs put the sum 2.2e-5 below pi
@example(Geometry.H2R, ((1.0, 0.0, 0.0), (1.0, 0.5403023058602773, 0.8414709847956515),
                        (0.5, 0.27015115293013864, 0.42073549239782576)))
def test_triangle(kind, vertices):
    """``geodesic_triangle``, ``angle_sum`` and ``classify``: a triangle whose
    sum is computed is classified, with no ConsistencyError; ``coplanar_with_center``
    and ``encloses_center`` answer for every triangle, and only a coplanar one encloses."""
    tri = _typed(geodesic_triangle, kind, *vertices)
    angles = None if tri is None else _typed(angle_sum, tri)
    if angles is not None:
        assert all(type(w) is float for w in angles)
        assert _on_the_theorem_side(kind, angles[:3])
        assert isinstance(classify(tri), TriangleClass)
    if tri is not None:
        coplanar, encloses = coplanar_with_center(tri), encloses_center(tri)
        assert type(coplanar) is bool and type(encloses) is bool
        assert coplanar or not encloses


#: a vertex index of another type: an array of any shape, even of 1, 2 or 3
#: (numpy raised ValueError or TypeError on it), text, None or 2.5
WRONG_INDICES = st.one_of(
    arrays(st.sampled_from([np.float64, np.int64]), array_shapes(min_dims=0, min_side=0),
           elements=st.integers(1, 3)),
    st.text(max_size=2), st.none(), st.just(2.5))


@settings(SEEDED, max_examples=60)
@given(KINDS, TRIANGLES, WRONG_INDICES)
# y and z on the subnormal grid: hypot rounded their spread, and R_x was no rotation
@example(Geometry.S2R, (BASE_POINT, (2.0, 5e-324, 1e-323), (3.0, 1.5, 0.0)), None)
@example(Geometry.S2R, (BASE_POINT, (2.0, 1.0, 0.0), (3.0, -2.0, 1.0)), np.array([1.0, 2.0]))
@example(Geometry.S2R, (BASE_POINT, (2.0, 1.0, 0.0), (3.0, -2.0, 1.0)), np.array([2]))
def test_paper_frame(kind, vertices, wrong_index):
    """``tangent_endpoints`` and ``vertex_angle``, the paper's method: unit
    tangents in an antipodal frame, and angles on the theorem side; an index
    of another type is a PrecondError."""
    tri = _outcome(geodesic_triangle, kind, *vertices)
    if tri is None:
        return
    frame = _typed(tangent_endpoints, tri)
    if frame is not None:
        assert all(abs(math.hypot(*t) - 1.0) <= 1e-12 for t in frame.values())
    angles = [_typed(vertex_angle, tri, i) for i in (1, 2, 3)]
    if None not in angles:
        assert _on_the_theorem_side(kind, angles)
    with pytest.raises(PrecondError, match="vertex index"):
        vertex_angle(tri, wrong_index)


#: a sweep range anywhere in double range
T_RANGES = st.lists(st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e),
                    min_size=2, max_size=2).map(sorted)


@SEEDED
@given(KINDS, MEMBERS, MEMBERS, T_RANGES, st.integers(8, 64))
# the product of the range ends overflowed: a flat family's t0 was inf
@example(Geometry.H2R, (835.9357373682981, 835.9357373682977, -1.9155754515390503e-139),
         (835.9357373682981, 835.9357373682977, -1.9155754515390503e-139),
         [4.79e246, 1.97e299], 8)
# a flat family near the H2xR cone whose float arcs put its sums 1.3e-8 above pi
@example(Geometry.H2R, (1.0, 0.9999999962747097, 0.0), (1.0, 0.9999999962747097, 0.0),
         [10.0, 100.0], 8)
def test_evaluate(kind, a2, ray, t_range, samples):
    """A family has finite grid sums in (0, 3 pi) on the theorem side of pi,
    and its extremum inside the range and no worse than the best grid sum,
    to that sum's rounding: where every sum is pi to an ulp, the better end
    of the range can be an ulp below."""
    spec = _outcome(SweepSpec, kind, a2, ray, *t_range, samples)
    result = None if spec is None else _outcome(evaluate, spec)
    if result is not None:
        assert isinstance(result, SweepResult)
        sign, sums = kind.curvature, result.series[:, 1]
        assert np.all((0.0 < sums) & (sums < 3.0 * math.pi))
        assert np.all(sign * (sums - math.pi) >= -DEFAULT.flat_band)
        assert spec.t_min <= result.t_extremum <= spec.t_max
        if result.extremum_kind is ExtremumKind.FLAT:
            assert result.s_extremum == math.pi
        else:
            assert sign * result.s_extremum >= (sign * sums).max() - 2.0 * math.ulp(math.pi)


#: what is not the record an entry point takes: a number, a point, text, None,
#: or the other record
WRONG_RECORDS = st.one_of(NUMBERS, POINTS, st.sampled_from(["evaluate", _spec(Geometry.S2R)]),
                          st.just(geodesic_triangle(Geometry.S2R, BASE_POINT, (2.0, 1.0, 0.0),
                                                    (3.0, -1.0, 0.0))))

#: every entry point that takes a triangle or a sweep spec, with the record it takes
TAKES_A_RECORD = {
    "angle_sum": ("GeodesicTriangle", angle_sum),
    "classify": ("GeodesicTriangle", classify),
    "coplanar_with_center": ("GeodesicTriangle", coplanar_with_center),
    "encloses_center": ("GeodesicTriangle", encloses_center),
    "tangent_endpoints": ("GeodesicTriangle", tangent_endpoints),
    "vertex_angle": ("GeodesicTriangle", lambda tri: vertex_angle(tri, 2)),
    "angle_sum_at": ("SweepSpec", lambda spec: angle_sum_at(spec, 1.0)),
    "evaluate": ("SweepSpec", evaluate),
    "limits_check": ("SweepSpec", limits_check),
}


@settings(SEEDED, max_examples=40)
@pytest.mark.parametrize("entry", list(TAKES_A_RECORD))
@given(value=WRONG_RECORDS)
def test_a_record_of_another_type_is_domain_error(entry, value):
    """A raw AttributeError ('str' object has no attribute '_angles') once escaped."""
    record, call = TAKES_A_RECORD[entry]
    if type(value).__name__ != record:
        with pytest.raises(DomainError, match=f"^need a {record}, got "):
            call(value)


@SEEDED
@given(KINDS, st.one_of(st.integers(-1000, 1000).map(lambda e: 2.0 ** e),
                        st.floats(1e-300, 1e300), st.floats(-1e300, -1e-300),
                        st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])))
def test_arc_length_quadrature_of_a_scaled_curve(kind, scale):
    """Both metrics are homogeneous of degree -2, so a curve scaled anywhere
    in double range keeps its unit-scale length, to the bit for a power of
    two.  A negative scale keeps S2xR curves (p -> -p is an isometry there)
    and leaves the H2xR model; a zero or non-finite one leaves both."""
    curve = sample_curve(kind, (0.3, 0.2, 1.5), 50)
    with np.errstate(all="ignore"):  # inf * 0
        scaled = curve * scale
    length = _outcome(arc_length_quadrature, kind, scaled)
    if not 0.0 < abs(scale) < math.inf or (scale < 0.0 and kind is Geometry.H2R):
        assert length is None
    elif math.frexp(scale)[0] == 0.5:
        assert length == arc_length_quadrature(kind, curve)
    else:
        assert length == pytest.approx(arc_length_quadrature(kind, curve), rel=1e-12)


@pytest.mark.parametrize("kind", list(Geometry), ids=lambda k: k.value)
@pytest.mark.parametrize("scale, end", [(1e-200, 2.0), (1e200, 2.0), (1e308, 1.7)])
def test_arc_length_quadrature_far_from_unit_scale(kind, scale, end):
    """The segment (1, 0, 0) -> (end, 0, 0) scaled to the ends of the double
    range; at 1e308 the sum of its ends overflows."""
    unit = arc_length_quadrature(kind, [(1.0, 0.0, 0.0), (end, 0.0, 0.0)])
    assert arc_length_quadrature(kind, [(scale, 0.0, 0.0), (end * scale, 0.0, 0.0)]) == \
        pytest.approx(unit, rel=1e-15)


#: what a caller might pass for a curve: points of any numbers or of other
#: lengths, rows of other lengths, an array of any dtype, or no points
CURVES = st.one_of(
    st.lists(st.tuples(NUMBERS, NUMBERS, NUMBERS), max_size=4),
    st.lists(st.lists(st.floats(), max_size=4), max_size=4),
    st.lists(st.lists(st.floats(), min_size=3, max_size=3), min_size=2, max_size=4).map(np.array),
    st.lists(st.tuples(st.complex_numbers(max_magnitude=4.0), st.floats(-4.0, 4.0),
                       st.floats(-4.0, 4.0)), min_size=2, max_size=4).map(np.array),
    NUMBERS,
)


@pytest.mark.parametrize("kind", list(Geometry), ids=lambda k: k.value)
def test_arc_length_quadrature_of_ints_beyond_int64(kind):
    """Ints beyond int64, which numpy holds as objects, are read as ``to_model``
    reads them: the length of the float curve."""
    assert (arc_length_quadrature(kind, [[1, 0, 0], [2**70, 0, 0]])
            == arc_length_quadrature(kind, [[1.0, 0.0, 0.0], [2.0**70, 0.0, 0.0]]))


@SEEDED
@given(KINDS, CURVES)
def test_arc_length_quadrature(kind, curve):
    length = _outcome(arc_length_quadrature, kind, curve)
    if length is not None:
        assert type(length) is float and 0.0 <= length < math.inf


#: one caller number at each entry point that reads caller arrays or numbers, in
#: a place where every real number within double range is valid
READS_A_NUMBER = {
    "model_point": lambda c: model_point([c, 1.0, 0.0]),
    "to_model": lambda c: to_model(Geometry.S2R, 0.0, c, 0.0),
    "SweepSpec": lambda c: SweepSpec(Geometry.S2R, (3, -2, 1), (2, 1, 0), t_min=c, t_max=1e300),
    "arc_length_quadrature": lambda c: arc_length_quadrature(
        Geometry.S2R, [(1.0, 0.0, 0.0), (c, 1.0, 0.0)]),
    "apply_isometry": lambda c: apply_isometry(
        [[1, 0, 0, 0], [0, c, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], (2.0, 1.0, 0.5)),
}


@pytest.mark.parametrize("value, real", [
    (Fraction(1, 2), True), (2**70, True), (10**400, False), ("1", False), (1j, False),
    (None, False)], ids=["fraction", "beyond-int64", "beyond-double", "text", "complex", "none"])
def test_a_value_is_a_number_to_every_entry_point_or_to_none(value, real):
    """Every reader of caller numbers is ``core._reals`` or ``core._real``: a fraction
    was once a number to ``model_point`` alone, and 2**70 not to ``apply_isometry``."""
    outcomes = {name: _outcome(call, value) is not None for name, call in READS_A_NUMBER.items()}
    assert outcomes == dict.fromkeys(READS_A_NUMBER, real)


#: number arguments as a shell passes them
NUMBER_TEXT = st.one_of(
    st.floats().map(repr),
    st.sampled_from(EDGES).map(repr),
    st.integers(-10**400, 10**400).map(str),
    st.text(alphabet="0123456789.e+-naif_", max_size=6),
)


def _exit_code(argv) -> int:
    """``cli.main``'s return code, or the code of argparse's exit."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            assert exc.code == 2
            return 2


@settings(SEEDED, max_examples=60)
@given(KINDS, NUMBER_TEXT, NUMBER_TEXT,
       st.one_of(st.integers(-3, 40).map(str), st.text(alphabet="0123456789.e+-_", max_size=4),
                 st.integers(10**15, 2**63 - 1).map(str), st.integers(2**63, 10**400).map(str)))
def test_cli_sweep(kind, t_min, t_max, samples):
    """Sample counts stay below 10**4 or from 10**15 up, for the reason ``COUNTS`` gives."""
    a2, ray, _, _ = SWEEP_FAMILIES[kind]
    argv = ["sweep", "--geometry", kind.value, "--a2", ",".join(map(repr, a2)),
            "--ray", ",".join(map(repr, ray)), f"--t-min={t_min}", f"--t-max={t_max}",
            f"--samples={samples}", "--format", "json"]
    assert _exit_code(argv) in (0, 1, 2, 3)


@SEEDED
@given(KINDS, st.one_of(st.lists(NUMBER_TEXT, max_size=4).map(",".join), st.text(max_size=8)))
def test_cli_geodesic(kind, params):
    argv = ["geodesic", "--geometry", kind.value, f"--params={params}", "--samples", "8",
            "--format", "json"]
    assert _exit_code(argv) in (0, 1, 2, 3)



#: a child that warms ``name`` up, then runs it on 5 * 10**6 under an address-space
#: limit of its own size plus 150 MiB, and prints the GeometryError it raised
_BOUNDED_CHILD = """
import resource, sys
import prodgeo as pg
from prodgeo import Geometry
call = {
    "integrate_geodesic": lambda n: pg.integrate_geodesic(Geometry.S2R, (0.3, 0.2, 1.5), n),
    "sample_curve": lambda n: pg.sample_curve(Geometry.S2R, (0.3, 0.2, 1.5), n),
    "evaluate": lambda n: pg.evaluate(pg.SweepSpec(Geometry.S2R, (3, -2, 1), (2, 1, 0),
                                                   samples=n)),
}[sys.argv[1]]
call(100)  # every module and numpy routine it uses is loaded before the limit
with open("/proc/self/status") as status:
    size = next(int(line.split()[1]) * 1024 for line in status if line.startswith("VmSize:"))
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS, (size + 150 * 2**20, hard))
try:
    call(5 * 10**6)
except pg.GeometryError as exc:
    print(type(exc).__name__, exc)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
@pytest.mark.parametrize("name, expected", [
    ("integrate_geodesic", "PrecondError not enough memory for 5000000 steps"),
    ("sample_curve", "PrecondError not enough memory for 5000000 samples"),
    ("evaluate", "DomainError not enough memory for 5000000 samples")])
def test_a_count_beyond_memory_is_typed_in_all_its_work(name, expected):
    """A count whose grid fits but whose later arrays do not (the ODE states,
    the curve's points, the grid's list of floats) once raised numpy's raw
    MemoryError.  Only a child process, under its own address-space limit,
    allocates such a count."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _BOUNDED_CHILD, name], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout.strip()) == (0, expected), done.stderr[-2000:]
