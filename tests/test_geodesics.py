import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodgeo import (
    BASE_POINT,
    DomainError,
    GeodesicParams,
    Geometry,
    PrecondError,
    contains,
    distance,
    geodesic_params,
    geodesic_point,
    sample_curve,
    tangent_of,
)
from prodgeo import triangles
from prodgeo.geodesics import _points
from prodgeo.oracle import arc_length_quadrature
from prodgeo.verification import _random_points
from conftest import BOTH, random_params, random_point
from mp_oracle import closed_form_point, inverse, param_error

E = math.e
PI = math.pi
EPS = np.finfo(float).eps


class TestClosedForm:
    def test_pure_fibre_any_kind(self):
        for kind in Geometry:
            p = geodesic_point(kind, (0, PI / 2, 1))
            assert np.allclose(p, [E, 0, 0], atol=1e-15)

    def test_s2r_quarter_arc(self):
        p = geodesic_point(Geometry.S2R, (PI / 2, 0, PI / 2))
        assert np.allclose(p, [0, 0, 1], atol=1e-15)

    def test_h2r_base_plane(self):
        p = geodesic_point(Geometry.H2R, (0, 0, 1))
        assert np.allclose(p, [math.cosh(1), math.sinh(1), 0], atol=1e-15)

    def test_tau_zero_is_base(self):
        for kind in Geometry:
            assert np.array_equal(geodesic_point(kind, (0.3, 0.5, 0.0)), BASE_POINT)

    @BOTH
    def test_never_leaves_model(self, kind, rng):
        for _ in range(300):
            g = random_params(kind, rng, tau_max=6.0)
            assert contains(kind, geodesic_point(kind, g))

    @pytest.mark.parametrize("kind, g", [(Geometry.H2R, (0, 0, 800)),     # cosh overflows
                                         (Geometry.S2R, (0, 1, 1000)),    # exp overflows
                                         (Geometry.H2R, (0, 0.5, 700)),   # their product does
                                         (Geometry.S2R, (0, -1.5, 800))],  # underflow to E0
                             ids=["h2r-cosh", "s2r-exp", "h2r-product", "s2r-underflow"])
    def test_out_of_double_range_rejected(self, kind, g):
        with pytest.raises(DomainError, match="not representable in double precision"):
            geodesic_point(kind, g)

    @pytest.mark.parametrize("g", [(0.0, 0.0, 40.0), (1.0, 0.3, 25.0), (0.0, 0.0, 19.5)])
    def test_point_rounded_onto_the_cone_rejected(self, g):
        """Deep in the H2xR cone cosh w and sinh w round to one double, so the
        closed form lands on the cone: a DomainError, as ``to_model`` gives."""
        with pytest.raises(DomainError) as caught:
            geodesic_point(Geometry.H2R, g)
        u, v, tau = GeodesicParams.normalized(*g)
        assert str(caught.value) == (f"the h2r model point at geodesic parameters ({u}, {v}, {tau})"
                                     " is not representable in double precision")

    def test_negative_tau_rejected(self):
        with pytest.raises(DomainError):
            geodesic_point(Geometry.S2R, (0, 0, -1))

    @pytest.mark.parametrize("g", [(0, 0, math.inf), (0, 0, math.nan), (math.inf, 0, 1),
                                   (0, math.nan, 1), (-math.inf, 0.2, 1)])
    def test_non_finite_params_rejected(self, g):
        with pytest.raises(DomainError, match="finite"):
            GeodesicParams.normalized(*g)

    @pytest.mark.parametrize("g, message", [
        ((0.0, 0.5, "1"), "need a number for tau"), ((0.0, "a", 1.0), "need a number for v"),
        ((1j, 0.5, 1.0), "need a number for u"), ((0.0, None, 1.0), "need a number for v"),
        ((0.0, 0.5, np.array([1.0, 2.0])), "need a number for tau"),
        ((0.0, 0.5, 10**400), "tau must be within double range"),
        ((0.0, 0.5), r"need geodesic parameters \(u, v, tau\)"),
        (None, r"need geodesic parameters \(u, v, tau\)"),
        (1.0, r"need geodesic parameters \(u, v, tau\)")],
        ids=["text-tau", "text-v", "complex-u", "none-v", "array-tau", "huge-tau", "two",
             "none", "scalar"])
    def test_params_that_are_not_three_doubles(self, g, message):
        """A raw TypeError, ValueError or OverflowError once escaped each call."""
        with pytest.raises(DomainError, match=message):
            geodesic_point(Geometry.S2R, g)
        with pytest.raises(DomainError, match=message):
            sample_curve(Geometry.S2R, g, 3)
        if isinstance(g, tuple) and len(g) == 3:
            with pytest.raises(DomainError, match=message):
                GeodesicParams.normalized(*g)

    @pytest.mark.parametrize("g", [(0.0, "a", 1.0), (None, 0.0, 1.0), (0.0, 0.5),
                                   (math.inf, 0.0, 1.0), (0.0, -math.inf, 1.0),
                                   (math.nan, 0.0, 1.0)])
    def test_tangent_of_needs_finite_angles(self, g):
        """math.sin of an infinity raised a raw ValueError; NaN gave a NaN tangent."""
        with pytest.raises(DomainError):
            tangent_of(g)

    def test_tangent_of_reads_angles_as_given(self):
        """u and v are not wrapped or clamped, so the bits are the plain formula's."""
        u, v = -math.pi, 0.3
        assert tangent_of((np.float64(u), v, "tau is not read")).tolist() == [
            math.sin(v), math.cos(v) * math.cos(u), math.cos(v) * math.sin(u)]

    def test_v_clamped_at_roundoff(self):
        p = geodesic_point(Geometry.S2R, (0, 1.5708, 1.0))
        assert np.allclose(p, [E, 0, 0], atol=1e-4)


class TestInverse:
    def test_s2r_fibre_point(self):
        g = geodesic_params(Geometry.S2R, (1, E, 0, 0))
        assert g == pytest.approx((0.0, PI / 2, 1.0))
        # on the fibre axis of either model, at any height: a pure fibre
        # translation with u = 0
        assert geodesic_params(Geometry.H2R, (1, E, 0, 0)) == pytest.approx((0.0, PI / 2, 1.0))
        for kind in Geometry:
            g = geodesic_params(kind, (1e200, 0, 0))
            assert g == pytest.approx((0.0, PI / 2, math.log(1e200)), rel=1e-15)

    def test_h2r_base_plane_point(self):
        g = geodesic_params(Geometry.H2R, (1, math.cosh(2), 0, math.sinh(2)))
        assert g == pytest.approx((PI / 2, 0.0, 2.0))

    def test_s2r_unit_sphere_point(self):
        # zero fibre part: v = 0, tau is the principal sphere arc
        g = geodesic_params(Geometry.S2R, (2 / math.sqrt(5), 1 / math.sqrt(5), 0))
        assert g.u == pytest.approx(0.0)
        assert g.v == pytest.approx(0.0, abs=1e-15)
        assert g.tau == pytest.approx(math.atan(0.5))

    def test_descending_fibre(self):
        g = geodesic_params(Geometry.S2R, (1, 1 / E, 0, 0))
        assert g == pytest.approx((0.0, -PI / 2, 1.0))
        assert geodesic_params(Geometry.H2R, (1, 1 / E, 0, 0)) == pytest.approx(
            (0.0, -PI / 2, 1.0))
        for kind in Geometry:
            g = geodesic_params(kind, (1e-200, 0, 0))
            assert g == pytest.approx((0.0, -PI / 2, -math.log(1e-200)), rel=1e-15)

    def test_quadrant_of_u(self):
        # y < 0, z > 0 must land u in the second quadrant
        g = geodesic_params(Geometry.S2R, (3, -2, 1))
        assert PI / 2 < g.u < PI

    def test_base_point_rejected(self):
        # homogeneous coordinates at any scale name the same point
        for kind in Geometry:
            for scale in (1.0, 1e200, 1e-200):
                with pytest.raises(DomainError, match="base point"):
                    geodesic_params(kind, (scale, scale, 0, 0))

    def test_s2r_antipodal_axis(self):
        g = geodesic_params(Geometry.S2R, (1, -1, 0, 0))
        assert g.v == pytest.approx(0.0, abs=1e-15)
        assert g.tau == pytest.approx(PI)
        # off the unit sphere: the surface arc is still pi, u still 0
        for scale in (1e200, 1e-200):
            height = math.log(scale)
            g = geodesic_params(Geometry.S2R, (-scale, 0, 0))
            assert g == pytest.approx((0.0, math.atan2(height, PI), math.hypot(height, PI)),
                                      rel=1e-15)
        # the H2xR model has no antipodal axis: (-1, 0, 0) is outside the cone
        with pytest.raises(DomainError, match="is not in the"):
            geodesic_params(Geometry.H2R, (-1, 0, 0))

    def test_non_member_rejected(self):
        with pytest.raises(DomainError):
            geodesic_params(Geometry.H2R, (1, 1, 2, 0))

    @BOTH
    def test_roundtrip(self, kind, rng):
        tau_max = 4.0 if kind is Geometry.S2R else 10.0
        for _ in range(1000):
            g = random_params(kind, rng, tau_max=tau_max)
            h = geodesic_params(kind, geodesic_point(kind, g))
            assert abs(math.remainder(g.u - h.u, 2 * PI)) < 1e-9
            assert abs(g.v - h.v) < 1e-9
            assert abs(g.tau - h.tau) < 1e-9

    @settings(max_examples=200, deadline=None)
    @given(u=st.floats(-PI, PI), v=st.floats(-PI / 2, PI / 2),
           tau=st.floats(1e-3, 10.0))
    def test_forward_of_inverse_fixes_points_h2r(self, u, v, tau):
        """Even deep in the cone, forward(inverse(p)) reproduces p to
        relative precision (the params themselves may be ill-conditioned)."""
        p = geodesic_point(Geometry.H2R, (u, v, tau))
        q = geodesic_point(Geometry.H2R, geodesic_params(Geometry.H2R, p))
        assert np.abs(q - p).max() <= 1e-9 * max(1.0, np.abs(p).max())


class TestTangent:
    def test_pure_fibre(self):
        assert np.allclose(tangent_of((0, PI / 2, 1)), [1, 0, 0])

    def test_base_plane(self):
        assert np.allclose(tangent_of((0, 0, 1)), [0, 1, 0])

    def test_diagonal(self):
        t = tangent_of((PI / 2, PI / 4, 1))
        assert np.allclose(t, [math.sqrt(2) / 2, 0, math.sqrt(2) / 2])

    @settings(max_examples=300)
    @given(u=st.floats(-PI, PI), v=st.floats(-PI / 2, PI / 2))
    def test_unit_norm(self, u, v):
        assert abs(np.linalg.norm(tangent_of((u, v, 1.0))) - 1.0) < 1e-12


class TestInverseScale:
    def test_s2r_params_of_a_huge_point(self):
        g = geodesic_params(Geometry.S2R, (1e200, 1, 0))
        assert g.tau == pytest.approx(math.log(1e200), rel=1e-12)
        assert g.v == pytest.approx(PI / 2, abs=1e-12)

    def test_h2r_params_of_a_tiny_point(self):
        """1e-170 (2, 1, 0) is a member; x^2 - y^2 would underflow to 0."""
        g = geodesic_params(Geometry.H2R, (2e-170, 1e-170, 0))
        height, w = math.log(math.sqrt(3.0) * 1e-170), math.asinh(1.0 / math.sqrt(3.0))
        assert g.tau == pytest.approx(math.hypot(height, w), rel=1e-14)
        assert g.v == pytest.approx(math.atan2(height, w), rel=1e-14)
        assert g.u == 0.0

    def test_h2r_params_near_the_largest_double(self):
        """x + r = 2.5e308 would overflow: the fibre norm takes it in
        quarters, so the inverse matches the 50-digit one."""
        p = (1.5e308, 1e308, 0.0)
        g = geodesic_params(Geometry.H2R, p)
        assert param_error(g, inverse(Geometry.H2R, p)[:3]) <= 1e-15 * g.tau
        assert g.tau == pytest.approx(709.308, abs=1e-3)

    @settings(max_examples=200, deadline=None)
    @given(kind=st.sampled_from(list(Geometry)), u=st.floats(-PI, PI),
           height=st.floats(250.0, 300.0), sign=st.sampled_from([-1.0, 1.0]),
           w=st.floats(1e-3, 3.0))
    def test_roundtrip_far_along_the_fibre(self, kind, u, height, sign, w):
        """Points e^(+-(250 to 300)) from the unit leaf: the fibre norm takes
        no square, so the inverse recovers the geodesic to a few ulps (the
        worst of 20,000 seeded draws: 4.3e-16 relative in tau, 2.2e-16 in
        u and v)."""
        g = GeodesicParams.normalized(u, math.atan2(sign * height, w), math.hypot(height, w))
        h = geodesic_params(kind, geodesic_point(kind, g))
        assert abs(h.tau - g.tau) <= 2e-15 * g.tau
        assert abs(h.v - g.v) <= 2e-15
        assert abs(math.remainder(h.u - g.u, 2 * PI)) <= 2e-15

    def test_h2r_params_one_ulp_inside_the_cone(self):
        """x is the float after hypot(y, z) while x^2 - y^2 - z^2 rounds to
        a negative number: the fibre split takes no square, so the inverse
        problem is solved, as deep in the cone as double precision allows."""
        p = (5.929952372230324, 0.9984551516293068, 5.845290621269822)
        assert p[0] * p[0] - p[1] * p[1] - p[2] * p[2] <= 0.0
        g = geodesic_params(Geometry.H2R, p)
        assert all(map(math.isfinite, g)) and 20.0 < g.tau < 30.0


class TestDistance:
    def test_fibre_translation_distance(self):
        for kind in Geometry:
            assert distance(kind, (1, 1, 0, 0), (1, E, 0, 0)) == pytest.approx(1.0)

    def test_h2r_base_plane_segment(self):
        d = distance(Geometry.H2R, (1, 1, 0, 0), (1, math.cosh(1), math.sinh(1), 0))
        assert d == pytest.approx(1.0)

    @BOTH
    def test_self_distance_zero(self, kind, rng):
        for _ in range(20):
            p = random_point(kind, rng)
            assert distance(kind, p, p) < 1e-12

    @BOTH
    def test_self_distance_is_exactly_zero(self, kind, rng):
        for _ in range(20):
            p = random_point(kind, rng)
            assert distance(kind, p, p.copy()) == 0.0

    def test_s2r_cut_locus_distance(self):
        # antipodal surface points: the shortest geodesic is not unique,
        # its length is
        d = distance(Geometry.S2R, (1, 0, 0), (-2, 0, 0))
        assert d == pytest.approx(math.hypot(math.log(2.0), PI), rel=1e-15)

    @BOTH
    @pytest.mark.parametrize("offset", [1e-160, 1e-170, 1e-250, 1e-310, 5e-324])
    def test_tiny_surface_arc_is_its_length(self, kind, offset):
        """A surface arc below 1e-162 keeps its length: its tangent length
        is taken by hypot, whose square would underflow to 0."""
        p = (1.0, offset, 0.0)
        assert distance(kind, BASE_POINT, p) == geodesic_params(kind, p).tau == offset

    @BOTH
    def test_distance_from_the_base_point_is_tau_bit_for_bit(self, kind, rng):
        """The inverse problem is the product split and ``triangles._arc`` from
        the base surface point, as ``distance`` is: on 3,000 seeded endpoints
        its tau is the distance from the base point to the bit."""
        for p in _random_points(kind, rng, 3000, 3.0):
            assert distance(kind, BASE_POINT, p) == geodesic_params(kind, p).tau, p

    @BOTH
    def test_the_inverse_problem_measures_one_tangent(self, kind, monkeypatch):
        """The surface arc forms one normal and takes one length: a
        ``geodesic_params`` call makes one ``_tangent_len`` call, where a unit
        tangent at each end of the arc made two."""
        lengths = []

        def counted(*args):
            lengths.append(args)
            return true_len(*args)

        true_len = triangles._tangent_len
        monkeypatch.setattr(triangles, "_tangent_len", counted)
        geodesic_params(kind, (2.0, 1.0, 0.3))
        assert len(lengths) == 1

    @BOTH
    def test_symmetry(self, kind, rng):
        for _ in range(200):
            p, q = random_point(kind, rng), random_point(kind, rng)
            assert distance(kind, p, q) == pytest.approx(distance(kind, q, p), abs=1e-9)

    @BOTH
    def test_matches_quadrature_arc_length(self, kind, rng):
        """Independent check: the metric length of the connecting closed-form
        curve, measured by quadrature, equals the reported distance."""
        for _ in range(10):
            g = random_params(kind, rng, tau_max=2.0)
            p = geodesic_point(kind, g)
            d = distance(kind, BASE_POINT, p)
            curve = sample_curve(kind, g, 4001)
            assert abs(arc_length_quadrature(kind, curve) - d) < 1e-7


class TestSampleCurve:
    def test_endpoints(self):
        g = GeodesicParams(0.3, 0.2, 1.5)
        pts = sample_curve(Geometry.S2R, g, 2)
        assert np.array_equal(pts[0], BASE_POINT)
        assert np.allclose(pts[1], geodesic_point(Geometry.S2R, g))

    def test_fibre_midpoint(self):
        pts = sample_curve(Geometry.S2R, (0, PI / 2, 2), 3)
        assert np.allclose(pts[1], [E, 0, 0])

    def test_min_count(self):
        with pytest.raises(PrecondError):
            sample_curve(Geometry.S2R, (0, 0, 1), 1)

    @pytest.mark.parametrize("n", [2.5, 3.0, "3", None, 2**62, 2**63, 10**400])
    def test_count_that_is_not_an_integer(self, n):
        """2.5 would give 3 samples ending past tau; "3" would fail on <; a count
        beyond the largest index gave a (0, 3) array (2**63) or numpy's ValueError,
        as did one too big for numpy to hold (2**62)."""
        with pytest.raises(PrecondError, match="integer number of samples"):
            sample_curve(Geometry.S2R, (0, 0, 1), n)

    def test_integer_like_count(self):
        pts = sample_curve(Geometry.S2R, (0, 0, 1), np.int64(3))
        assert np.allclose(pts[-1], [math.cos(1.0), math.sin(1.0), 0.0], rtol=0, atol=1e-15)

    @BOTH
    def test_all_samples_are_members(self, kind, rng):
        g = random_params(kind, rng, tau_max=5.0)
        for p in sample_curve(kind, g, 101):
            assert contains(kind, p)

    @BOTH
    def test_batch_matches_scalar_closed_form(self, kind, rng):
        """The batch agrees with the closed form evaluated one point at a
        time with ``math`` (the module docstring's formula)."""
        trig = (math.cos, math.sin) if kind is Geometry.S2R else (math.cosh, math.sinh)
        for _ in range(50):
            g = random_params(kind, rng, tau_max=6.0)
            batch = sample_curve(kind, g, 37)
            for i, p in enumerate(batch):
                tau = g.tau * i / 36
                scale, w = math.exp(tau * math.sin(g.v)), tau * math.cos(g.v)
                ref = scale * np.array([trig[0](w), trig[1](w) * math.cos(g.u),
                                        trig[1](w) * math.sin(g.u)])
                assert np.abs(p - ref).max() <= 1e-15 * np.linalg.norm(ref)
                assert np.array_equal(p, geodesic_point(kind, (g.u, g.v, tau)))

    @pytest.mark.parametrize("kind, g, first_bad", [(Geometry.H2R, (0, 0, 800), 100.0),
                                                    (Geometry.S2R, (0, 1, 1000), 875.0),
                                                    (Geometry.H2R, (0, 0.5, 700), 87.5),
                                                    (Geometry.S2R, (0, -1.5, 800), 800.0)],
                             ids=["h2r-cosh", "s2r-exp", "h2r-product", "s2r-underflow"])
    def test_out_of_double_range_names_first_sample(self, kind, g, first_bad):
        """Of the nine samples at equal steps in [0, tau], the error names
        the first one that is not a member: on H2xR the first that rounds
        onto the cone, long before cosh overflows."""
        with pytest.raises(DomainError) as caught:
            sample_curve(kind, g, 9)
        u, v, _ = GeodesicParams.normalized(*g)
        assert str(caught.value) == (f"the {kind.value} model point at geodesic parameters "
                                     f"({u}, {v}, {first_bad}) is not representable in double "
                                     "precision")

    @BOTH
    def test_one_geodesic_per_row(self, kind, rng):
        """Directions given per row evaluate each row's own geodesic, bit
        for bit as the single-point call does."""
        params = [GeodesicParams.normalized(*random_params(kind, rng, tau_max=6.0))
                  for _ in range(40)]
        u, v, tau = np.array(params).T
        rows = _points(kind, u, v, tau)
        assert rows.shape == (40, 3)
        for p, g in zip(rows, params):
            assert np.array_equal(p, geodesic_point(kind, g))

    def test_per_row_out_of_range_names_its_row(self):
        u, v, tau = np.array([[0.1, 0.2, 1.0], [0.3, 0.4, 900.0], [0.5, 0.0, 2.0]]).T
        with pytest.raises(DomainError) as caught:
            _points(Geometry.H2R, u, v, tau)
        assert str(caught.value) == ("the h2r model point at geodesic parameters (0.3, 0.4, 900.0) "
                                     "is not representable in double precision")


class TestGeodesicStructure:
    @BOTH
    def test_unit_speed_parametrisation(self, kind, rng):
        """Quadrature arc length of [0, tau] equals tau: the closed forms
        are unit-speed."""
        for _ in range(10):
            g = random_params(kind, rng, tau_max=2.0)
            curve = sample_curve(kind, g, 4001)
            assert abs(arc_length_quadrature(kind, curve) - g.tau) < 1e-7

    @BOTH
    def test_planarity_with_centre(self, kind, rng):
        """Every base-point geodesic lies in a Euclidean plane through the
        centre: the normal (0, -sin u, cos u) annihilates all samples."""
        for _ in range(50):
            g = random_params(kind, rng, tau_max=4.0)
            normal = np.array([0.0, -math.sin(g.u), math.cos(g.u)])
            for p in sample_curve(kind, g, 40):
                assert abs(normal @ p) <= 1e-10 * max(1.0, np.linalg.norm(p))


class TestPrecisionFloor:
    """The inverse problem against the 50-digit oracle of ``mp_oracle``, on
    exactly rounded closed-form points, so that only the algorithm's own
    error remains.  Fitted on 20,000 points per geometry with w in [0, 10]
    and tau in [1e-3, 10], its envelope is

        eps (0.4 cosh(2w) + 2 max(1, tau) + 1 / tau),

    with no cosh term on S2xR.  The cosh term is the H2xR fibre norm
    sqrt(x - r) sqrt(x + r) of a point whose Q is eps cosh(2w)-conditioned;
    1 / tau is the log of a norm near 1, whose absolute eps moves v by
    eps / tau; 2 max(1, tau) is the rounding of tau.  The worst point
    reached 0.86 of it."""

    @BOTH
    def test_error_within_fitted_envelope(self, kind):
        rng = np.random.default_rng(9)
        cosh_term = 0.4 if kind is Geometry.H2R else 0.0
        for _ in range(200):
            g = (rng.uniform(-PI, PI), rng.uniform(-PI / 2, PI / 2), rng.uniform(1e-3, 10.0))
            p = closed_form_point(kind, *g)
            u, v, tau, w = inverse(kind, p)
            envelope = EPS * (cosh_term * math.cosh(2.0 * w) + 2.0 * max(1.0, tau) + 1.0 / tau)
            assert param_error(geodesic_params(kind, p), (u, v, tau)) <= 2.0 * envelope
