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
from prodgeo.oracle import arc_length_quadrature
from conftest import BOTH, random_params, random_point

E = math.e
PI = math.pi


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
        with pytest.raises(DomainError, match="double range"):
            geodesic_point(kind, g)

    def test_negative_tau_rejected(self):
        with pytest.raises(DomainError):
            geodesic_point(Geometry.S2R, (0, 0, -1))

    @pytest.mark.parametrize("g", [(0, 0, math.inf), (0, 0, math.nan), (math.inf, 0, 1),
                                   (0, math.nan, 1), (-math.inf, 0.2, 1)])
    def test_non_finite_params_rejected(self, g):
        with pytest.raises(DomainError, match="finite"):
            GeodesicParams.normalized(*g)

    def test_v_clamped_at_roundoff(self):
        p = geodesic_point(Geometry.S2R, (0, 1.5708, 1.0))
        assert np.allclose(p, [E, 0, 0], atol=1e-4)


class TestInverse:
    def test_s2r_fibre_point(self):
        g = geodesic_params(Geometry.S2R, (1, E, 0, 0))
        assert g == pytest.approx((0.0, PI / 2, 1.0))

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

    def test_quadrant_of_u(self):
        # y < 0, z > 0 must land u in the second quadrant
        g = geodesic_params(Geometry.S2R, (3, -2, 1))
        assert PI / 2 < g.u < PI

    def test_base_point_rejected(self):
        for kind in Geometry:
            with pytest.raises(DomainError):
                geodesic_params(kind, (1, 1, 0, 0))

    def test_s2r_antipodal_axis(self):
        g = geodesic_params(Geometry.S2R, (1, -1, 0, 0))
        assert g.v == pytest.approx(0.0, abs=1e-15)
        assert g.tau == pytest.approx(PI)

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

    @BOTH
    def test_all_samples_are_members(self, kind, rng):
        g = random_params(kind, rng, tau_max=5.0)
        for p in sample_curve(kind, g, 101):
            assert contains(kind, p)


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
